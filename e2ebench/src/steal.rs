//! Host CPU steal, window by window.
//!
//! On a virtual machine the host may take CPU time from the guest
//! ("steal", `/proc/stat`). It comes in bursts, and any latency sample
//! taken during one reads slow for reasons outside the program. A
//! background thread records, for every [`WINDOW`], the share of the
//! CPU time the host stole; latencies are then taken from the samples
//! that ran in quiet windows (at most [`QUIET_MAX`] stolen), or, when
//! the host stole throughout, from the least stolen ones ([`keep`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::BLOCK_MIN_TAIL;

/// Length of one steal window.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Largest share of a window's CPU time the host may steal for the
/// window to count as quiet.
pub const QUIET_MAX: f64 = 0.02;

/// Fewest samples of `n` that [`StealLog::quiet`] keeps: a quarter, or
/// enough for one tail block if that is fewer, so that a large sample
/// keeps only its quiet part whenever that can still give a p90.
pub fn keep(n: usize) -> usize {
    n.div_ceil(4).min(BLOCK_MIN_TAIL)
}

/// One closed window and the share of its CPU time the host stole.
#[derive(Clone, Copy, Debug)]
struct Window {
    start: Instant,
    end: Instant,
    steal: f64,
}

/// `(steal, total)` CPU jiffies of the host so far.
pub fn jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The steal record of a run, filled in by a background thread.
pub struct StealLog {
    windows: Arc<Mutex<Vec<Window>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StealLog {
    /// Starts recording. Without `/proc/stat` every window stays
    /// unknown and every sample counts as quiet.
    pub fn start() -> Self {
        let windows = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (windows, stop) = (Arc::clone(&windows), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut at, mut last) = (Instant::now(), jiffies());
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(WINDOW);
                    let (now, cur) = (Instant::now(), jiffies());
                    if let (Some((s0, t0)), Some((s1, t1))) = (last, cur) {
                        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                        windows
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(Window {
                                start: at,
                                end: now,
                                steal,
                            });
                    }
                    (at, last) = (now, cur);
                }
            })
        };
        StealLog {
            windows,
            stop,
            thread: Some(thread),
        }
    }

    /// The largest steal share of the closed windows overlapping
    /// `start..end` (0 past the last closed window).
    fn steal_between(windows: &[Window], start: Instant, end: Instant) -> f64 {
        let first = windows.partition_point(|w| w.end <= start);
        windows[first..]
            .iter()
            .take_while(|w| w.start < end)
            .fold(0.0, |m, w| w.steal.max(m))
    }

    /// The values of the `(start, end, value)` samples that ran wholly
    /// in quiet windows, in order, and how many samples there were.
    /// When fewer than [`keep`] are quiet, the host stole throughout, and
    /// the `keep` that ran under the least steal are returned (with every
    /// sample that ran under no more steal than the last of them).
    pub fn quiet(&self, samples: &[(Instant, Instant, f64)]) -> (Vec<f64>, usize) {
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let steal: Vec<f64> = samples
            .iter()
            .map(|(s, e, _)| Self::steal_between(&windows, *s, *e))
            .collect();
        let mut ranked = steal.clone();
        ranked.sort_by(f64::total_cmp);
        let kth = ranked
            .get(keep(samples.len()).saturating_sub(1))
            .copied()
            .unwrap_or(0.0);
        let limit = kth.max(QUIET_MAX);
        let kept = samples
            .iter()
            .zip(&steal)
            .filter(|(_, s)| **s <= limit)
            .map(|((_, _, v), _)| *v)
            .collect();
        (kept, samples.len())
    }

    /// Share of the closed windows in which the host stole CPU time.
    pub fn stolen_share(&self) -> f64 {
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let stolen = windows.iter().filter(|w| w.steal > QUIET_MAX).count();
        stolen as f64 / windows.len().max(1) as f64
    }

    /// Stops the recording thread and waits for it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("steal thread panicked");
        }
    }
}

impl Drop for StealLog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_stolen_windows_are_dropped_unless_nearly_all_are() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let window = |start: u64, steal: f64| Window {
            start: ms(start),
            end: ms(start + 250),
            steal,
        };
        let log = StealLog {
            windows: Arc::new(Mutex::new(vec![
                window(0, 0.0),
                window(250, 0.3),
                window(500, 0.01),
                window(750, 0.1),
            ])),
            stop: Arc::new(AtomicBool::new(true)),
            thread: None,
        };
        let samples = [
            (ms(10), ms(20), 1.0),
            (ms(240), ms(260), 2.0), // touches the stolen window
            (ms(300), ms(310), 3.0),
            (ms(600), ms(610), 4.0),
            (ms(1100), ms(1110), 5.0), // after the last closed window
        ];
        assert_eq!(log.quiet(&samples), (vec![1.0, 4.0, 5.0], 5));
        // All stolen: the least stolen quarter (rounded up) is kept.
        let stolen = [
            (ms(300), ms(310), 3.0),
            (ms(800), ms(810), 6.0),
            (ms(900), ms(910), 7.0),
            (ms(260), ms(270), 8.0),
            (ms(240), ms(260), 2.0),
        ];
        assert_eq!(log.quiet(&stolen), (vec![6.0, 7.0], 5));
        // A large sample keeps its least stolen 100, not a quarter.
        assert_eq!((keep(40), keep(400), keep(10_000)), (10, 100, 100));
        let large: Vec<_> = (0..4000u64)
            .map(|i| {
                let at = if i < 150 { ms(800) } else { ms(300) };
                (at, at, i as f64)
            })
            .collect();
        assert_eq!(log.quiet(&large).0.len(), 150);
        assert!((log.stolen_share() - 0.5).abs() < 1e-12);
    }
}
