//! What every workload shares: the run context, the report it fills in,
//! daemon boot + load, and reads of the daemon's own counters.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use indaas_service::proto::encode_line;
use indaas_service::{Client, MetricsAnswer, Response, ResponseEnvelope};

use crate::daemon::Daemon;
use crate::stats::{block_summary, median};
use crate::steal::StealLog;

/// Times the e2e run sets up (boot + load + warm-up); `setup_s` is the
/// median, the last set-up is the one measured.
pub const SETUP_REPS: usize = 5;

pub struct Ctx {
    pub bin: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub steal: StealLog,
}

/// One timed operation: when it started, when it ended, and the value
/// reported for it (its latency in the metric's unit).
pub type Sample = (Instant, Instant, f64);

/// A sample whose value is its own duration, in `scale` units per
/// second (1e3 for ms, 1e6 for µs).
pub fn timed(start: Instant, end: Instant, scale: f64) -> Sample {
    (start, end, end.duration_since(start).as_secs_f64() * scale)
}

impl Ctx {
    /// A share of the measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// True while a phase that started at `start` and was given `dur`
    /// of measuring time should go on.
    pub fn running(&self, start: Instant, dur: Duration) -> bool {
        start.elapsed() < dur
    }

    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check: how many outputs it judged, how many failed.
pub struct Check {
    pub name: &'static str,
    pub total: u64,
    pub failures: u64,
    pub first_failure: Option<String>,
}

impl Check {
    pub fn new(name: &'static str) -> Self {
        Check {
            name,
            total: 0,
            failures: 0,
            first_failure: None,
        }
    }

    /// Records one judged output; returns `ok`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.total += 1;
        if !ok {
            self.failures += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(why());
            }
        }
        ok
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Prints a named timing as its median and supported tail, with the
    /// sample count, the blocks and the percentile used. Only samples
    /// that ran while the host stole (next to) no CPU time count, or the
    /// least stolen ones ([`StealLog::quiet`]); they are summarised with [`block_summary`], in the order the
    /// samples were taken. Returns `(p50, tail)`, or `None` (and a line
    /// saying so) when the sample is too small.
    pub fn timing(
        &mut self,
        steal: &StealLog,
        name: &str,
        unit: &str,
        samples: &[Sample],
    ) -> Option<(f64, f64)> {
        let (values, all) = steal.quiet(samples);
        match block_summary(&values, 90.0) {
            Some(s) => {
                let blocks: Vec<String> = s.block_p50s.iter().map(|v| format!("{v:.3}")).collect();
                self.line(format!(
                    "metric {name}_p50 = {:.3} {unit} (n={} of {all} kept for steal, median of {} block medians [{}])",
                    s.p50, s.n, s.blocks, blocks.join(" ")
                ));
                self.line(format!(
                    "metric {name}_p90 = {:.3} {unit} (median of the p{} of {} blocks of n={})",
                    s.tail,
                    s.tail_pct,
                    s.tail_blocks,
                    s.n / s.tail_blocks
                ));
                Some((s.p50, s.tail))
            }
            None => {
                self.line(format!(
                    "metric {name}: only {} samples, too few for a tail",
                    values.len()
                ));
                None
            }
        }
    }

    /// Emits the end-to-end pair `<prefix>_p50_*`/`<prefix>_p90_*` from
    /// a timing, failing the run when the sample cannot support it.
    pub fn e2e_timing(
        &mut self,
        steal: &StealLog,
        names: (&'static str, &'static str),
        unit: &'static str,
        label: &str,
        samples: &[Sample],
    ) {
        match self.timing(steal, label, unit, samples) {
            Some((p50, tail)) => {
                self.e2e(names.0, p50, unit);
                self.e2e(names.1, tail, unit);
            }
            None => self.failed += 1,
        }
    }
}

/// Runs `boot` (start the daemons, load them, warm up) as many times as
/// [`Ctx::setup_reps`] says, stopping every set of daemons but the last.
/// Returns the last set, its state and the median set-up time.
pub fn setup<T>(
    ctx: &Ctx,
    mut boot: impl FnMut() -> Result<(Vec<Daemon>, T), String>,
) -> Result<(Vec<Daemon>, T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..ctx.setup_reps() {
        let started = Instant::now();
        let (daemons, state) = boot()?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 == ctx.setup_reps() {
            kept = Some((daemons, state));
        } else {
            for d in daemons {
                d.stop()?;
            }
        }
    }
    let (daemons, state) = kept.expect("at least one set-up");
    Ok((daemons, state, median(&times)))
}

/// Starts one daemon and ingests `batches` into it, checking the store
/// holds `expect_records` afterwards.
pub fn boot_loaded(
    ctx: &Ctx,
    batches: &[String],
    expect_records: usize,
) -> Result<(Daemon, Client), String> {
    let daemon = Daemon::spawn(&ctx.bin)?;
    let mut client = connect(&daemon.addr)?;
    for b in batches {
        client
            .ingest(b)
            .map_err(|e| format!("set-up ingest: {e}"))?;
    }
    let status = client.status().map_err(|e| format!("status: {e}"))?;
    if status.records != expect_records {
        return Err(format!(
            "the daemon holds {} records after set-up, expected {expect_records}",
            status.records
        ));
    }
    Ok((daemon, client))
}

pub fn connect(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Bytes the daemon writes for `body` as the answer to request `id`: the
/// 4-byte length prefix plus the JSON envelope.
pub fn frame_bytes(id: u64, body: &Response) -> usize {
    4 + encode_line(&ResponseEnvelope {
        id,
        body: body.clone(),
    })
    .len()
}

/// Daemon counters around one phase.
pub struct Counters {
    before: MetricsAnswer,
    after: MetricsAnswer,
}

impl Counters {
    pub fn snap(client: &mut Client) -> Result<MetricsAnswer, String> {
        client
            .metrics(Some(0))
            .map_err(|e| format!("reading daemon metrics: {e}"))
    }

    pub fn new(before: MetricsAnswer, after: MetricsAnswer) -> Self {
        Counters { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        a.saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    /// How much a monotone gauge (a running total) grew.
    pub fn gauge_delta(&self, name: &str) -> u64 {
        let a = self.after.gauge(name).unwrap_or(0);
        a.saturating_sub(self.before.gauge(name).unwrap_or(0))
    }

    /// `(count, mean µs)` of what a histogram recorded during the phase.
    pub fn histo(&self, name: &str) -> (u64, f64) {
        let get = |m: &MetricsAnswer| m.histo(name).map_or((0, 0), |h| (h.count, h.sum_us));
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        let count = c1.saturating_sub(c0);
        let mean = if count == 0 {
            0.0
        } else {
            s1.saturating_sub(s0) as f64 / count as f64
        };
        (count, mean)
    }
}

/// Prints the reconciliation of a client-side median against the sum of
/// per-layer self-time medians and returns `unattributed_us`.
pub fn reconcile(
    report: &mut Report,
    op: &str,
    client_us: f64,
    layers: &std::collections::BTreeMap<&'static str, f64>,
) -> f64 {
    let sum: f64 = layers.values().sum();
    let parts: Vec<String> = layers
        .iter()
        .map(|(name, us)| format!("{name}={us:.1}"))
        .collect();
    let unattributed = client_us - sum;
    report.line(format!(
        "reconcile {op}: client median {client_us:.1} us = layers {sum:.1} us [{}] + unattributed_us {unattributed:.1}",
        parts.join(" ")
    ));
    unattributed
}

/// Prints the tracing overhead of one operation.
pub fn overhead(report: &mut Report, op: &str, untraced: &[f64], traced: &[f64]) -> f64 {
    if untraced.is_empty() || traced.is_empty() {
        report.line(format!("overhead {op}: no samples"));
        return f64::NAN;
    }
    let (u, t) = (median(untraced), median(traced));
    report.line(format!(
        "overhead {op}: traced median {t:.1} us - untraced median {u:.1} us = {:.1} us (n={}/{})",
        t - u,
        traced.len(),
        untraced.len()
    ));
    t - u
}
