//! `ingest-push`: continuous auditing on the topology-A store.
//!
//! 32 subscriptions share one connection; one writer connection sends
//! one-record batches on an open-loop schedule, alternately ingesting
//! and retracting the same NIC record on a seeded server, so the store
//! keeps its size. Each batch is a wave: every subscription with a
//! server in the batch's shard is owed exactly one pushed event.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use indaas_core::AuditSpec;
use indaas_deps::format::{parse_records, serialize_records};
use indaas_deps::{shard_index, ShardedDepDb};
use indaas_obs::TraceContext;
use indaas_service::proto::{decode_line, encode_line};
use indaas_service::{
    names, AuditCache, Client, Envelope, EpochPins, Request, Response, ResponseEnvelope,
    Subscription,
};

use crate::common::{self, Check, Counters, Ctx, Report, Sample};
use crate::daemon::Daemon;
use crate::gen::{self, Digest, Rng};
use crate::sia::{replay_audit, EngineStats};
use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;

const SUBSCRIPTIONS: usize = 32;
/// The open-loop schedule: one wave every this often.
const PERIOD: Duration = Duration::from_millis(50);
/// Waves generated per run; a run sends a prefix of them.
const WAVES: usize = 4000;
/// How long owed events may trail the last acknowledged wave.
const GRACE: Duration = Duration::from_secs(10);

struct Wave {
    /// Table-1 text of the one-record batch.
    text: String,
    retract: bool,
    shard: usize,
}

struct Inputs {
    batches: Vec<String>,
    records: usize,
    subs: Vec<AuditSpec>,
    /// Shards each subscription's servers route to.
    sub_shards: Vec<Vec<usize>>,
    waves: Vec<Wave>,
}

fn inputs(seed: u64, shards: usize, report: &mut Report) -> Inputs {
    let tree = gen::topology_a();
    let (records, batches) = gen::topology_a_batches(&tree, 4096);
    let mut rng = Rng::new(seed, 3);
    let subs: Vec<AuditSpec> = (0..SUBSCRIPTIONS)
        .map(|i| gen::subscription_spec(&tree, &mut rng, i, shards))
        .collect();
    let sub_shards = subs
        .iter()
        .map(|s| {
            s.candidates
                .iter()
                .flat_map(|c| c.servers.iter().map(|h| shard_index(h, shards)))
                .collect()
        })
        .collect();
    let mut wave_rng = Rng::new(seed, 4);
    let mut waves = Vec::with_capacity(WAVES);
    for pair in 0..WAVES / 2 {
        let record = gen::wave_record(&tree, &mut wave_rng, pair, shards);
        let shard = shard_index(record.host(), shards);
        let text = serialize_records(std::slice::from_ref(&record));
        for retract in [false, true] {
            waves.push(Wave {
                text: text.clone(),
                retract,
                shard,
            });
        }
    }
    let mut digest = Digest::new();
    for b in &batches {
        digest.add(b.as_bytes());
    }
    for s in &subs {
        digest.add_spec(s);
    }
    for w in &waves {
        digest.add(w.text.as_bytes());
    }
    report.line(format!(
        "inputs digest={} ({} records, {} subscriptions, {} waves generated, one every {} ms)",
        digest.hex(),
        records.len(),
        subs.len(),
        waves.len(),
        PERIOD.as_millis()
    ));
    Inputs {
        batches,
        records: records.len(),
        subs,
        sub_shards,
        waves,
    }
}

impl Inputs {
    fn affected(&self, wave: usize) -> Vec<usize> {
        let shard = self.waves[wave].shard;
        (0..self.subs.len())
            .filter(|&s| self.sub_shards[s].contains(&shard))
            .collect()
    }
}

struct Setup {
    /// The session the subscriptions ride on; held open, never read.
    _subscriber: Client,
    writer: Client,
    subs: Vec<Subscription>,
}

fn boot(ctx: &Ctx, inputs: &Inputs) -> Result<(Daemon, Setup), String> {
    let (daemon, mut subscriber) = common::boot_loaded(ctx, &inputs.batches, inputs.records)?;
    let mut subs = Vec::with_capacity(inputs.subs.len());
    for spec in &inputs.subs {
        subs.push(
            subscriber
                .subscribe(spec)
                .map_err(|e| format!("subscribe: {e}"))?,
        );
    }
    // Warm-up: every subscription's initial event.
    for (i, sub) in subs.iter_mut().enumerate() {
        sub.recv_timeout(Duration::from_secs(60))
            .map_err(|e| format!("initial event {i}: {e}"))?
            .ok_or_else(|| format!("no initial event for subscription {i}"))?;
    }
    let writer = common::connect(&daemon.addr)?;
    Ok((
        daemon,
        Setup {
            _subscriber: subscriber,
            writer,
            subs,
        },
    ))
}

/// One sent wave, as the writer and acker saw it.
struct Sent {
    wave: usize,
    traced: bool,
    due: Instant,
    sent: Instant,
    acked: Option<(Instant, u64)>,
}

/// Latency samples, each tagged with whether its wave was traced.
type Tagged = Vec<(bool, Sample)>;

/// One pushed event.
struct Event {
    sub: usize,
    epoch: u64,
    at: Instant,
    bytes: usize,
}

/// Drives the open-loop schedule for the `share` of the measuring time
/// (see [`Ctx::running`]): the writer sends each wave when due
/// (pipelined, never waiting for acks), an acker collects the acks in
/// order, and this thread drains the subscriptions.
fn drive(
    inputs: &Inputs,
    setup: &mut Setup,
    (ctx, share): (&Ctx, f64),
    traced: impl Fn(usize) -> bool + Sync,
) -> Result<(Vec<Sent>, Vec<Event>), String> {
    let start = Instant::now() + Duration::from_millis(20);
    let dur = ctx.share(share);
    let writer = &mut setup.writer;
    let subs = &mut setup.subs;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let traced = &traced;
        let sender = s.spawn(move || -> Result<usize, String> {
            for w in 0..inputs.waves.len() {
                let due = start + PERIOD * w as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if !ctx.running(start, dur) {
                    return Ok(w);
                }
                let wave = &inputs.waves[w];
                let request = if wave.retract {
                    Request::Retract {
                        records: wave.text.clone(),
                    }
                } else {
                    Request::Ingest {
                        records: wave.text.clone(),
                    }
                };
                let t = traced(w);
                let sent = Instant::now();
                let pending = writer
                    .begin_traced(&request, t.then(TraceContext::root))
                    .map_err(|e| format!("wave {w}: {e}"))?;
                tx.send((w, t, due, sent, pending))
                    .map_err(|_| "acker gone".to_string())?;
            }
            Ok(inputs.waves.len())
        });
        let acker = s.spawn(move || {
            let mut out = Vec::new();
            for (wave, traced, due, sent, pending) in rx {
                let acked = match pending.wait() {
                    Ok(Response::Ingested { epoch, .. }) => Some((Instant::now(), epoch)),
                    _ => None,
                };
                out.push(Sent {
                    wave,
                    traced,
                    due,
                    sent,
                    acked,
                });
            }
            out
        });
        let mut sender = Some(sender);
        // Pushes owed, known once the writer has sent its last wave.
        let mut owed: Option<usize> = None;
        let mut events = Vec::new();
        let mut last_progress = Instant::now();
        loop {
            let mut got = false;
            for (i, sub) in subs.iter_mut().enumerate() {
                while let Some(e) = sub
                    .recv_timeout(Duration::ZERO)
                    .map_err(|e| format!("subscription {i}: {e}"))?
                {
                    let body = Response::AuditEvent {
                        subscription: e.subscription,
                        epoch: e.epoch,
                        cached: e.cached,
                        elapsed_us: e.elapsed_us,
                        report: e.report,
                        trace_id: e.trace_id,
                    };
                    events.push(Event {
                        sub: i,
                        epoch: e.epoch,
                        at: Instant::now(),
                        bytes: common::frame_bytes(0, &body),
                    });
                    got = true;
                }
            }
            if got {
                last_progress = Instant::now();
            }
            if sender.as_ref().is_some_and(|h| h.is_finished()) {
                let count = sender
                    .take()
                    .expect("checked above")
                    .join()
                    .expect("writer thread panicked")?;
                owed = Some((0..count).map(|w| inputs.affected(w).len()).sum());
                last_progress = Instant::now();
            }
            if let Some(owed) = owed {
                if events.len() >= owed || last_progress.elapsed() > GRACE {
                    break;
                }
            }
            if !got {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let sent = acker.join().expect("acker thread panicked");
        Ok((sent, events))
    })
}

/// Pairs each subscription's events with the waves it was owed, in
/// order, and checks them. Returns push latencies (ms) and, per wave,
/// the time until its last owed event arrived (µs), each tagged with
/// whether the wave was traced.
fn attribute(
    inputs: &Inputs,
    sent: &[Sent],
    events: &[Event],
    report: &mut Report,
    check: &mut Check,
) -> (Tagged, Tagged) {
    let mut per_sub: Vec<Vec<&Event>> = vec![Vec::new(); inputs.subs.len()];
    for e in events {
        per_sub[e.sub].push(e);
    }
    let mut owed: Vec<Vec<&Sent>> = vec![Vec::new(); inputs.subs.len()];
    for s in sent {
        for sub in inputs.affected(s.wave) {
            owed[sub].push(s);
        }
    }
    let mut push = Vec::new();
    let mut complete: BTreeMap<usize, (bool, Sample)> = BTreeMap::new();
    for (sub, waves) in owed.iter().enumerate() {
        let got = &per_sub[sub];
        for (k, s) in waves.iter().enumerate() {
            report.attempted += 1;
            let event = got.get(k);
            let ok = match (event, s.acked) {
                (Some(e), Some((_, epoch))) => e.epoch >= epoch,
                _ => false,
            };
            if check.record(ok, || {
                format!(
                    "subscription {sub}, wave {}: event {:?} vs acked {:?}",
                    s.wave,
                    event.map(|e| e.epoch),
                    s.acked.map(|a| a.1)
                )
            }) {
                let e = event.expect("checked above");
                push.push((s.traced, common::timed(s.sent, e.at, 1e3)));
                let slot = complete
                    .entry(s.wave)
                    .or_insert((s.traced, (s.sent, s.sent, 0.0)));
                if e.at > slot.1 .1 {
                    slot.1 = common::timed(s.sent, e.at, 1e6);
                }
            } else {
                report.failed += 1;
            }
        }
        // Exactly one per owed wave: anything beyond is a duplicate (an
        // unaffected subscription is owed nothing at all).
        let extra = got.len().saturating_sub(waves.len());
        if extra > 0 {
            report.failed += extra as u64;
            check.record(false, || {
                format!("subscription {sub}: {extra} unowed events")
            });
        }
    }
    (push, complete.into_values().collect())
}

fn wave_acks(sent: &[Sent], report: &mut Report, check: &mut Check) -> Tagged {
    let mut acks = Vec::new();
    for s in sent {
        report.attempted += 1;
        if check.record(s.acked.is_some(), || {
            format!("wave {} not acknowledged", s.wave)
        }) {
            let (at, _) = s.acked.expect("checked above");
            acks.push((s.traced, common::timed(s.due, at, 1e6)));
        } else {
            report.failed += 1;
        }
    }
    acks
}

fn lateness(report: &mut Report, sent: &[Sent]) {
    let late: Vec<f64> = sent
        .iter()
        .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    if !late.is_empty() {
        report.line(format!(
            "open-loop generator lateness: median {:.3} ms, max {:.3} ms over {} waves",
            median(&late),
            late.iter().cloned().fold(0.0, f64::max),
            late.len()
        ));
    }
}

/// The values of the samples whose wave was traced, or was not.
fn values(v: &[(bool, Sample)], traced: bool) -> Vec<f64> {
    v.iter()
        .filter(|(t, _)| *t == traced)
        .map(|(_, s)| s.2)
        .collect()
}

fn samples(v: &[(bool, Sample)]) -> Vec<Sample> {
    v.iter().map(|(_, s)| *s).collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let shards = indaas_service::ServeConfig::default().shards;
    let inputs = inputs(ctx.seed, shards, &mut report);
    let (mut daemons, mut setup, setup_s) =
        common::setup(ctx, || boot(ctx, &inputs).map(|(d, s)| (vec![d], s)))?;
    let daemon = daemons.pop().expect("one daemon");
    let daemon_shards = setup
        .writer
        .status()
        .map_err(|e| e.to_string())?
        .shard_epochs
        .len();
    if daemon_shards != shards {
        return Err(format!(
            "daemon runs {daemon_shards} shards, expected {shards}"
        ));
    }
    let mut acks_ok = Check::new("ingest.wave_acknowledged");
    let mut pushes = Check::new("push.one_event_per_affected_wave_epoch_at_least_acked");
    if ctx.trace {
        traced(
            ctx,
            &inputs,
            &daemon,
            &mut setup,
            &mut report,
            &mut acks_ok,
            &mut pushes,
        )?;
    } else {
        let (sent, events) = drive(&inputs, &mut setup, (ctx, 1.0), |_| false)?;
        lateness(&mut report, &sent);
        let acks = samples(&wave_acks(&sent, &mut report, &mut acks_ok));
        let (push, complete) = attribute(&inputs, &sent, &events, &mut report, &mut pushes);
        let complete_ms: Vec<Sample> = samples(&complete)
            .into_iter()
            .map(|(s, e, us)| (s, e, us / 1e3))
            .collect();
        let steal = &ctx.steal;
        report.timing(steal, "wave_complete", "ms", &complete_ms);
        report.e2e("setup_s", setup_s, "s");
        report.e2e_timing(
            steal,
            ("cold_p50_ms", "cold_p90_ms"),
            "ms",
            "push",
            &samples(&push),
        );
        report.e2e_timing(
            steal,
            ("warm_p50_us", "warm_p90_us"),
            "us",
            "ingest_ack",
            &acks,
        );
        let bytes: Vec<f64> = events.iter().map(|e| e.bytes as f64).collect();
        if !bytes.is_empty() {
            report.e2e("wire_bytes_per_op", median(&bytes), "B");
        }
        report.e2e("daemon_rss_mib", daemon.peak_rss_mib()?, "MiB");
    }
    report.checks.extend([acks_ok, pushes]);
    drop(setup);
    daemon.stop()?;
    Ok(report)
}

/// Replays waves through each layer's public functions: the ack path
/// (decode, parse, ingest, cache purge, subscription match, encode)
/// into `ack_t`, and each owed push audit into `push_t`.
struct Replay<'a> {
    inputs: &'a Inputs,
    own: ShardedDepDb,
    cache: AuditCache<Response>,
    pins: Vec<EpochPins>,
    ack_t: Tracer,
    push_t: Tracer,
    affected: Vec<f64>,
    touched: Vec<f64>,
    push_bytes: Vec<f64>,
}

fn hosts(spec: &AuditSpec) -> impl Iterator<Item = &str> {
    spec.candidates
        .iter()
        .flat_map(|c| c.servers.iter().map(String::as_str))
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a Inputs, shards: usize) -> Result<Self, String> {
        let own = ShardedDepDb::new(shards);
        for b in &inputs.batches {
            own.ingest_text(b)
                .map_err(|e| format!("own store: {e:?}"))?;
        }
        let mut r = Replay {
            inputs,
            own,
            cache: AuditCache::new(indaas_service::ServeConfig::default().cache_capacity),
            pins: Vec::new(),
            ack_t: Tracer::new(),
            push_t: Tracer::new(),
            affected: Vec::new(),
            touched: Vec::new(),
            push_bytes: Vec::new(),
        };
        // The subscriptions' initial audits warm the cache, as in the daemon.
        let mut warm_up = Tracer::new();
        for sub in 0..inputs.subs.len() {
            let pins = r.own.snapshot().pins_for_hosts(hosts(&inputs.subs[sub]));
            r.pins.push(pins);
            r.push(&mut warm_up, u64::MAX, sub)?;
        }
        Ok(r)
    }

    fn push(&mut self, t: &mut Tracer, req: u64, sub: usize) -> Result<(), String> {
        let spec = &self.inputs.subs[sub];
        let root = t.open("service.push", req, 0, None);
        let body = replay_audit(
            t,
            (req, root),
            spec,
            &self.own,
            &mut self.cache,
            &mut EngineStats::default(),
        )?;
        let Response::Sia {
            epoch,
            cached,
            elapsed_us,
            report,
        } = body
        else {
            return Err("the cache holds SIA answers only".into());
        };
        let event = Response::AuditEvent {
            subscription: sub as u64 + 1,
            epoch,
            cached,
            elapsed_us,
            report,
            trace_id: None,
        };
        let frame = t.span("codec.response_encode", req, 0, Some(root), || {
            encode_line(&ResponseEnvelope { id: 0, body: event })
        });
        self.push_bytes.push(frame.len() as f64 + 4.0);
        t.span("client.response_decode", req, 0, Some(root), || {
            decode_line::<ResponseEnvelope>(&frame).map_err(|e| e.to_string())
        })?;
        t.close(root);
        Ok(())
    }

    fn wave(&mut self, w: usize) -> Result<(), String> {
        let inputs = self.inputs;
        let wave = &inputs.waves[w];
        let req = w as u64;
        let mut t = std::mem::replace(&mut self.ack_t, Tracer::new());
        let root = t.open("service.ingest", req, 0, None);
        let request = if wave.retract {
            Request::Retract {
                records: wave.text.clone(),
            }
        } else {
            Request::Ingest {
                records: wave.text.clone(),
            }
        };
        let line = t.span("client.request_encode", req, 0, Some(root), || {
            encode_line(&Envelope {
                id: req + 1,
                body: request,
                trace: None,
            })
        });
        let env = t.span("codec.request_decode", req, 0, Some(root), || {
            decode_line::<Envelope>(&line).map_err(|e| e.to_string())
        })?;
        let (Request::Ingest { records: text } | Request::Retract { records: text }) = env.body
        else {
            return Err("decoded a different request than was encoded".into());
        };
        let records = t
            .span("deps.parse", req, 0, Some(root), || parse_records(&text))
            .map_err(|e| format!("parse: {e:?}"))?;
        let own = &self.own;
        let ingest = t.span("deps.ingest", req, 0, Some(root), || {
            if wave.retract {
                own.retract(&records)
            } else {
                own.ingest(records)
            }
        });
        self.touched.push(ingest.touched.len() as f64);
        let epochs = own.epochs();
        let cache = &mut self.cache;
        t.span("cache.purge", req, 0, Some(root), || {
            cache.purge_stale(&epochs)
        });
        let (subs, pins) = (&inputs.subs, &mut self.pins);
        let hit: Vec<usize> = t.span("subs.affected", req, 0, Some(root), || {
            let snap = own.snapshot();
            (0..subs.len())
                .filter(|&s| {
                    let now = snap.pins_for_hosts(hosts(&subs[s]));
                    let moved = now != pins[s];
                    pins[s] = now;
                    moved
                })
                .collect()
        });
        self.affected.push(hit.len() as f64);
        let frame = t.span("codec.response_encode", req, 0, Some(root), || {
            encode_line(&ResponseEnvelope {
                id: req + 1,
                body: Response::Ingested {
                    changed: 1,
                    ignored: 0,
                    epoch: ingest.epoch,
                },
            })
        });
        t.span("client.response_decode", req, 0, Some(root), || {
            decode_line::<ResponseEnvelope>(&frame).map_err(|e| e.to_string())
        })?;
        t.close(root);
        self.ack_t = t;
        let mut pt = std::mem::replace(&mut self.push_t, Tracer::new());
        for sub in hit {
            self.push(&mut pt, req, sub)?;
        }
        self.push_t = pt;
        Ok(())
    }
}

/// Sums per-layer medians of two maps (layers present in both add up).
fn merged(
    a: &BTreeMap<&'static str, f64>,
    b: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut out = a.clone();
    for (k, v) in b {
        *out.entry(k).or_default() += v;
    }
    out
}

/// The traced run: even wave pairs untraced, odd pairs traced (for the
/// overhead), daemon counters around the phase, then the traced waves
/// replayed through the layers.
fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    daemon: &Daemon,
    setup: &mut Setup,
    report: &mut Report,
    acks_ok: &mut Check,
    pushes: &mut Check,
) -> Result<(), String> {
    let before = Counters::snap(&mut setup.writer)?;
    let started = Instant::now();
    let (sent, events) = drive(inputs, setup, (ctx, 0.6), |w| (w / 2) % 2 == 1)?;
    let phase_secs = started.elapsed().as_secs_f64();
    let counters = Counters::new(before, Counters::snap(&mut setup.writer)?);
    let threads = daemon.threads()?;
    lateness(report, &sent);
    let acks = wave_acks(&sent, report, acks_ok);
    let (push, complete) = attribute(inputs, &sent, &events, report, pushes);

    let shards = setup
        .writer
        .status()
        .map_err(|e| e.to_string())?
        .shard_epochs
        .len();
    let mut replay = Replay::new(inputs, shards)?;
    let budget = Instant::now() + ctx.share(0.25);
    // Replay every wave in order (the store must see them all), timing
    // all of them; stop at the budget after a minimum.
    for s in &sent {
        if Instant::now() >= budget && s.wave >= 8 {
            break;
        }
        replay.wave(s.wave)?;
    }
    let ack_layers = replay.ack_t.layer_self_us();
    let push_layers = replay.push_t.layer_self_us();
    let wave_layers = merged(&ack_layers, &push_layers);
    let traced_complete = values(&complete, true);
    let traced_acks = values(&acks, true);
    if traced_complete.is_empty() || traced_acks.is_empty() {
        return Err("the traced waves completed nothing".into());
    }
    let client_wave = median(&traced_complete);
    let client_ack = median(&traced_acks);
    let unattributed = common::reconcile(
        report,
        "ingest wave (send to last owed push)",
        client_wave,
        &wave_layers,
    );
    let warm_unattributed = common::reconcile(report, "ingest ack", client_ack, &ack_layers);
    let to_us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
    let overhead = common::overhead(
        report,
        "push",
        &to_us(values(&push, false)),
        &to_us(values(&push, true)),
    );
    common::overhead(report, "ingest ack", &values(&acks, false), &traced_acks);

    let layer = |name: &str, set: &BTreeMap<&str, f64>| set.get(name).copied().unwrap_or(0.0);
    let (sched_n, sched_wait) = counters.histo(names::SCHED_WAIT_US);
    let owed: usize = sent.iter().map(|s| inputs.affected(s.wave).len()).sum();
    let lock_waits = replay.own.counters().lock_waits;
    for (name, value, unit) in [
        ("cache.purge_us", layer("cache.purge", &ack_layers), "us"),
        ("sched.wait_us", sched_wait, "us"),
        (
            "sched.queue_depth",
            sched_n as f64 / phase_secs * sched_wait / 1e6,
            "jobs",
        ),
        (
            "subs.affected_per_batch",
            median_or_zero(&replay.affected),
            "count",
        ),
        (
            "subs.push_yield",
            events.len() as f64 / owed.max(1) as f64,
            "ratio",
        ),
        (
            "outbox.shed",
            counters.counter(names::OUTBOX_SHED_TOTAL) as f64,
            "count",
        ),
        ("deps.ingest_us", layer("deps.ingest", &ack_layers), "us"),
        (
            "deps.touched_shards",
            median_or_zero(&replay.touched),
            "count",
        ),
        (
            "deps.lock_waits (daemon)",
            counters.gauge_delta(names::DB_LOCK_WAITS) as f64,
            "count",
        ),
        ("deps.lock_waits (replay)", lock_waits as f64, "count"),
        ("unattributed_us", unattributed, "us"),
        ("daemon_threads", threads as f64, "count"),
    ] {
        report.line(format!("layer {name} = {value:.3} {unit}"));
    }
    report.line(format!(
        "daemon sched_wait_us: n={sched_n} push audits over the phase"
    ));
    let engine: f64 = ["sia.graph_build", "sia.rg_minimal", "sia.ranking"]
        .iter()
        .map(|n| layer(n, &push_layers))
        .sum();
    report.layer("client.e2e_us", client_wave, "us");
    report.layer("layers.self_sum_us", wave_layers.values().sum(), "us");
    report.layer("unattributed_us", unattributed, "us");
    report.layer("trace.overhead_us", overhead, "us");
    report.layer("warm.e2e_us", client_ack, "us");
    report.layer("warm.unattributed_us", warm_unattributed, "us");
    report.layer(
        "codec.request_decode_us",
        layer("codec.request_decode", &ack_layers),
        "us",
    );
    // Per pushed event, not per wave.
    let per_push = |name: &str| replay.push_t.median_us(name).unwrap_or(0.0);
    report.layer(
        "codec.response_encode_us",
        per_push("codec.response_encode"),
        "us",
    );
    report.layer(
        "codec.response_bytes",
        median_or_zero(&replay.push_bytes),
        "B",
    );
    report.layer(
        "client.response_decode_us",
        per_push("client.response_decode"),
        "us",
    );
    report.layer("cache.key_us", per_push("cache.key"), "us");
    report.layer("deps.snapshot_us", per_push("deps.snapshot"), "us");
    report.layer("engine.self_us", engine, "us");
    report.layer("daemon_threads", threads as f64, "count");
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    Tracer::write_all(&path, &[("ack", &replay.ack_t), ("push", &replay.push_t)])
        .map_err(|e| e.to_string())?;
    report.line(format!("spans written to {}", path.display()));
    Ok(())
}
