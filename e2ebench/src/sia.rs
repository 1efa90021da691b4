//! `sia-audit`: SIA over the full topology-A database, miss then hit.
//!
//! Miss phase: a closed loop on one connection, every request a fresh
//! seeded spec (three in four minimal-RG, one in four failure sampling).
//! Hit phase: a closed loop on a second connection replaying the miss
//! phase's specs; every reply must come from the cache. The two phases
//! alternate in short segments over the whole run.

use std::collections::BTreeMap;
use std::time::Instant;

use indaas_core::{AuditSpec, AuditingAgent, RankingMetric, RgAlgorithm};
use indaas_deps::{DbSnapshot, DependencyRecord, ShardedDepDb};
use indaas_obs::TraceContext;
use indaas_service::proto::{decode_line, encode_line};
use indaas_service::{
    job_key, names, AuditCache, Client, Envelope, Request, Response, ResponseEnvelope,
};
use indaas_sia::{
    build_fault_graph, failure_sampling, minimal_risk_groups, AuditReport, BuildSpec,
    DeploymentAudit, MinimalConfig, SamplingConfig,
};

use crate::common::{self, Check, Counters, Ctx, Report, Sample};
use crate::daemon::Daemon;
use crate::gen::{self, Digest, MissKind, Rng};
use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;

/// Records per set-up ingest batch.
const LOAD_BATCH: usize = 4096;
/// Specs generated per run; a run sends a prefix of them.
const SPECS: usize = 3000;
const TIMEOUT_MS: u64 = 120_000;

/// One answered miss.
struct Miss {
    spec: usize,
    start: Instant,
    end: Instant,
    sent: AuditSpec,
    traced: bool,
    kind: MissKind,
    ms: f64,
    report_json: String,
    /// [`report_digest`] of the answer, for checking hits cheaply.
    digest: u64,
    bytes: usize,
}

/// A digest of every field an audit report's JSON carries: two reports
/// with the same digest serialize to the same bytes. Cheaper than
/// serializing, so checking each hit barely loads the client.
fn report_digest(report: &AuditReport) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for d in &report.deployments {
        d.name.hash(&mut h);
        for rg in &d.ranked_rgs {
            rg.events.hash(&mut h);
            rg.size.hash(&mut h);
            rg.probability.map(f64::to_bits).hash(&mut h);
            rg.importance.map(f64::to_bits).hash(&mut h);
        }
        d.independence_score.to_bits().hash(&mut h);
        (d.score_kind as u8).hash(&mut h);
        d.unexpected_rgs.hash(&mut h);
        d.failure_probability.map(f64::to_bits).hash(&mut h);
    }
    h.finish()
}

struct Inputs {
    records: Vec<DependencyRecord>,
    batches: Vec<String>,
    warm_spec: AuditSpec,
    specs: Vec<(MissKind, AuditSpec)>,
}

fn inputs(seed: u64, report: &mut Report) -> Inputs {
    let tree = gen::topology_a();
    let (records, batches) = gen::topology_a_batches(&tree, LOAD_BATCH);
    let mut rng = Rng::new(seed, 1);
    let (_, warm_spec) = gen::miss_spec(&tree, &mut Rng::new(seed, 2), usize::MAX);
    let specs: Vec<_> = (0..SPECS)
        .map(|i| gen::miss_spec(&tree, &mut rng, i))
        .collect();
    let mut digest = Digest::new();
    for b in &batches {
        digest.add(b.as_bytes());
    }
    digest.add_spec(&warm_spec);
    for (_, s) in &specs {
        digest.add_spec(s);
    }
    report.line(format!(
        "inputs digest={} ({} records in {} batches, {} specs generated)",
        digest.hex(),
        records.len(),
        batches.len(),
        specs.len()
    ));
    Inputs {
        records,
        batches,
        warm_spec,
        specs,
    }
}

fn audit(
    client: &mut Client,
    spec: &AuditSpec,
    trace: bool,
) -> Result<(Instant, Instant, Response, u64), String> {
    let ctx = trace.then(TraceContext::root);
    let started = Instant::now();
    let pending = client
        .begin_traced(
            &Request::AuditSia {
                spec: spec.clone(),
                timeout_ms: Some(TIMEOUT_MS),
            },
            ctx,
        )
        .map_err(|e| e.to_string())?;
    let id = pending.id();
    let response = pending.wait().map_err(|e| e.to_string())?;
    Ok((started, Instant::now(), response, id))
}

/// The same audit under fresh candidate names: identical work, a
/// different cache key. The traced run sends each spec both ways.
fn renamed(spec: &AuditSpec) -> AuditSpec {
    let mut spec = spec.clone();
    for c in &mut spec.candidates {
        c.name.push_str("~t");
    }
    spec
}

/// The miss phase: a closed loop on one connection over `jobs`
/// (`(spec index, traced)`) for the `share` of the measuring time (see
/// [`Ctx::running`]); the jobs it did not reach stay in the iterator. A
/// traced job sends its spec renamed, with a trace context. Every
/// answer must be fresh.
fn miss_phase(
    client: &mut Client,
    inputs: &Inputs,
    jobs: &mut impl Iterator<Item = (usize, bool)>,
    (ctx, share): (&Ctx, f64),
    report: &mut Report,
    fresh: &mut Check,
) -> Vec<Miss> {
    let (start, dur) = (Instant::now(), ctx.share(share));
    let mut out = Vec::new();
    while ctx.running(start, dur) {
        let Some((i, traced)) = jobs.next() else {
            break;
        };
        let (kind, spec) = &inputs.specs[i];
        let sent = if traced { renamed(spec) } else { spec.clone() };
        report.attempted += 1;
        match audit(client, &sent, traced) {
            Ok((start, end, response, id)) => {
                let bytes = common::frame_bytes(id, &response);
                match response {
                    Response::Sia {
                        cached, report: r, ..
                    } => {
                        if fresh.record(!cached, || format!("spec {i} answered from cache")) {
                            out.push(Miss {
                                spec: i,
                                sent,
                                traced,
                                kind: *kind,
                                start,
                                end,
                                ms: end.duration_since(start).as_secs_f64() * 1e3,
                                report_json: serde_json::to_string(&r).expect("reports serialize"),
                                digest: report_digest(&r),
                                bytes,
                            });
                        } else {
                            report.failed += 1;
                        }
                    }
                    other => {
                        report.failed += 1;
                        report.line(format!("error: spec {i}: {other:?}"));
                    }
                }
            }
            Err(e) => {
                report.failed += 1;
                report.line(format!("error: spec {i}: {e}"));
            }
        }
    }
    out
}

/// One hit: whether it carried a trace context, and its µs sample.
type Hit = (bool, Sample);

/// The hit phase: a closed loop on one connection replaying `misses`
/// for the `share` of the measuring time, from the `next`-th on (and
/// round again), advancing `next`. Each hit carries a trace context
/// iff its miss did, and must be `cached` and identical to its miss.
fn hit_phase(
    client: &mut Client,
    misses: &[Miss],
    next: &mut usize,
    (ctx, share): (&Ctx, f64),
    report: &mut Report,
    check: &mut Check,
) -> Result<Vec<Hit>, String> {
    if misses.is_empty() {
        return Err("no misses to replay".into());
    }
    let (start, dur) = (Instant::now(), ctx.share(share));
    let mut lat = Vec::new();
    while ctx.running(start, dur) {
        let m = &misses[*next % misses.len()];
        *next += 1;
        report.attempted += 1;
        match audit(client, &m.sent, m.traced) {
            Ok((
                start,
                end,
                Response::Sia {
                    cached, report: r, ..
                },
                _,
            )) => {
                lat.push((m.traced, common::timed(start, end, 1e6)));
                let same = report_digest(&r) == m.digest;
                if !check.record(cached && same, || {
                    format!("spec {}: cached={cached} identical={same}", m.spec)
                }) {
                    report.failed += 1;
                }
            }
            Ok((_, _, other, _)) => {
                report.failed += 1;
                report.line(format!("error: hit of spec {}: {other:?}", m.spec));
            }
            Err(e) => {
                report.failed += 1;
                report.line(format!("error: hit of spec {}: {e}", m.spec));
            }
        }
    }
    Ok(lat)
}

/// Segments the untraced run is cut into. Each runs the miss phase for
/// its share of the misses' time, then the hit phase over every miss so
/// far for its share of the hits', so both are sampled across the whole
/// run and a slow spell of the host lands on both alike.
const SEGMENTS: u32 = 24;

/// Alternates miss and hit phases over [`SEGMENTS`] segments, on
/// `client` and on a second connection of its own for the hits.
fn drive(
    client: &mut Client,
    addr: &str,
    inputs: &Inputs,
    (ctx, miss_share, hit_share): (&Ctx, f64, f64),
    report: &mut Report,
    [fresh, hits]: [&mut Check; 2],
) -> Result<(Vec<Miss>, Vec<Hit>), String> {
    let mut hit_client = common::connect(addr)?;
    hit_client.ping().map_err(|e| e.to_string())?;
    let mut jobs = (0..SPECS).map(|i| (i, false));
    let segments = f64::from(SEGMENTS);
    let (mut misses, mut hit_us, mut next) = (Vec::new(), Vec::new(), 0);
    for _ in 0..SEGMENTS {
        let share = miss_share / segments;
        misses.extend(miss_phase(
            client,
            inputs,
            &mut jobs,
            (ctx, share),
            report,
            fresh,
        ));
        let share = hit_share / segments;
        hit_us.extend(hit_phase(
            &mut hit_client,
            &misses,
            &mut next,
            (ctx, share),
            report,
            hits,
        )?);
    }
    Ok((misses, hit_us))
}

/// Checks every miss against the library run on the benchmark's own
/// store of the same records. Runs after the timed phases, on two
/// threads (the daemon is idle by then).
fn oracle(snapshot: &DbSnapshot, misses: &[Miss], report: &mut Report, check: &mut Check) {
    let verdicts: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = misses
            .chunks(misses.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let agent = AuditingAgent::from_snapshot(snapshot.clone());
                    chunk
                        .iter()
                        .map(|m| {
                            agent.audit_sia(&m.sent).is_ok_and(|r| {
                                serde_json::to_string(&r).is_ok_and(|e| e == m.report_json)
                            })
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for (m, ok) in misses.iter().zip(verdicts.into_iter().flatten()) {
        if !check.record(ok, || {
            format!("spec {} differs from the library's report", m.spec)
        }) {
            report.failed += 1;
        }
    }
}

fn boot(ctx: &Ctx, inputs: &Inputs) -> Result<(Daemon, Client), String> {
    let (daemon, mut client) = common::boot_loaded(ctx, &inputs.batches, inputs.records.len())?;
    // Warm-up: one audit outside the measured specs.
    audit(&mut client, &inputs.warm_spec, false)?;
    Ok((daemon, client))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = inputs(ctx.seed, &mut report);
    let (mut daemons, mut client, setup_s) = {
        let (d, c, s) = common::setup(ctx, || boot(ctx, &inputs).map(|(d, c)| (vec![d], c)))?;
        (d, c, s)
    };
    let daemon = daemons.pop().expect("one daemon");
    let shards = client
        .status()
        .map_err(|e| e.to_string())?
        .shard_epochs
        .len();
    let own = ShardedDepDb::new(shards);
    own.ingest(inputs.records.iter().cloned());
    let snapshot = own.snapshot();
    let mut fresh = Check::new("sia.miss_not_cached");
    let mut same = Check::new("sia.miss_equals_library");
    let mut hits = Check::new("sia.hit_cached_and_identical");

    if ctx.trace {
        traced(
            ctx,
            &inputs,
            &daemon,
            &mut client,
            &own,
            &snapshot,
            &mut report,
            [&mut fresh, &mut same, &mut hits],
        )?;
    } else {
        let (misses, hits_us) = drive(
            &mut client,
            &daemon.addr,
            &inputs,
            (ctx, 0.7, 0.3),
            &mut report,
            [&mut fresh, &mut hits],
        )?;
        let hit_us: Vec<Sample> = hits_us.into_iter().map(|(_, s)| s).collect();
        oracle(&snapshot, &misses, &mut report, &mut same);
        let of = |k: Option<MissKind>| -> Vec<Sample> {
            misses
                .iter()
                .filter(|m| k.is_none_or(|k| m.kind == k))
                .map(|m| (m.start, m.end, m.ms))
                .collect()
        };
        let steal = &ctx.steal;
        report.timing(steal, "sia_minimal", "ms", &of(Some(MissKind::Minimal)));
        report.timing(steal, "sia_sampling", "ms", &of(Some(MissKind::Sampling)));
        let all = of(None);
        let hit_secs: f64 = hit_us.iter().map(|h| h.2).sum::<f64>() / 1e6;
        report.line(format!(
            "metric sia_hit_per_s = {:.1} audits/s (per second of request time, 1 connection)",
            hit_us.len() as f64 / hit_secs.max(f64::MIN_POSITIVE)
        ));
        report.e2e("setup_s", setup_s, "s");
        report.e2e_timing(
            steal,
            ("cold_p50_ms", "cold_p90_ms"),
            "ms",
            "sia_miss",
            &all,
        );
        report.e2e_timing(
            steal,
            ("warm_p50_us", "warm_p90_us"),
            "us",
            "sia_hit",
            &hit_us,
        );
        let bytes: Vec<f64> = misses.iter().map(|m| m.bytes as f64).collect();
        if !bytes.is_empty() {
            report.e2e("wire_bytes_per_op", median(&bytes), "B");
        }
        report.e2e("daemon_rss_mib", daemon.peak_rss_mib()?, "MiB");
    }
    report.checks.extend([fresh, same, hits]);
    drop(client);
    daemon.stop()?;
    Ok(report)
}

/// Engine counts gathered while replaying.
#[derive(Default)]
pub struct EngineStats {
    pub basic: Vec<f64>,
    pub groups: Vec<f64>,
    pub yields: Vec<f64>,
}

/// The daemon's SIA audit path from the store on, span by span under
/// `root`: snapshot and pins, cache key and lookup, and on a miss, per
/// candidate, the fault-graph build, the RG engine and the ranking, then
/// the cache insert. Returns the `Sia` answer.
pub fn replay_audit(
    t: &mut Tracer,
    (req, root): (u64, usize),
    spec: &AuditSpec,
    own: &ShardedDepDb,
    cache: &mut AuditCache<Response>,
    stats: &mut EngineStats,
) -> Result<Response, String> {
    let (snap, pins) = t.span("deps.snapshot", req, 0, Some(root), || {
        let snap = own.snapshot();
        let hosts = spec
            .candidates
            .iter()
            .flat_map(|c| c.servers.iter().map(String::as_str));
        let pins = snap.pins_for_hosts(hosts);
        (snap, pins)
    });
    let key = t.span("cache.key", req, 0, Some(root), || {
        job_key(&pins, "sia", spec)
    });
    if let Some(body) = t.span("cache.lookup", req, 0, Some(root), || cache.get(&key)) {
        return Ok(body);
    }
    let RankingMetric::Size = spec.metric else {
        return Err("the workloads rank by size only".into());
    };
    let mut audits = Vec::new();
    for cand in &spec.candidates {
        let build = BuildSpec {
            name: cand.name.clone(),
            servers: cand.servers.clone(),
            needed_alive: cand.needed_alive,
            network: spec.network,
            hardware: spec.hardware,
            software: spec.software,
            prob_model: spec.prob_model.clone(),
        };
        let graph = t
            .span("sia.graph_build", req, 0, Some(root), || {
                build_fault_graph(&snap, &build)
            })
            .map_err(|e| format!("graph build: {e:?}"))?;
        stats.basic.push(graph.num_basic() as f64);
        let family = match spec.algorithm {
            RgAlgorithm::Minimal { max_order } => {
                let config = MinimalConfig {
                    max_order,
                    ..MinimalConfig::default()
                };
                let f = t.span("sia.rg_minimal", req, 0, Some(root), || {
                    minimal_risk_groups(&graph, &config)
                });
                stats.groups.push(f.len() as f64);
                f
            }
            RgAlgorithm::Sampling {
                rounds,
                fail_prob,
                seed,
                threads,
            } => {
                let config = SamplingConfig {
                    rounds,
                    fail_prob,
                    seed,
                    threads,
                    minimize: true,
                    weighted: false,
                };
                let f = t.span("sia.rg_sampling", req, 0, Some(root), || {
                    failure_sampling(&graph, &config)
                });
                stats.yields.push(f.len() as f64 / rounds as f64);
                f
            }
            RgAlgorithm::Bdd { .. } => return Err("the workloads send no BDD specs".into()),
        };
        audits.push(t.span("sia.ranking", req, 0, Some(root), || {
            DeploymentAudit::size_based(
                cand.name.clone(),
                &family,
                &graph,
                cand.servers.len(),
                spec.top_n,
            )
        }));
    }
    let body = Response::Sia {
        epoch: own.epoch(),
        cached: false,
        elapsed_us: 0,
        report: AuditReport::new(audits),
    };
    t.span("cache.insert", req, 0, Some(root), || {
        cache.insert(key, pins, body.clone())
    });
    Ok(body)
}

/// Replays one `AuditSia` request, from the client's encode to its
/// decode of the answer, into `t` under request id `req`. With `cache`
/// warm for the spec this is the hit path; otherwise the miss path,
/// which fills the cache. Returns the response frame size.
fn replay(
    t: &mut Tracer,
    req: u64,
    spec: &AuditSpec,
    own: &ShardedDepDb,
    cache: &mut AuditCache<Response>,
    stats: &mut EngineStats,
) -> Result<usize, String> {
    let root = t.open("service.request", req, 0, None);
    let line = t.span("client.request_encode", req, 0, Some(root), || {
        encode_line(&Envelope {
            id: req + 1,
            body: Request::AuditSia {
                spec: spec.clone(),
                timeout_ms: Some(TIMEOUT_MS),
            },
            trace: None,
        })
    });
    let env = t.span("codec.request_decode", req, 0, Some(root), || {
        decode_line::<Envelope>(&line).map_err(|e| e.to_string())
    })?;
    let Request::AuditSia { spec, .. } = env.body else {
        return Err("decoded a different request than was encoded".into());
    };
    let body = replay_audit(t, (req, root), &spec, own, cache, stats)?;
    let frame = t.span("codec.response_encode", req, 0, Some(root), || {
        encode_line(&ResponseEnvelope { id: req + 1, body })
    });
    t.span("client.response_decode", req, 0, Some(root), || {
        decode_line::<ResponseEnvelope>(&frame).map_err(|e| e.to_string())
    })?;
    t.close(root);
    Ok(frame.len() + 4)
}

/// The traced run. Each spec goes out twice, back to back: as itself
/// without a trace context, then renamed (identical work, fresh cache
/// key) with one, so the medians of the two give the tracing overhead.
/// Daemon counters are read around the phases; then the traced phase's
/// specs are replayed through each layer's public functions.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    daemon: &Daemon,
    client: &mut Client,
    own: &ShardedDepDb,
    snapshot: &DbSnapshot,
    report: &mut Report,
    [fresh, same, hits]: [&mut Check; 3],
) -> Result<(), String> {
    let before = Counters::snap(client)?;
    let started = Instant::now();
    let mut jobs = (0..SPECS).flat_map(|i| [(i, false), (i, true)]);
    let misses = miss_phase(client, inputs, &mut jobs, (ctx, 0.5), report, fresh);
    let miss_secs = started.elapsed().as_secs_f64();
    let miss_counters = Counters::new(before, Counters::snap(client)?);
    let before = Counters::snap(client)?;
    let mut hit_client = common::connect(&daemon.addr)?;
    let hit_us = hit_phase(&mut hit_client, &misses, &mut 0, (ctx, 0.2), report, hits)?;
    drop(hit_client);
    let hit_counters = Counters::new(before, Counters::snap(client)?);
    let threads = daemon.threads()?;
    oracle(snapshot, &misses, report, same);

    // Replay the traced phase's specs through the layers, one tracer per
    // request class.
    let budget = Instant::now() + ctx.share(0.25);
    let mut minimal_t = Tracer::new();
    let mut sampling_t = Tracer::new();
    let mut hit_t = Tracer::new();
    let mut cache = AuditCache::<Response>::new(4096);
    let mut bytes = Vec::new();
    let mut stats = EngineStats::default();
    for (r, m) in misses.iter().filter(|m| m.traced).enumerate() {
        if Instant::now() >= budget && r >= 8 {
            break;
        }
        let t = match m.kind {
            MissKind::Minimal => &mut minimal_t,
            MissKind::Sampling => &mut sampling_t,
        };
        bytes.push(replay(t, r as u64, &m.sent, own, &mut cache, &mut stats)? as f64);
        replay(&mut hit_t, r as u64, &m.sent, own, &mut cache, &mut stats)?;
    }

    let class = |traced: bool, kind: MissKind| -> Vec<f64> {
        misses
            .iter()
            .filter(|m| m.traced == traced && m.kind == kind)
            .map(|m| m.ms * 1e3)
            .collect()
    };
    let split = |traced: bool| -> Vec<f64> {
        hit_us
            .iter()
            .filter(|h| h.0 == traced)
            .map(|h| h.1 .2)
            .collect::<Vec<f64>>()
    };
    let traced_min = class(true, MissKind::Minimal);
    let traced_hits = split(true);
    if traced_min.is_empty() || traced_hits.is_empty() {
        return Err("the traced phases answered nothing".into());
    }
    let minimal_layers = minimal_t.layer_self_us();
    let sampling_layers = sampling_t.layer_self_us();
    let hit_layers = hit_t.layer_self_us();
    let client_miss = median(&traced_min);
    let client_hit = median(&traced_hits);
    let unattributed = common::reconcile(report, "sia minimal miss", client_miss, &minimal_layers);
    let traced_sampling = class(true, MissKind::Sampling);
    if !traced_sampling.is_empty() && !sampling_layers.is_empty() {
        common::reconcile(
            report,
            "sia sampling miss",
            median(&traced_sampling),
            &sampling_layers,
        );
    }
    let warm_unattributed = common::reconcile(report, "sia hit", client_hit, &hit_layers);
    let overhead = common::overhead(
        report,
        "sia minimal miss",
        &class(false, MissKind::Minimal),
        &traced_min,
    );
    common::overhead(
        report,
        "sia sampling miss",
        &class(false, MissKind::Sampling),
        &traced_sampling,
    );
    common::overhead(report, "sia hit", &split(false), &traced_hits);

    let layer = |name: &str, set: &BTreeMap<&str, f64>| set.get(name).copied().unwrap_or(0.0);
    let (sched_n, sched_wait) = miss_counters.histo(names::SCHED_WAIT_US);
    let hit_ratio = |c: &Counters| {
        let h = c.gauge_delta(names::CACHE_SIA_HITS) as f64;
        let m = c.gauge_delta(names::CACHE_SIA_MISSES) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    };
    // Little's law: mean jobs waiting = arrival rate × mean wait.
    let queue_depth = sched_n as f64 / miss_secs * sched_wait / 1e6;
    let sampling_us = layer("sia.rg_sampling", &sampling_layers);
    for (name, value, unit) in [
        (
            "codec.request_decode_us",
            layer("codec.request_decode", &hit_layers),
            "us",
        ),
        (
            "codec.response_encode_us",
            layer("codec.response_encode", &hit_layers),
            "us",
        ),
        ("codec.response_bytes", median_or_zero(&bytes), "B"),
        (
            "client.response_decode_us",
            layer("client.response_decode", &hit_layers),
            "us",
        ),
        ("cache.key_us", layer("cache.key", &hit_layers), "us"),
        (
            "cache.hit_ratio (miss phase)",
            hit_ratio(&miss_counters),
            "ratio",
        ),
        (
            "cache.hit_ratio (hit phase)",
            hit_ratio(&hit_counters),
            "ratio",
        ),
        ("sched.wait_us", sched_wait, "us"),
        ("sched.queue_depth", queue_depth, "jobs"),
        (
            "deps.snapshot_us",
            layer("deps.snapshot", &minimal_layers),
            "us",
        ),
        (
            "sia.graph_build_us",
            layer("sia.graph_build", &minimal_layers),
            "us",
        ),
        (
            "sia.graph_basic_events",
            median_or_zero(&stats.basic),
            "count",
        ),
        (
            "sia.rg_minimal_us",
            layer("sia.rg_minimal", &minimal_layers),
            "us",
        ),
        (
            "sia.rg_minimal_groups",
            median_or_zero(&stats.groups),
            "count",
        ),
        ("sia.rg_sampling_us", sampling_us, "us"),
        (
            "sia.sampling_us_per_round",
            sampling_us / gen::SAMPLING_ROUNDS as f64,
            "us",
        ),
        (
            "sia.sampling_yield",
            median_or_zero(&stats.yields),
            "RGs/round",
        ),
        (
            "sia.ranking_us",
            layer("sia.ranking", &minimal_layers),
            "us",
        ),
        ("unattributed_us", unattributed, "us"),
        ("daemon_threads", threads as f64, "count"),
    ] {
        report.line(format!("layer {name} = {value:.3} {unit}"));
    }
    report.line(format!(
        "daemon sched_wait_us: n={sched_n} jobs over the miss phase"
    ));
    let engine: f64 = ["sia.graph_build", "sia.rg_minimal", "sia.ranking"]
        .iter()
        .map(|n| layer(n, &minimal_layers))
        .sum();
    report.layer("client.e2e_us", client_miss, "us");
    report.layer("layers.self_sum_us", minimal_layers.values().sum(), "us");
    report.layer("unattributed_us", unattributed, "us");
    report.layer("trace.overhead_us", overhead, "us");
    report.layer("warm.e2e_us", client_hit, "us");
    report.layer("warm.unattributed_us", warm_unattributed, "us");
    report.layer(
        "codec.request_decode_us",
        layer("codec.request_decode", &hit_layers),
        "us",
    );
    report.layer(
        "codec.response_encode_us",
        layer("codec.response_encode", &hit_layers),
        "us",
    );
    report.layer("codec.response_bytes", median_or_zero(&bytes), "B");
    report.layer(
        "client.response_decode_us",
        layer("client.response_decode", &hit_layers),
        "us",
    );
    report.layer("cache.key_us", layer("cache.key", &hit_layers), "us");
    report.layer(
        "deps.snapshot_us",
        layer("deps.snapshot", &minimal_layers),
        "us",
    );
    report.layer("engine.self_us", engine, "us");
    report.layer("daemon_threads", threads as f64, "count");
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    Tracer::write_all(
        &path,
        &[
            ("minimal", &minimal_t),
            ("sampling", &sampling_t),
            ("hit", &hit_t),
        ],
    )
    .map_err(|e| e.to_string())?;
    report.line(format!("spans written to {}", path.display()));
    Ok(())
}
