//! `psop-ring`: federated P-SOP between two `indaas serve` daemons.
//!
//! Each daemon holds one provider's records (32 normalized components,
//! 10 shared). Rounds run back to back, each with a fresh P-SOP seed,
//! for nine tenths of the time; for the other tenth, a closed loop on
//! one connection sends `AuditPia` over the same two sets, answered
//! from the daemon's PIA cache: the workload's cheap operation. The two
//! alternate in short segments over the whole run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use indaas_bigint::{BigUint, Montgomery};
use indaas_crypto::{CommutativeCipher, MODP_1024_HEX};
use indaas_deps::format::serialize_records;
use indaas_deps::ShardedDepDb;
use indaas_federation::{provider_component_set, FederationCoordinator};
use indaas_obs::TraceContext;
use indaas_pia::normalize::normalize_set;
use indaas_pia::{count_final_lists, PiaRanking, PsopConfig, PsopParty};
use indaas_service::proto::{decode_line, decode_payload, encode_line, encode_payload};
use indaas_service::{
    job_key, names, AuditCache, Client, Envelope, Request, Response, ResponseEnvelope,
};
use rand::SeedableRng;

use crate::common::{self, Check, Counters, Ctx, Report, Sample};
use crate::daemon::Daemon;
use crate::gen::{self, Digest, Rng};
use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;

const PARTIES: usize = 2;
/// Rounds generated per run; a run sends a prefix of them.
const ROUNDS: usize = 2000;
const ROUND_TIMEOUT_MS: u64 = 10_000;

struct Inputs {
    /// Per provider: its Table-1 records as text.
    texts: Vec<String>,
    records: Vec<usize>,
    /// Per provider: the normalized component set.
    sets: Vec<Vec<String>>,
    intersection: usize,
    union: usize,
    warm_seed: u64,
    seeds: Vec<u64>,
    pia: Request,
}

fn inputs(seed: u64, report: &mut Report) -> Inputs {
    let mut texts = Vec::new();
    let mut records = Vec::new();
    let mut sets = Vec::new();
    for p in 0..PARTIES {
        let (recs, raw) = gen::provider_records(seed, p);
        texts.push(serialize_records(&recs));
        records.push(recs.len());
        sets.push(normalize_set(raw.iter().map(String::as_str)));
    }
    let intersection = sets[0].iter().filter(|c| sets[1].contains(c)).count();
    let union = sets[0].len() + sets[1].len() - intersection;
    let mut rng = Rng::new(seed, 5);
    let warm_seed = rng.next_u64();
    let seeds: Vec<u64> = (0..ROUNDS).map(|_| rng.next_u64()).collect();
    let pia = Request::AuditPia {
        providers: sets
            .iter()
            .enumerate()
            .map(|(p, s)| (format!("provider{p}"), s.clone()))
            .collect(),
        way: PARTIES,
        minhash: None,
        timeout_ms: Some(60_000),
    };
    let mut digest = Digest::new();
    for t in &texts {
        digest.add(t.as_bytes());
    }
    digest.add(&warm_seed.to_le_bytes());
    for s in &seeds {
        digest.add(&s.to_le_bytes());
    }
    digest.add(encode_line(&pia).as_bytes());
    report.line(format!(
        "inputs digest={} ({} providers of {:?} components, {} shared; {} round seeds generated)",
        digest.hex(),
        PARTIES,
        sets.iter().map(Vec::len).collect::<Vec<_>>(),
        intersection,
        seeds.len()
    ));
    Inputs {
        texts,
        records,
        sets,
        intersection,
        union,
        warm_seed,
        seeds,
        pia,
    }
}

/// One round's result as the benchmark checks it.
struct Round {
    /// Driven by the (always tracing) federation coordinator.
    traced: bool,
    /// When the round started and ended, and its length in ms.
    sample: Sample,
    intersection: usize,
    union: usize,
    degraded: bool,
    /// Bytes the parties put on the ring, framing included.
    wire_bytes: u64,
    /// Protocol payload of those ring messages (the final lists' hop to
    /// the agent excluded).
    ring_payload_bytes: u64,
}

/// One party's `FederateDone`, as the round needs it.
struct PartyDone {
    /// The fully encrypted list for the agent.
    payload: Vec<u8>,
    sent_bytes: u64,
    wire_sent_bytes: u64,
}

/// A round driven straight through `Client`, with no trace context:
/// one `FederateStart` per daemon, concurrently, then the agent's
/// counting step over the returned lists.
fn round_untraced(addrs: &[String], seed: u64, session: u64) -> Result<Round, String> {
    let started = Instant::now();
    let answers: Vec<Result<PartyDone, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..addrs.len())
            .map(|i| {
                s.spawn(move || {
                    let mut client = common::connect(&addrs[i])?;
                    let request = Request::FederateStart {
                        session,
                        index: i as u32,
                        parties: addrs.len() as u32,
                        successor: addrs[(i + 1) % addrs.len()].clone(),
                        seed,
                        multiset: PsopConfig::default().multiset,
                        round_timeout_ms: Some(ROUND_TIMEOUT_MS),
                    };
                    match client
                        .request_traced(&request, None)
                        .map_err(|e| format!("party {i}: {e}"))?
                    {
                        Response::FederateDone {
                            payload,
                            sent_bytes,
                            wire_sent_bytes,
                            ..
                        } => Ok(PartyDone {
                            payload: decode_payload(&payload)?,
                            sent_bytes,
                            wire_sent_bytes,
                        }),
                        other => Err(format!("party {i} answered {other:?}")),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });
    let answers: Vec<PartyDone> = answers.into_iter().collect::<Result<_, _>>()?;
    let (intersection, union) =
        count_final_lists(answers.iter().map(|a| a.payload.as_slice()), addrs.len());
    Ok(Round {
        traced: false,
        sample: common::timed(started, Instant::now(), 1e3),
        intersection,
        union,
        degraded: false,
        wire_bytes: answers.iter().map(|a| a.wire_sent_bytes).sum(),
        ring_payload_bytes: answers
            .iter()
            .map(|a| a.sent_bytes - a.payload.len() as u64)
            .sum(),
    })
}

/// A round through the federation coordinator, which stamps every
/// party's request with a trace context.
fn round_coordinator(addrs: &[String], seed: u64) -> Result<Round, String> {
    let started = Instant::now();
    let outcome = FederationCoordinator::new(addrs.iter().cloned())
        .with_config(PsopConfig {
            seed,
            ..PsopConfig::default()
        })
        .with_round_timeout(Duration::from_millis(ROUND_TIMEOUT_MS))
        .run()
        .map_err(|e| e.to_string())?;
    let sample = common::timed(started, Instant::now(), 1e3);
    let degraded = outcome.degraded();
    let psop = outcome.psop.as_ref();
    Ok(Round {
        traced: true,
        sample,
        intersection: psop.map_or(0, |p| p.intersection),
        union: psop.map_or(0, |p| p.union),
        degraded,
        wire_bytes: outcome.party_wire_bytes.iter().sum(),
        ring_payload_bytes: psop.map_or(0, |p| {
            (0..PARTIES).map(|i| p.traffic.sent_bytes(i)).sum::<u64>()
                - p.traffic.recv_bytes(PARTIES)
        }),
    })
}

fn session_of(seed: u64, round: usize) -> u64 {
    Rng::new(seed, (round as u64).wrapping_add(6)).next_u64()
}

/// One `AuditPia` answer: traced?, µs, and what it said.
struct Warm {
    traced: bool,
    /// When the request started and ended, and its latency in µs.
    sample: Sample,
    cached: bool,
    rankings: Vec<PiaRanking>,
}

/// Closed loops of the `AuditPia` request on `conns` connections, while
/// `running()` and for at most `max` requests each; request `i` of a
/// connection carries a trace context iff `traced(i)`. Answers come
/// back in the order they completed.
fn warm(
    addr: &str,
    inputs: &Inputs,
    running: &(dyn Fn() -> bool + Sync),
    max: usize,
    conns: usize,
    traced: impl Fn(usize) -> bool + Sync,
) -> Result<Vec<Warm>, String> {
    let traced = &traced;
    let per_conn: Vec<Result<Vec<Warm>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || {
                    let mut client = common::connect(addr)?;
                    // The connection's first exchange is not timed.
                    client.ping().map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for i in 0..max {
                        if !running() {
                            break;
                        }
                        let t = traced(i);
                        let started = Instant::now();
                        let response = client
                            .request_traced(&inputs.pia, t.then(TraceContext::root))
                            .map_err(|e| e.to_string())?;
                        let sample = common::timed(started, Instant::now(), 1e6);
                        match response {
                            Response::Pia {
                                cached, rankings, ..
                            } => out.push(Warm {
                                traced: t,
                                sample,
                                cached,
                                rankings,
                            }),
                            other => return Err(format!("AuditPia answered {other:?}")),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("AuditPia thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for answers in per_conn {
        all.extend(answers?);
    }
    all.sort_by_key(|w| w.sample.1);
    Ok(all)
}

fn boot(ctx: &Ctx, inputs: &Inputs) -> Result<Vec<Daemon>, String> {
    let mut daemons = Vec::new();
    for p in 0..PARTIES {
        let (daemon, _) = common::boot_loaded(
            ctx,
            std::slice::from_ref(&inputs.texts[p]),
            inputs.records[p],
        )?;
        daemons.push(daemon);
    }
    // Warm-up: one round outside the measured seeds, and the PIA answer
    // the cheap operation will be served from cache.
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    round_untraced(
        &addrs,
        inputs.warm_seed,
        session_of(inputs.warm_seed, usize::MAX),
    )?;
    warm(&addrs[0], inputs, &|| true, 1, 1, |_| false)?;
    Ok(daemons)
}

struct Checks {
    rounds: Check,
    warm: Check,
}

fn check_round(
    inputs: &Inputs,
    i: usize,
    r: &Round,
    report: &mut Report,
    checks: &mut Checks,
) -> bool {
    let ok = !r.degraded && r.intersection == inputs.intersection && r.union == inputs.union;
    if !checks.rounds.record(ok, || {
        format!(
            "round {i}: intersection {} union {} degraded {} (plaintext {} / {})",
            r.intersection, r.union, r.degraded, inputs.intersection, inputs.union
        )
    }) {
        report.failed += 1;
    }
    ok
}

fn check_warm(
    inputs: &Inputs,
    answers: &[Warm],
    report: &mut Report,
    checks: &mut Checks,
) -> Vec<(bool, Sample)> {
    let jaccard = inputs.intersection as f64 / inputs.union as f64;
    let mut us = Vec::new();
    for w in answers {
        report.attempted += 1;
        let ok =
            w.cached && w.rankings.len() == 1 && (w.rankings[0].jaccard - jaccard).abs() < 1e-12;
        if checks.warm.record(ok, || {
            format!(
                "AuditPia cached={} rankings={:?}, plaintext jaccard {jaccard}",
                w.cached, w.rankings
            )
        }) {
            us.push((w.traced, w.sample));
        } else {
            report.failed += 1;
        }
    }
    us
}

/// Segments a run is cut into: each runs rounds back to back for its
/// share of the rounds' time, then the cached request on one
/// connection for its share of theirs, so both operations are sampled
/// across the whole run.
const SEGMENTS: u32 = 24;

/// Drives rounds for the `rounds` share of the measuring time and the
/// cached request for the `cached` share, in [`SEGMENTS`] alternating
/// segments (each stretched as [`Ctx::running`] says). Round `i` goes
/// through the coordinator, and cached request `i` of a connection
/// carries a trace context, iff `traced(i)`.
fn drive(
    inputs: &Inputs,
    addrs: &[String],
    (ctx, rounds_share, cached_share): (&Ctx, f64, f64),
    traced: impl Fn(usize) -> bool + Sync,
    report: &mut Report,
    checks: &mut Checks,
) -> Result<(Vec<Round>, Vec<Warm>), String> {
    let mut rounds = Vec::new();
    let mut answers = Vec::new();
    let mut seeds = inputs.seeds.iter().enumerate();
    let segments = f64::from(SEGMENTS);
    for _ in 0..SEGMENTS {
        let (start, dur) = (Instant::now(), ctx.share(rounds_share / segments));
        while ctx.running(start, dur) {
            let Some((i, &seed)) = seeds.next() else {
                break;
            };
            let coord = traced(i);
            report.attempted += 1;
            let result = if coord {
                round_coordinator(addrs, seed)
            } else {
                round_untraced(addrs, seed, session_of(inputs.warm_seed, i))
            };
            match result {
                Ok(r) => {
                    if check_round(inputs, i, &r, report, checks) {
                        rounds.push(r);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    checks.rounds.record(false, || format!("round {i}: {e}"));
                }
            }
        }
        let (start, dur) = (Instant::now(), ctx.share(cached_share / segments));
        let running = || ctx.running(start, dur);
        answers.extend(warm(&addrs[0], inputs, &running, usize::MAX, 1, &traced)?);
    }
    Ok((rounds, answers))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = inputs(ctx.seed, &mut report);
    let (daemons, (), setup_s) = common::setup(ctx, || boot(ctx, &inputs).map(|d| (d, ())))?;
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let mut checks = Checks {
        rounds: Check::new("psop.round_equals_plaintext_and_not_degraded"),
        warm: Check::new("pia.cached_answer_equals_plaintext_jaccard"),
    };
    if ctx.trace {
        traced(ctx, &inputs, &daemons, &addrs, &mut report, &mut checks)?;
    } else {
        let (rounds, answers) = drive(
            &inputs,
            &addrs,
            (ctx, 0.9, 0.1),
            |_| false,
            &mut report,
            &mut checks,
        )?;
        let warm_us = check_warm(&inputs, &answers, &mut report, &mut checks);
        let ms: Vec<Sample> = rounds.iter().map(|r| r.sample).collect();
        let wire: Vec<f64> = rounds.iter().map(|r| r.wire_bytes as f64).collect();
        let us: Vec<Sample> = warm_us.iter().map(|w| w.1).collect();
        let steal = &ctx.steal;
        report.e2e("setup_s", setup_s, "s");
        report.e2e_timing(
            steal,
            ("cold_p50_ms", "cold_p90_ms"),
            "ms",
            "psop_round",
            &ms,
        );
        report.e2e_timing(
            steal,
            ("warm_p50_us", "warm_p90_us"),
            "us",
            "pia_cached",
            &us,
        );
        if !wire.is_empty() {
            report.e2e("wire_bytes_per_op", median(&wire), "B");
            report.line(format!(
                "metric psop_wire_bytes = {} B per round (framing included)",
                median(&wire)
            ));
        }
        let mut rss = 0.0;
        for d in &daemons {
            rss += d.peak_rss_mib()?;
        }
        report.e2e("daemon_rss_mib", rss, "MiB");
    }
    report.checks.extend([checks.rounds, checks.warm]);
    for d in daemons {
        d.stop()?;
    }
    Ok(report)
}

/// Replays rounds through each layer's public functions, each party on
/// its own lane (the daemons run them in parallel).
struct Replay {
    dbs: Vec<ShardedDepDb>,
    round_t: Tracer,
    warm_t: Tracer,
    micro_t: Tracer,
    cache: AuditCache<Response>,
    payload_bytes: Vec<f64>,
    frame_bytes: Vec<f64>,
}

impl Replay {
    fn new(inputs: &Inputs) -> Result<Self, String> {
        let shards = indaas_service::ServeConfig::default().shards;
        let mut dbs = Vec::new();
        for t in &inputs.texts {
            let db = ShardedDepDb::new(shards);
            db.ingest_text(t).map_err(|e| format!("{e:?}"))?;
            dbs.push(db);
        }
        Ok(Replay {
            dbs,
            round_t: Tracer::new(),
            warm_t: Tracer::new(),
            micro_t: Tracer::new(),
            cache: AuditCache::new(indaas_service::ServeConfig::default().cache_capacity),
            payload_bytes: Vec::new(),
            frame_bytes: Vec::new(),
        })
    }

    fn round(
        &mut self,
        r: u64,
        seed: u64,
        session: u64,
        addrs: &[String],
    ) -> Result<(usize, usize), String> {
        let t = &mut self.round_t;
        let config = PsopConfig {
            seed,
            ..PsopConfig::default()
        };
        let coord = t.open("service.round", r, 0, None);
        let mut parties = Vec::new();
        let mut initial = Vec::new();
        for p in 0..PARTIES {
            let lane = p as u32;
            let line = t.span("client.request_encode", r, lane, Some(coord), || {
                encode_line(&Envelope {
                    id: 1,
                    body: Request::FederateStart {
                        session,
                        index: p as u32,
                        parties: PARTIES as u32,
                        successor: addrs[(p + 1) % PARTIES].clone(),
                        seed,
                        multiset: config.multiset,
                        round_timeout_ms: Some(ROUND_TIMEOUT_MS),
                    },
                    trace: None,
                })
            });
            t.span("codec.request_decode", r, lane, Some(coord), || {
                decode_line::<Envelope>(&line)
            })
            .map_err(|e| e.to_string())?;
            let db = &self.dbs[p];
            let snap = t.span("deps.snapshot", r, lane, Some(coord), || db.snapshot());
            let set = t.span("fed.component_set", r, lane, Some(coord), || {
                provider_component_set(&snap)
            });
            let mut party = t.span("crypto.keygen", r, lane, Some(coord), || {
                PsopParty::new(p, PARTIES, &config)
            });
            let payload = t.span("psop.initial", r, lane, Some(coord), || {
                party.initial_payload(&set, config.multiset)
            });
            self.payload_bytes.push(payload.len() as f64);
            parties.push(party);
            initial.push(payload);
        }
        let mut finals = Vec::new();
        for (p, party) in parties.iter_mut().enumerate() {
            let lane = p as u32;
            // Party p relays its predecessor's list.
            let incoming = &initial[(p + PARTIES - 1) % PARTIES];
            let out = t.span("psop.relay", r, lane, Some(coord), || party.relay(incoming));
            let frame = t.span("codec.response_encode", r, lane, Some(coord), || {
                encode_line(&ResponseEnvelope {
                    id: 1,
                    body: Response::FederateDone {
                        session,
                        payload: encode_payload(&out),
                        sent_bytes: 0,
                        recv_bytes: 0,
                        sent_msgs: 0,
                        recv_msgs: 0,
                        wire_sent_bytes: 0,
                    },
                })
            });
            self.frame_bytes.push(frame.len() as f64 + 4.0);
            let done = t.span("client.response_decode", r, lane, Some(coord), || {
                decode_line::<ResponseEnvelope>(&frame)
            });
            let Ok(ResponseEnvelope {
                body: Response::FederateDone { payload, .. },
                ..
            }) = done
            else {
                return Err("decoded a different response than was encoded".into());
            };
            finals.push(decode_payload(&payload)?);
        }
        let counts = t.span("psop.count", r, 0, Some(coord), || {
            count_final_lists(finals.iter().map(Vec::as_slice), PARTIES)
        });
        t.close(coord);

        // Layer micro-timings on this round's data: one 1024-bit modpow
        // and one full element encryption per party.
        let m = &mut self.micro_t;
        let p = BigUint::from_hex(MODP_1024_HEX).map_err(|e| format!("{e:?}"))?;
        let mont = Montgomery::new(&p).ok_or("the group modulus is odd")?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cipher = CommutativeCipher::generate(&mut rng);
        let elements: Vec<String> = self
            .dbs
            .iter()
            .flat_map(|db| provider_component_set(&db.snapshot()).into_iter().take(2))
            .collect();
        for (i, c) in elements.iter().enumerate() {
            let elem = cipher.hash_to_group(c.as_bytes());
            let exp = BigUint::random_below(&mut rng, &p);
            m.span("bigint.modpow", r, i as u32, None, || {
                mont.modpow(&elem, &exp)
            });
            m.span("crypto.encrypt", r, i as u32, None, || {
                cipher.encrypt(&cipher.hash_to_group(c.as_bytes()))
            });
        }
        Ok(counts)
    }

    /// The cached `AuditPia` path: decode, cache key and lookup, encode.
    fn warm(&mut self, r: u64, request: &Request, answer: &Response) -> Result<(), String> {
        let t = &mut self.warm_t;
        let root = t.open("service.request", r, 0, None);
        let line = t.span("client.request_encode", r, 0, Some(root), || {
            encode_line(&Envelope {
                id: r + 1,
                body: request.clone(),
                trace: None,
            })
        });
        let env = t
            .span("codec.request_decode", r, 0, Some(root), || {
                decode_line::<Envelope>(&line)
            })
            .map_err(|e| e.to_string())?;
        let Request::AuditPia {
            providers,
            way,
            minhash,
            ..
        } = env.body
        else {
            return Err("decoded a different request than was encoded".into());
        };
        let key = t.span("cache.key", r, 0, Some(root), || {
            job_key(&(), "pia", &(&providers, way, minhash))
        });
        if r == 0 {
            self.cache.insert(key.clone(), Vec::new(), answer.clone());
        }
        let body = t
            .span("cache.lookup", r, 0, Some(root), || self.cache.get(&key))
            .ok_or("the replayed PIA cache missed")?;
        let frame = t.span("codec.response_encode", r, 0, Some(root), || {
            encode_line(&ResponseEnvelope { id: r + 1, body })
        });
        t.span("client.response_decode", r, 0, Some(root), || {
            decode_line::<ResponseEnvelope>(&frame)
        })
        .map_err(|e| e.to_string())?;
        t.close(root);
        Ok(())
    }
}

/// The traced run: rounds alternate between the untraced rounds and the
/// (always tracing) federation coordinator, for the overhead; daemon
/// counters around them; then the rounds replayed through the layers.
fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    daemons: &[Daemon],
    addrs: &[String],
    report: &mut Report,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut admin: Vec<Client> = addrs
        .iter()
        .map(|a| common::connect(a))
        .collect::<Result<_, _>>()?;
    let before: Vec<_> = admin
        .iter_mut()
        .map(Counters::snap)
        .collect::<Result<_, _>>()?;
    drop(admin);
    let (rounds, answers) = drive(
        inputs,
        addrs,
        (ctx, 0.6, 0.1),
        |i| i % 2 == 1,
        report,
        checks,
    )?;
    let warm_us = check_warm(inputs, &answers, report, checks);
    let mut admin: Vec<Client> = addrs
        .iter()
        .map(|a| common::connect(a))
        .collect::<Result<_, _>>()?;
    let counters: Vec<Counters> = before
        .into_iter()
        .zip(admin.iter_mut())
        .map(|(b, c)| Ok(Counters::new(b, Counters::snap(c)?)))
        .collect::<Result<_, String>>()?;
    drop(admin);
    let threads: u64 = daemons
        .iter()
        .map(Daemon::threads)
        .sum::<Result<u64, _>>()?;

    let mut replay = Replay::new(inputs)?;
    let budget = Instant::now() + ctx.share(0.2);
    for (i, &seed) in inputs.seeds.iter().enumerate() {
        if Instant::now() >= budget && i >= 4 {
            break;
        }
        let counts = replay.round(i as u64, seed, session_of(seed, i), addrs)?;
        if counts != (inputs.intersection, inputs.union) {
            return Err(format!("replayed round {i} counted {counts:?}"));
        }
    }
    let answer = Response::Pia {
        epoch: 0,
        cached: true,
        elapsed_us: 0,
        rankings: answers.first().ok_or("no PIA answer")?.rankings.clone(),
    };
    for r in 0..warm_us.len().clamp(1, 200) {
        replay.warm(r as u64, &inputs.pia, &answer)?;
    }
    let layers = replay.round_t.layer_self_us();
    let warm_layers = replay.warm_t.layer_self_us();
    let split = |coord: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == coord)
            .map(|r| r.sample.2 * 1e3)
            .collect()
    };
    let (plain, traced_ms) = (split(false), split(true));
    let warm_split = |coord: bool| -> Vec<f64> {
        warm_us
            .iter()
            .filter(|(c, _)| *c == coord)
            .map(|(_, s)| s.2)
            .collect()
    };
    let traced_warm = warm_split(true);
    if traced_ms.is_empty() || traced_warm.is_empty() {
        return Err("the traced rounds answered nothing".into());
    }
    let client_round = median(&traced_ms);
    let unattributed = common::reconcile(report, "psop round (coordinator)", client_round, &layers);
    let warm_unattributed =
        common::reconcile(report, "pia cached", median(&traced_warm), &warm_layers);
    let overhead = common::overhead(
        report,
        "psop round (coordinator vs untraced)",
        &plain,
        &traced_ms,
    );
    common::overhead(report, "pia cached", &warm_split(false), &traced_warm);

    let layer = |name: &str, set: &BTreeMap<&str, f64>| set.get(name).copied().unwrap_or(0.0);
    let sum = |f: &dyn Fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let party_us = median_or_zero(
        &counters
            .iter()
            .map(|c| c.histo(names::FED_PARTY_US).1)
            .collect::<Vec<_>>(),
    );
    let coord_rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let wire: Vec<f64> = coord_rounds.iter().map(|r| r.wire_bytes as f64).collect();
    let framing: Vec<f64> = coord_rounds
        .iter()
        .map(|r| r.wire_bytes as f64 / r.ring_payload_bytes.max(1) as f64)
        .collect();
    let n = inputs.sets.iter().map(Vec::len).sum::<usize>();
    for (name, value, unit) in [
        (
            "bigint.modpow_us",
            replay.micro_t.median_us("bigint.modpow").unwrap_or(0.0),
            "us",
        ),
        ("bigint.modpows_per_round", (PARTIES * n) as f64, "count"),
        (
            "crypto.encrypt_us",
            replay.micro_t.median_us("crypto.encrypt").unwrap_or(0.0),
            "us",
        ),
        ("psop.initial_us", layer("psop.initial", &layers), "us"),
        ("psop.relay_us", layer("psop.relay", &layers), "us"),
        (
            "psop.payload_bytes",
            median_or_zero(&replay.payload_bytes),
            "B",
        ),
        ("fed.party_us", party_us, "us"),
        ("fed.wire_bytes", median_or_zero(&wire), "B"),
        (
            "fed.framing_ratio",
            median_or_zero(&framing),
            "wire/payload",
        ),
        (
            "fed.frame_retries",
            sum(&|c| c.counter(names::FED_FRAME_RETRIES_TOTAL)),
            "count",
        ),
        (
            "fed.redials",
            sum(&|c| c.counter(names::FED_REDIALS_TOTAL)),
            "count",
        ),
        ("unattributed_us", unattributed, "us"),
        ("daemon_threads", threads as f64, "count"),
    ] {
        report.line(format!("layer {name} = {value:.3} {unit}"));
    }
    let engine: f64 = ["crypto.keygen", "psop.initial", "psop.relay", "psop.count"]
        .iter()
        .map(|n| layer(n, &layers))
        .sum();
    let per_span = |name: &str| replay.round_t.median_us(name).unwrap_or(0.0);
    report.layer("client.e2e_us", client_round, "us");
    report.layer("layers.self_sum_us", layers.values().sum(), "us");
    report.layer("unattributed_us", unattributed, "us");
    report.layer("trace.overhead_us", overhead, "us");
    report.layer("warm.e2e_us", median(&traced_warm), "us");
    report.layer("warm.unattributed_us", warm_unattributed, "us");
    report.layer(
        "codec.request_decode_us",
        per_span("codec.request_decode"),
        "us",
    );
    report.layer(
        "codec.response_encode_us",
        per_span("codec.response_encode"),
        "us",
    );
    report.layer(
        "codec.response_bytes",
        median_or_zero(&replay.frame_bytes),
        "B",
    );
    report.layer(
        "client.response_decode_us",
        per_span("client.response_decode"),
        "us",
    );
    report.layer("cache.key_us", layer("cache.key", &warm_layers), "us");
    report.layer("deps.snapshot_us", per_span("deps.snapshot"), "us");
    report.layer("engine.self_us", engine, "us");
    report.layer("daemon_threads", threads as f64, "count");
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    Tracer::write_all(
        &path,
        &[
            ("round", &replay.round_t),
            ("pia", &replay.warm_t),
            ("micro", &replay.micro_t),
        ],
    )
    .map_err(|e| e.to_string())?;
    report.line(format!("spans written to {}", path.display()));
    Ok(())
}
