//! Ingest-path benchmark: sharded vs monolithic dependency store.
//!
//! The daemon's hottest write path publishes a fresh snapshot after
//! every effective ingest and invalidates the audit cache on every epoch
//! bump. The sharded store (`indaas_deps::ShardedDepDb`) refreshes only
//! the shard a batch touched and invalidates only the cache entries
//! pinned to it. This benchmark measures both effects at growing
//! resident sizes:
//!
//! * **ingest latency** — one fresh single-host record into a store
//!   already holding 10k/100k/1M records, timed end to end including
//!   the snapshot refresh. The monolithic baseline is a 1-shard store.
//!   A refresh is a structural clone of the shard's host index — one
//!   pointer per host and kind, no record copied — so the baseline pays
//!   for every host in the store and a sharded ingest for the hosts of
//!   one shard;
//! * **audit-cache survival** — cache entries pinned across all shards,
//!   then one single-host ingest: the fraction of cached audits still
//!   live afterwards (monolithic: always 0 — every bump evicts
//!   everything).
//!
//! Emits `BENCH_ingest.json` for the CI perf trajectory. `--smoke`
//! shrinks the sizes for the CI gate; full mode covers the 1M point the
//! acceptance criterion reads.
//!
//! ```console
//! $ cargo run --release -p indaas-bench --bin bench_ingest -- \
//!       [--smoke] [--out BENCH_ingest.json] [--shards 16] [--trials 8]
//! ```

use std::time::Instant;

use indaas_deps::{DepView, DependencyRecord, EpochVector, HardwareDep, NetworkDep, ShardedDepDb};
use indaas_service::{job_key, AuditCache};
use serde::Serialize;

/// One fresh, never-before-seen record for `host` (trial-unique `dep`
/// keeps every ingest effective).
fn fresh_record(host: &str, trial: usize) -> DependencyRecord {
    DependencyRecord::Hardware(HardwareDep {
        hw: host.to_string(),
        hw_type: "CPU".to_string(),
        dep: format!("{host}-fresh-{trial}"),
    })
}

/// A synthetic resident set: ~20 records per host (routes + components),
/// the shape of a datacenter inventory rather than one giant host.
fn resident_records(total: usize) -> Vec<DependencyRecord> {
    let per_host = 20;
    let hosts = (total / per_host).max(1);
    let mut out = Vec::with_capacity(total);
    'outer: for h in 0..hosts {
        let host = format!("srv-{h}");
        for r in 0..per_host / 2 {
            if out.len() >= total {
                break 'outer;
            }
            out.push(DependencyRecord::Network(NetworkDep {
                src: host.clone(),
                dst: "Internet".to_string(),
                route: vec![format!("tor-{}", h % 512), format!("core-{r}")],
            }));
        }
        for c in 0..per_host / 2 {
            if out.len() >= total {
                break 'outer;
            }
            out.push(DependencyRecord::Hardware(HardwareDep {
                hw: host.clone(),
                hw_type: "Disk".to_string(),
                dep: format!("{host}-disk-{c}"),
            }));
        }
    }
    out
}

/// Median of a latency sample, in microseconds.
fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    samples[samples.len() / 2]
}

/// Times `trials` single-record ingests (each touching exactly one
/// shard) against a resident store, including the snapshot refresh
/// published after every effective batch under the touched shard's own
/// mutex (there is no store-wide write lock).
fn time_ingests(store: &ShardedDepDb, trials: usize) -> f64 {
    let mut lat = Vec::with_capacity(trials);
    for t in 0..trials {
        let rec = fresh_record(&format!("srv-{}", t % 64), t);
        let start = Instant::now();
        let report = store.ingest([rec]);
        let snapshot = store.snapshot();
        lat.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(report.changed, 1, "bench ingests must be effective");
        assert!(snapshot.record_count() > 0);
    }
    median_us(lat)
}

/// Populates an audit cache with one entry per sampled host (pinned to
/// exactly the shards that host reads), ingests one fresh record, purges
/// stale entries, and reports the surviving fraction.
fn cache_survival(store: &ShardedDepDb, entries: usize) -> f64 {
    let mut cache: AuditCache<u64> = AuditCache::new(entries * 2);
    let snapshot = store.snapshot();
    for e in 0..entries {
        let host = format!("srv-{e}");
        let pins = snapshot.pins_for_hosts([host.as_str()]);
        cache.insert(job_key(&pins, "sia", &host), pins, e as u64);
    }
    store.ingest([fresh_record("srv-0", usize::MAX)]);
    cache.purge_stale(&store.epochs());
    cache.len() as f64 / entries as f64
}

#[derive(Serialize)]
struct SizeResult {
    resident_records: usize,
    mono_ingest_us_median: f64,
    sharded_ingest_us_median: f64,
    /// `mono / sharded` — how much cheaper one single-shard ingest got.
    ingest_speedup: f64,
    cache_entries: usize,
    mono_cache_survival: f64,
    sharded_cache_survival: f64,
}

#[derive(Serialize)]
struct BenchReport {
    shards: usize,
    trials: usize,
    smoke: bool,
    results: Vec<SizeResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().unwrap_or_else(|e| panic!("{name}: {e}")))
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let shards = flag_value("--shards").unwrap_or(16);
    let trials = flag_value("--trials").unwrap_or(if smoke { 5 } else { 9 });
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ingest.json".to_string());

    let sizes: &[usize] = if smoke {
        &[10_000, 50_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let cache_entries = 64;

    let mut results = Vec::new();
    for &size in sizes {
        eprintln!("bench_ingest: building {size}-record resident set...");
        let records = resident_records(size);

        let mono = ShardedDepDb::new(1);
        mono.ingest(records.clone());
        let mono_us = time_ingests(&mono, trials);
        let mono_survival = cache_survival(&mono, cache_entries);

        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(records);
        let sharded_us = time_ingests(&sharded, trials);
        let sharded_survival = cache_survival(&sharded, cache_entries);

        let speedup = mono_us / sharded_us;
        eprintln!(
            "bench_ingest: {size:>9} records | mono {mono_us:>10.1} us | \
             sharded {sharded_us:>8.1} us | speedup {speedup:>5.1}x | \
             cache survival {mono_survival:.2} -> {sharded_survival:.2}"
        );
        results.push(SizeResult {
            resident_records: size,
            mono_ingest_us_median: mono_us,
            sharded_ingest_us_median: sharded_us,
            ingest_speedup: speedup,
            cache_entries,
            mono_cache_survival: mono_survival,
            sharded_cache_survival: sharded_survival,
        });
    }

    // Gates the trajectory depends on, enforced here so the CI smoke
    // step fails loudly on a regression instead of uploading a
    // silently-worse artifact: an ingest to one shard must leave other
    // shards' cached audits alive, and sharded ingest must beat the
    // 1-shard store's whole-index refresh at the largest measured size —
    // by the acceptance margin (10x) in full mode, and by any margin in
    // smoke mode (small sizes on noisy CI runners leave less headroom).
    let largest = results.last().expect("at least one size");
    assert!(
        largest.sharded_cache_survival > largest.mono_cache_survival,
        "sharding must improve cache survival"
    );
    let required_speedup = if smoke { 1.0 } else { 10.0 };
    assert!(
        largest.ingest_speedup >= required_speedup,
        "sharded ingest speedup {:.1}x at {} records below the {required_speedup}x gate",
        largest.ingest_speedup,
        largest.resident_records
    );

    let report = BenchReport {
        shards,
        trials,
        smoke,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_ingest.json");
    eprintln!("bench_ingest: wrote {out}");

    // Exercise the epoch-vector plumbing once end to end so a broken
    // EpochVector comparison fails the smoke run loudly rather than
    // producing a silently-wrong trajectory.
    let probe = ShardedDepDb::new(shards);
    probe.ingest([fresh_record("probe", 0)]);
    let epochs: EpochVector = probe.epochs();
    assert_eq!(epochs, probe.epochs());
}
