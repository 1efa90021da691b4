//! Cross-crate property-based tests on the core auditing invariants.

use indaas::deps::{
    shard_index, DepDb, DepView, DependencyRecord, HardwareDep, NetworkDep, ShardedDepDb,
    SoftwareDep, VersionedDepDb,
};
use indaas::graph::detail::{component_sets_to_graph, ComponentSet};
use indaas::graph::{FaultGraphBuilder, Gate};
use indaas::sia::{
    failure_sampling, minimal_risk_groups, MinimalConfig, RgFamily, RiskGroup, SamplingConfig,
};
use proptest::prelude::*;

/// Strategy: 2–4 component sets over a small shared universe, every set
/// non-empty.
fn component_sets() -> impl Strategy<Value = Vec<ComponentSet>> {
    proptest::collection::vec(proptest::collection::btree_set(0u8..12, 1..6), 2..5usize).prop_map(
        |sets| {
            sets.into_iter()
                .enumerate()
                .map(|(i, comps)| {
                    ComponentSet::new(format!("E{i}"), comps.into_iter().map(|c| format!("c{c}")))
                })
                .collect()
        },
    )
}

/// Decodes a small integer into one of a few dozen distinct dependency
/// records spanning all three kinds — small enough a random pair of
/// batches overlaps often, which is where the epoch edge cases live.
fn decode_record(n: u32) -> DependencyRecord {
    let host = format!("S{}", (n / 3) % 4);
    let dep = (n / 12) % 5;
    match n % 3 {
        0 => DependencyRecord::Network(NetworkDep {
            src: host,
            dst: "Internet".to_string(),
            route: vec![format!("dev{dep}")],
        }),
        1 => DependencyRecord::Hardware(HardwareDep {
            hw: host,
            hw_type: "CPU".to_string(),
            dep: format!("chip{dep}"),
        }),
        _ => DependencyRecord::Software(SoftwareDep {
            pgm: "Svc".to_string(),
            hw: host,
            deps: vec![format!("lib{dep}")],
        }),
    }
}

/// Strategy: a batch of up to a dozen (possibly duplicate) records.
fn record_batch() -> impl Strategy<Value = Vec<DependencyRecord>> {
    proptest::collection::vec(0u32..60, 1..12usize)
        .prop_map(|ns| ns.into_iter().map(decode_record).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retracting records that were never ingested is a complete no-op:
    /// no epoch bump, no record count change, everything ignored.
    #[test]
    fn retract_of_absent_records_never_bumps_epoch(
        ingest in record_batch(),
        retract in record_batch(),
    ) {
        let mut v = VersionedDepDb::new();
        v.ingest(ingest.clone());
        let absent: Vec<DependencyRecord> = retract
            .into_iter()
            .filter(|r| !ingest.contains(r))
            .collect();
        let epoch_before = v.epoch();
        let len_before = v.db().len();
        let report = v.retract(&absent);
        prop_assert_eq!(report.changed, 0);
        prop_assert_eq!(report.ignored, absent.len());
        prop_assert_eq!(v.epoch(), epoch_before);
        prop_assert_eq!(v.db().len(), len_before);
    }

    /// An update that retracts and re-ingests the same batch is a net
    /// no-op: the epoch must not move, whatever duplicates the batch
    /// contains.
    #[test]
    fn self_update_is_epoch_neutral(batch in record_batch()) {
        let mut v = VersionedDepDb::new();
        v.ingest(batch.clone());
        let epoch_before = v.epoch();
        let len_before = v.db().len();
        let report = v.update(&batch, batch.clone());
        prop_assert_eq!(report.changed, 0);
        prop_assert_eq!(v.epoch(), epoch_before);
        prop_assert_eq!(v.db().len(), len_before);
    }

    /// The epoch advances exactly when a batch changes the record set,
    /// and by exactly one per effective batch.
    #[test]
    fn epoch_bumps_iff_batch_changes_something(
        first in record_batch(),
        second in record_batch(),
    ) {
        let mut v = VersionedDepDb::new();
        let r1 = v.ingest(first.clone());
        prop_assert!(r1.changed > 0, "fresh batch into an empty db always changes it");
        prop_assert_eq!(v.epoch(), 1);
        let before = v.epoch();
        let len_before = v.db().len();
        let r2 = v.ingest(second.clone());
        let expect_bump = r2.changed > 0;
        prop_assert_eq!(v.epoch(), before + u64::from(expect_bump));
        prop_assert_eq!(v.db().len(), len_before + r2.changed);
        // Re-ingesting everything again is pure duplicates: no bump.
        let before = v.epoch();
        let dup = v.ingest(first.into_iter().chain(second));
        prop_assert_eq!(dup.changed, 0);
        prop_assert_eq!(v.epoch(), before);
    }

    /// Ingest then full retract round-trips to an empty database with
    /// exactly two epoch bumps, and a second retract of the same batch
    /// is entirely ignored.
    #[test]
    fn full_retract_empties_with_one_bump(batch in record_batch()) {
        let mut v = VersionedDepDb::new();
        v.ingest(batch.clone());
        prop_assert_eq!(v.epoch(), 1);
        let r = v.retract(&batch);
        prop_assert!(r.changed > 0);
        prop_assert_eq!(v.epoch(), 2);
        prop_assert!(v.db().is_empty());
        let again = v.retract(&batch);
        prop_assert_eq!(again.changed, 0);
        prop_assert_eq!(again.ignored, batch.len());
        prop_assert_eq!(v.epoch(), 2);
    }

    /// `update` replacing a batch with a disjoint one bumps exactly once
    /// and lands on exactly the fresh records.
    #[test]
    fn disjoint_update_is_one_bump(batch in record_batch()) {
        let mut v = VersionedDepDb::new();
        v.ingest(batch.clone());
        let fresh: Vec<DependencyRecord> = batch
            .iter()
            .map(|r| match r {
                DependencyRecord::Network(n) => {
                    let mut n = n.clone();
                    n.route.push("re-measured".to_string());
                    DependencyRecord::Network(n)
                }
                DependencyRecord::Hardware(h) => {
                    let mut h = h.clone();
                    h.dep.push_str("-v2");
                    DependencyRecord::Hardware(h)
                }
                DependencyRecord::Software(s) => {
                    let mut s = s.clone();
                    s.deps.push("libnew".to_string());
                    DependencyRecord::Software(s)
                }
            })
            .collect();
        let before = v.epoch();
        let report = v.update(&batch, fresh.clone());
        prop_assert!(report.changed > 0);
        prop_assert_eq!(v.epoch(), before + 1);
        for f in &fresh {
            prop_assert!(!v.db().is_empty());
            // Every fresh record must be present (retract removed the stale ones).
            let mut probe = VersionedDepDb::from_db(v.db().clone());
            prop_assert_eq!(probe.retract(std::slice::from_ref(f)).changed, 1);
        }
    }

    /// Shard routing is deterministic and host-sticky: every record of a
    /// host lands in `shard_index(host, n)`, so lookups through the
    /// sharded store and a monolithic database over the same batch are
    /// indistinguishable, and a batch touches no shard outside its
    /// hosts' shards.
    #[test]
    fn same_host_always_routes_to_the_same_shard(
        batch in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        let report = sharded.ingest(batch.clone());
        let mono = DepDb::from_records(batch.clone());
        prop_assert_eq!(sharded.len(), mono.len());
        let host_shards: std::collections::BTreeSet<usize> = batch
            .iter()
            .map(|r| shard_index(r.host(), shards))
            .collect();
        for &s in &report.touched {
            prop_assert!(host_shards.contains(&s), "shard {s} gained records without a host routed to it");
        }
        let snap = sharded.snapshot();
        for host in mono.hosts() {
            prop_assert_eq!(shard_index(&host, shards), snap.shard_of(&host));
            prop_assert_eq!(snap.network_deps(&host), mono.network_deps(&host));
            prop_assert_eq!(snap.hardware_deps(&host), mono.hardware_deps(&host));
            prop_assert_eq!(snap.software_deps(&host), mono.software_deps(&host));
        }
        // Epochs moved only on touched shards.
        let epochs = sharded.epochs();
        for s in 0..shards {
            let expect = u64::from(report.touched.contains(&s));
            prop_assert_eq!(epochs.get(s), expect);
        }
    }

    /// A duplicate re-ingest plus a retract of never-ingested records is
    /// a complete no-op shard-wise: every shard epoch stays exactly
    /// where it started and no snapshot is refreshed.
    #[test]
    fn noop_ingest_retract_leaves_every_shard_epoch_in_place(
        batch in record_batch(),
        absent in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(batch.clone());
        let epochs_before = sharded.epochs();
        let global_before = sharded.epoch();
        let dup = sharded.ingest(batch.clone());
        prop_assert_eq!(dup.changed, 0);
        prop_assert!(dup.touched.is_empty());
        let absent: Vec<DependencyRecord> = absent
            .into_iter()
            .filter(|r| !batch.contains(r))
            .collect();
        let gone = sharded.retract(&absent);
        prop_assert_eq!(gone.changed, 0);
        prop_assert!(gone.touched.is_empty());
        prop_assert_eq!(sharded.epochs(), epochs_before);
        prop_assert_eq!(sharded.epoch(), global_before);
    }

    /// Ingest-then-retract round-trips every shard back to its starting
    /// record set: touched shards bump exactly twice, shards outside the
    /// batch's hosts never move at all.
    #[test]
    fn ingest_retract_roundtrip_restores_every_shard(
        base in record_batch(),
        extra in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(base.clone());
        let epochs_start = sharded.epochs();
        let len_start = sharded.len();
        let fresh: Vec<DependencyRecord> = extra
            .into_iter()
            .filter(|r| !base.contains(r))
            .collect();
        let added = sharded.ingest(fresh.clone());
        let removed = sharded.retract(&fresh);
        prop_assert_eq!(added.changed, removed.changed);
        prop_assert_eq!(sharded.len(), len_start);
        let epochs_end = sharded.epochs();
        for s in 0..shards {
            if added.touched.contains(&s) {
                // Round-tripped shard bumps once per direction.
                prop_assert_eq!(epochs_end.get(s), epochs_start.get(s) + 2);
            } else {
                // A shard outside the batch must not move.
                prop_assert_eq!(epochs_end.get(s), epochs_start.get(s));
            }
        }
    }

    /// Cross-shard audits observe a consistent epoch vector: a snapshot
    /// pins the live vector at the instant it is taken, its host pins
    /// agree with that vector for every host, and later ingests never
    /// leak into it.
    #[test]
    fn snapshots_pin_a_consistent_epoch_vector(
        first in record_batch(),
        second in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(first);
        let snap = sharded.snapshot();
        prop_assert_eq!(snap.epochs(), &sharded.epochs());
        let hosts: Vec<String> = DepView::hosts(&snap).into_iter().collect();
        for (shard, epoch) in snap.pins_for_hosts(hosts.iter().map(String::as_str)) {
            prop_assert_eq!(epoch, snap.epochs().get(shard as usize));
        }
        let pinned = snap.epochs().clone();
        let pinned_len = snap.record_count();
        sharded.ingest(second);
        prop_assert_eq!(snap.epochs(), &pinned);
        prop_assert_eq!(snap.record_count(), pinned_len);
    }

    /// A snapshot freezes its records, not just their count. After it is
    /// taken, a random mix of ingests, retractions and updates on the
    /// same hosts edits exactly the host lists it shares with the live
    /// store (a retract plus an ingest can keep every count unchanged),
    /// yet every shard of the snapshot still lists, in `records_iter`
    /// order, the records a monolithic model held at that moment.
    #[test]
    fn snapshot_contents_survive_later_edits_of_the_same_hosts(
        base in record_batch(),
        // Each op is a record batch; its length picks ingest, retract or
        // update.
        ops in proptest::collection::vec(proptest::collection::vec(0u32..60, 1..12usize), 1..8),
        shards in 1usize..6,
    ) {
        let sharded = ShardedDepDb::new(shards);
        let mut model = VersionedDepDb::new();
        sharded.ingest(base.clone());
        model.ingest(base);
        let snap = sharded.snapshot();
        let frozen = model.db().all_records();
        for op in ops {
            let batch: Vec<DependencyRecord> = op.iter().copied().map(decode_record).collect();
            match op.len() % 3 {
                0 => {
                    sharded.ingest(batch.clone());
                    model.ingest(batch);
                }
                1 => {
                    sharded.retract(&batch);
                    model.retract(&batch);
                }
                _ => {
                    let (stale, fresh) = batch.split_at(batch.len() / 2);
                    sharded.update(stale, fresh.to_vec());
                    model.update(stale, fresh.to_vec());
                }
            }
        }
        let shard_records = |snap: &indaas::deps::DbSnapshot, s: usize| -> Vec<DependencyRecord> {
            snap.shard(s).records_iter().map(|r| r.to_owned()).collect()
        };
        let live = sharded.snapshot();
        let now = model.db().all_records();
        for s in 0..shards {
            let in_shard = |records: &[DependencyRecord]| -> Vec<DependencyRecord> {
                records
                    .iter()
                    .filter(|r| shard_index(r.host(), shards) == s)
                    .cloned()
                    .collect()
            };
            prop_assert_eq!(shard_records(&snap, s), in_shard(&frozen));
            prop_assert_eq!(shard_records(&live, s), in_shard(&now));
        }
    }

    /// K threads ingesting disjoint-shard batches concurrently yield
    /// exactly the records and per-shard epochs of a serial replay:
    /// per-shard locking admits no interleaving that a serial order
    /// could not produce, and the global epoch counts effective batches
    /// whatever the arrival order.
    #[test]
    fn concurrent_disjoint_ingest_matches_serial_replay(
        plans in proptest::collection::vec(
            proptest::collection::vec(
                // Each small integer decodes to (host index, dep id).
                proptest::collection::vec(0u32..18, 1..6),
                1..5,
            ),
            2..5,
        ),
    ) {
        const SHARDS: usize = 8;
        // One disjoint host pool per writer thread: thread t only ever
        // touches shard t's hosts.
        let pools: Vec<Vec<String>> = (0..plans.len())
            .map(|t| {
                let mut pool = Vec::new();
                for i in 0..10_000 {
                    let host = format!("H{i}");
                    if shard_index(&host, SHARDS) == t {
                        pool.push(host);
                        if pool.len() == 3 {
                            break;
                        }
                    }
                }
                pool
            })
            .collect();
        let materialize = |t: usize, batch: &[u32]| -> Vec<DependencyRecord> {
            batch
                .iter()
                .map(|&n| {
                    DependencyRecord::Hardware(HardwareDep {
                        hw: pools[t][n as usize % 3].clone(),
                        hw_type: "CPU".to_string(),
                        dep: format!("chip{}", n / 3),
                    })
                })
                .collect()
        };

        let concurrent = ShardedDepDb::new(SHARDS);
        let barrier = std::sync::Barrier::new(plans.len());
        std::thread::scope(|scope| {
            for (t, batches) in plans.iter().enumerate() {
                let (concurrent, barrier, materialize) = (&concurrent, &barrier, &materialize);
                scope.spawn(move || {
                    barrier.wait(); // maximize overlap
                    for batch in batches {
                        concurrent.ingest(materialize(t, batch));
                    }
                });
            }
        });

        let serial = ShardedDepDb::new(SHARDS);
        for (t, batches) in plans.iter().enumerate() {
            for batch in batches {
                serial.ingest(materialize(t, batch));
            }
        }

        prop_assert_eq!(concurrent.epochs(), serial.epochs());
        prop_assert_eq!(concurrent.epoch(), serial.epoch());
        prop_assert_eq!(concurrent.len(), serial.len());
        let (csnap, ssnap) = (concurrent.snapshot(), serial.snapshot());
        prop_assert_eq!(DepView::hosts(&csnap), DepView::hosts(&ssnap));
        for host in DepView::hosts(&ssnap) {
            prop_assert_eq!(csnap.hardware_deps(&host), ssnap.hardware_deps(&host));
            prop_assert_eq!(
                csnap.pins_for_hosts([host.as_str()]),
                ssnap.pins_for_hosts([host.as_str()])
            );
        }
    }

    /// Every minimal RG fails the top event, and removing any member
    /// un-fails it (definition of minimality, §4.1.2).
    #[test]
    fn minimal_rgs_are_cut_sets_and_minimal(sets in component_sets()) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        prop_assert!(!rgs.is_empty(), "a finite graph always has cut sets");
        for g in rgs.groups() {
            let mut assignment = vec![false; graph.len()];
            for &id in g.ids() {
                assignment[id as usize] = true;
            }
            prop_assert!(graph.evaluate(&assignment));
            for &drop in g.ids() {
                let mut a = assignment.clone();
                a[drop as usize] = false;
                prop_assert!(!graph.evaluate(&a));
            }
        }
    }

    /// The minimal RG family matches brute-force enumeration over all
    /// basic-event assignments.
    #[test]
    fn minimal_rgs_match_bruteforce(sets in component_sets()) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let basic = graph.basic_ids();
        prop_assume!(basic.len() <= 12);
        let mut brute = RgFamily::new();
        for mask in 1u32..(1 << basic.len()) {
            let mut assignment = vec![false; graph.len()];
            for (bit, &id) in basic.iter().enumerate() {
                assignment[id as usize] = mask >> bit & 1 == 1;
            }
            if graph.evaluate(&assignment) {
                brute.insert(RiskGroup::new(
                    basic
                        .iter()
                        .enumerate()
                        .filter(|&(bit, _)| mask >> bit & 1 == 1)
                        .map(|(_, &id)| id)
                        .collect(),
                ));
            }
        }
        let algo = minimal_risk_groups(&graph, &MinimalConfig::default());
        prop_assert_eq!(algo.to_named(&graph), brute.to_named(&graph));
    }

    /// Failure sampling only ever reports genuine minimal RGs, and every
    /// one it reports is in the exact family.
    #[test]
    fn sampling_is_sound(sets in component_sets(), seed in 0u64..1000) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let exact = minimal_risk_groups(&graph, &MinimalConfig::default());
        let sampled = failure_sampling(&graph, &SamplingConfig {
            rounds: 300,
            fail_prob: 0.5,
            seed,
            threads: 1,
            minimize: true,
            weighted: false,
        });
        let exact_named: std::collections::HashSet<_> =
            exact.to_named(&graph).into_iter().collect();
        for g in sampled.to_named(&graph) {
            prop_assert!(exact_named.contains(&g), "sampled {g:?} not minimal");
        }
    }

    /// Subsumption minimization: no family member is a subset of another.
    #[test]
    fn family_is_antichain(groups in proptest::collection::vec(
        proptest::collection::btree_set(0u32..16, 1..5), 1..30)) {
        let fam: RgFamily = groups
            .into_iter()
            .map(|g| RiskGroup::new(g.into_iter().collect()))
            .collect();
        let items = fam.groups();
        for (i, a) in items.iter().enumerate() {
            for (j, b) in items.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset_of(b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    /// k-of-n gates: the top event fails exactly when at least k replica
    /// subtrees fail.
    #[test]
    fn kofn_threshold_semantics(n in 2usize..7, k in 1usize..7, mask in 0u32..128) {
        prop_assume!(k <= n);
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..n).map(|i| b.basic(format!("r{i}"), None)).collect();
        let top = b.gate("svc", Gate::KofN(k as u32), basics.clone());
        let graph = b.build(top).unwrap();
        let mut assignment = vec![false; graph.len()];
        let mut failed = 0;
        for (i, &id) in basics.iter().enumerate() {
            if mask >> i & 1 == 1 {
                assignment[id as usize] = true;
                failed += 1;
            }
        }
        prop_assert_eq!(graph.evaluate(&assignment), failed >= k);
    }
}

/// Protocol-v2 binary frame decoding: whatever bytes a peer feeds the
/// reader — truncated frames, lying or oversized length prefixes, raw
/// garbage — it must return an error or a clean classification, never
/// panic, and never allocate in proportion to an *announced* length the
/// peer did not actually send.
mod frame_props {
    use indaas::service::proto::{read_frame, write_frame, FrameRead};
    use proptest::prelude::*;

    /// The chunk size `read_frame` grows its buffer by; allocation may
    /// overshoot the received bytes by at most this much.
    const CHUNK: usize = 64 * 1024;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Encode/decode identity for any payload within the limit.
        #[test]
        fn roundtrip_is_identity(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            prop_assert_eq!(wire.len(), payload.len() + 4);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, 4096).unwrap(),
                FrameRead::Frame
            ));
            prop_assert_eq!(buf, payload);
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, 4096).unwrap(),
                FrameRead::Eof
            ));
        }

        /// A frame cut off anywhere — inside the length prefix or inside
        /// the announced payload — is an UnexpectedEof error, never a
        /// panic, never a bogus frame.
        #[test]
        fn truncated_frames_error(
            payload in proptest::collection::vec(any::<u8>(), 1..512),
            cut_seed in any::<usize>(),
        ) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let cut = 1 + cut_seed % (wire.len() - 1); // 1..wire.len()
            wire.truncate(cut);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            let err = read_frame(&mut cursor, &mut buf, 4096).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert!(buf.len() <= payload.len());
        }

        /// A length prefix past the limit is classified Oversized before
        /// a single payload byte is read or a single byte allocated.
        #[test]
        fn oversized_prefixes_never_allocate(
            over in 1u32..1_000_000,
            tail in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            const LIMIT: u64 = 4096;
            let announced = LIMIT as u32 + over;
            let mut wire = announced.to_be_bytes().to_vec();
            wire.extend_from_slice(&tail);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, LIMIT).unwrap(),
                FrameRead::Oversized
            ));
            prop_assert_eq!(buf.len(), 0);
            prop_assert!(buf.capacity() == 0, "rejected before any allocation");
            prop_assert!(cursor.position() == 4, "no payload byte consumed");
        }

        /// A lying in-limit prefix (announcing more than the peer ever
        /// sends) errors out with the buffer grown by at most what
        /// actually arrived plus one chunk — never the announced length.
        #[test]
        fn lying_prefixes_never_overallocate(
            announced in 1u32..16_000_000,
            sent in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assume!((sent.len() as u32) < announced);
            let mut wire = announced.to_be_bytes().to_vec();
            wire.extend_from_slice(&sent);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            let err = read_frame(&mut cursor, &mut buf, 16 * 1024 * 1024).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert!(
                buf.len() <= sent.len() + CHUNK,
                "buffer grew to {} for {} received bytes",
                buf.len(),
                sent.len()
            );
        }

        /// Raw garbage never panics the reader; anything it accepts as a
        /// frame really was length-prefix-consistent with the input.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let mut cursor = std::io::Cursor::new(bytes.clone());
            let mut buf = Vec::new();
            match read_frame(&mut cursor, &mut buf, 1024) {
                Ok(FrameRead::Frame) => {
                    prop_assert!(buf.len() + 4 <= bytes.len());
                    prop_assert_eq!(&buf[..], &bytes[4..4 + buf.len()]);
                }
                Ok(FrameRead::Eof) => prop_assert!(bytes.is_empty()),
                Ok(FrameRead::Oversized) | Err(_) => {}
            }
        }
    }
}

/// The readiness loop's incremental codecs against the blocking readers
/// they replaced: however the kernel splits a byte stream across reads,
/// the incremental extractors must produce exactly the frames/lines the
/// blocking `read_frame`/`read_bounded_line` loops did — and a write
/// queue facing a socket that takes arbitrarily few bytes per call must
/// put exactly the pushed bytes on the wire, in order.
mod codec_props {
    use indaas::service::codec::{
        frame_bytes, line_bytes, try_extract_frame, try_extract_line, WriteProgress, WriteQueue,
    };
    use indaas::service::proto::{read_bounded_line, read_frame, FrameRead, LineRead};
    use proptest::prelude::*;

    const LIMIT: u64 = 4096;

    /// Splits `wire` into chunks whose sizes cycle through `cuts`
    /// (0 = deliver one byte, mimicking the worst kernel fragmentation).
    fn chunks(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut at = 0;
        let mut i = 0;
        while at < wire.len() {
            let step = (cuts[i % cuts.len()] % 97).max(1).min(wire.len() - at);
            out.push(wire[at..at + step].to_vec());
            at += step;
            i += 1;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Frames delivered in arbitrary splits decode identically to
        /// the blocking reader on the whole stream.
        #[test]
        fn split_frames_decode_like_blocking(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300), 0..6),
            cuts in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let wire: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();

            let mut blocking = Vec::new();
            let mut cursor = std::io::Cursor::new(wire.clone());
            let mut buf = Vec::new();
            while matches!(read_frame(&mut cursor, &mut buf, LIMIT).unwrap(), FrameRead::Frame) {
                blocking.push(buf.clone());
            }

            let mut incremental = Vec::new();
            let mut inbuf = Vec::new();
            for chunk in chunks(&wire, &cuts) {
                inbuf.extend_from_slice(&chunk);
                while let Some(frame) = try_extract_frame(&mut inbuf, LIMIT).unwrap() {
                    incremental.push(frame);
                }
            }
            prop_assert_eq!(&incremental, &blocking);
            prop_assert_eq!(incremental, payloads);
            prop_assert!(inbuf.is_empty(), "no bytes left behind");
        }

        /// Lines delivered in arbitrary splits decode identically to the
        /// blocking reader (both keep the trailing newline).
        #[test]
        fn split_lines_decode_like_blocking(
            raw_lines in proptest::collection::vec(
                proptest::collection::vec(0x20u8..0x7f, 0..120), 0..6),
            cuts in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let lines: Vec<String> = raw_lines
                .into_iter()
                .map(|b| String::from_utf8(b).unwrap())
                .collect();
            let wire: Vec<u8> = lines.iter().flat_map(|l| line_bytes(l)).collect();

            let mut blocking = Vec::new();
            let mut cursor = std::io::Cursor::new(wire.clone());
            let mut buf = String::new();
            while matches!(
                read_bounded_line(&mut cursor, &mut buf, LIMIT).unwrap(),
                LineRead::Line
            ) {
                blocking.push(buf.clone());
            }

            let mut incremental = Vec::new();
            let mut inbuf = Vec::new();
            for chunk in chunks(&wire, &cuts) {
                inbuf.extend_from_slice(&chunk);
                while let Some(line) = try_extract_line(&mut inbuf, LIMIT).unwrap() {
                    incremental.push(line.unwrap());
                }
            }
            prop_assert_eq!(&incremental, &blocking);
            prop_assert!(inbuf.is_empty(), "no bytes left behind");
        }

        /// A writer that accepts arbitrarily few bytes per call (and
        /// interleaves WouldBlock) still receives exactly the pushed
        /// messages, in order, resuming mid-message losslessly.
        #[test]
        fn partial_writes_resume_losslessly(
            messages in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..200), 1..6),
            script in proptest::collection::vec(0usize..40, 1..10),
        ) {
            /// Takes `script[i] % 40` bytes per call; 0 = WouldBlock.
            struct Miserly {
                out: Vec<u8>,
                script: Vec<usize>,
                i: usize,
            }
            impl std::io::Write for Miserly {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    let quota = self.script[self.i % self.script.len()];
                    self.i += 1;
                    if quota == 0 {
                        return Err(std::io::ErrorKind::WouldBlock.into());
                    }
                    let n = quota.min(buf.len());
                    self.out.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }

            let mut script = script;
            if script.iter().all(|&q| q == 0) {
                script[0] = 1; // an always-blocking socket never drains
            }
            let mut wq = WriteQueue::new();
            for m in &messages {
                wq.push(m.clone());
            }
            let expected: Vec<u8> = messages.concat();
            let cycle = script.len();
            let mut sink = Miserly { out: Vec::new(), script, i: 0 };
            // Every full pass through the script moves ≥ 1 byte, and each
            // write_to call consumes ≥ 1 script entry.
            for _ in 0..=(expected.len() + 1) * cycle + 2 {
                match wq.write_to(&mut sink).unwrap() {
                    WriteProgress::Drained => break,
                    WriteProgress::Blocked => {}
                }
            }
            prop_assert!(wq.is_empty(), "queue drained");
            prop_assert_eq!(sink.out, expected);
        }
    }
}
