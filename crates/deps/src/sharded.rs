//! Host-sharded dependency store with per-shard locks, per-shard
//! epochs, and wait-free snapshot publication.
//!
//! The auditing daemon's write path has evolved in three steps. First
//! the store was sharded by host key so an ingest refreshes only the
//! shards it changed and invalidates only the audits pinned to them.
//! But every shard still lived under one `RwLock`: ingests to
//! *different* shards serialized, and every audit's `snapshot()` call
//! contended with writers. Cloud dependency data arrives as high-rate,
//! mostly-local updates from many collectors at once (AID,
//! arXiv:2109.04893), so the store is now **concurrent**. Finally, each
//! published shard snapshot is a structural clone ([`DepDb`] keeps each
//! host's records behind an `Arc`), so an ingest costs what it changed —
//! the edited host lists plus one pointer per host — not the size of its
//! shard:
//!
//! * every record routes to `shard_index(record.host(), N)` — all three
//!   record kinds key by host, so a host's records always land together;
//! * each shard is an independent cell: a [`VersionedDepDb`] behind its
//!   **own write mutex**, whose current `Arc<DepDb>` snapshot is
//!   published through an [`ArcSwapCell`] (atomic pointer swap). Writer
//!   and snapshots share every host list the writer has not edited
//!   since, and a replaced snapshot is parked under the write mutex
//!   until no reader holds it, so the writer — never a reader — frees
//!   it;
//! * mutations pre-route the batch by shard *before* taking any lock,
//!   then lock **only the touched shards**, in ascending index order so
//!   multi-shard batches can never deadlock against each other —
//!   writers contend only when they touch the same shard;
//! * [`ShardedDepDb::snapshot`] takes **no lock at all**: one wait-free
//!   `Arc` load per shard, with the [`EpochVector`] assembled from
//!   per-shard atomics — readers never block, and never observe a shard
//!   snapshot *newer* than its claimed epoch (each cell publishes data
//!   before epoch, and snapshots read epoch before data), so a cached
//!   audit is never pinned to an epoch whose data it did not see;
//! * [`DbSnapshot`] composes the per-shard `Arc`s into one read-only
//!   [`DepView`] the audit engines consume, and can name exactly which
//!   `(shard, epoch)` pairs a given host set reads — the audit cache
//!   keys on those pins, so audits over untouched shards stay cached
//!   across unrelated ingests.
//!
//! Per-shard write counters and a contended-acquisition gauge
//! ([`ShardedDepDb::counters`]) make the parallelism observable through
//! the daemon's `Status` response.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use crate::depdb::{DepDb, DepView};
use crate::format::{parse_records, FormatError};
use crate::record::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};
use crate::swap::ArcSwapCell;
use crate::versioned::{Epoch, VersionedDepDb};

/// Deterministic host → shard routing (FNV-1a over the host key).
///
/// Stable across processes and daemon restarts, so cache pins, segment
/// files and status reports mean the same thing on every node with the
/// same shard count.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_index(host: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be at least 1");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in host.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The per-shard epochs of a sharded store at one instant.
///
/// Equality is exact: two vectors compare equal iff every shard sits at
/// the same epoch, which is what lets the audit cache short-circuit a
/// purge when nothing can be stale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochVector(Vec<Epoch>);

impl EpochVector {
    /// The epoch of `shard` (0 for out-of-range shards — epoch 0 is the
    /// empty database).
    pub fn get(&self, shard: usize) -> Epoch {
        self.0.get(shard).copied().unwrap_or(0)
    }

    /// Number of shards covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the zero-shard vector.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw per-shard epochs.
    pub fn as_slice(&self) -> &[Epoch] {
        &self.0
    }
}

impl From<Vec<Epoch>> for EpochVector {
    fn from(epochs: Vec<Epoch>) -> Self {
        EpochVector(epochs)
    }
}

/// What one sharded ingest/retract/update batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedIngestReport {
    /// Records newly inserted (or removed, for retractions).
    pub changed: usize,
    /// Records ignored: duplicate inserts or absent removals.
    pub ignored: usize,
    /// The store's *global* epoch after the batch — bumps by one per
    /// effective batch, exactly like the monolithic [`VersionedDepDb`],
    /// so wire-protocol epoch semantics are unchanged. Under concurrent
    /// writers this is the value observed right after this batch's own
    /// bump (other batches may bump it further at any time).
    pub epoch: Epoch,
    /// Indices of the shards the batch actually changed (sorted). Empty
    /// for a pure-duplicate batch.
    pub touched: Vec<usize>,
}

/// Write-side observability counters ([`ShardedDepDb::counters`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Effective write batches applied per shard (a batch spanning K
    /// shards counts once on each).
    pub shard_writes: Vec<u64>,
    /// Times a writer found a shard lock already held and had to wait,
    /// summed over all shards — the contention gauge: near zero when
    /// writers stay on disjoint shards.
    pub lock_waits: u64,
}

/// One shard of the store: an independently-locked [`VersionedDepDb`]
/// plus its atomically-published snapshot and observability counters.
#[derive(Debug)]
pub(crate) struct ShardCell {
    /// Guards mutations to this shard only.
    pub(crate) write: Mutex<ShardWriter>,
    /// The shard's current immutable snapshot; swapped (never edited in
    /// place) after each effective mutation, so readers holding an old
    /// `Arc` keep a consistent view. Snapshot and writer share every
    /// host list the writer has not edited since (see [`DepDb`]).
    pub(crate) snap: ArcSwapCell<DepDb>,
    /// Mirror of the shard's epoch, readable without the write lock.
    /// Published *after* the snapshot swap; snapshot readers load it
    /// *before* the snapshot, so a claimed epoch never exceeds the data
    /// it pins.
    pub(crate) epoch: AtomicU64,
    /// Effective write batches applied to this shard.
    pub(crate) writes: AtomicU64,
    /// Contended lock acquisitions on this shard.
    pub(crate) lock_waits: AtomicU64,
    /// Set on every effective mutation, cleared by segment saves — lets
    /// the daemon persist only the shards that changed since the last
    /// save.
    pub(crate) dirty: AtomicBool,
}

/// The write side of one shard, guarded by its write mutex.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    /// The shard's live database; mutations edit it in place.
    db: VersionedDepDb,
    /// Replaced snapshots that readers still held when they were swapped
    /// out. Each publish drops the ones the writer has become the only
    /// holder of, so freeing a snapshot is always the writer's work —
    /// a reader's drop never releases the last reference — and the list
    /// never outgrows the snapshots readers are actually holding.
    retired: Vec<Arc<DepDb>>,
}

impl ShardCell {
    fn new(db: DepDb) -> Self {
        let versioned = VersionedDepDb::from_db(db);
        let epoch = versioned.epoch();
        let snapshot = Arc::new(versioned.db().clone());
        ShardCell {
            write: Mutex::new(ShardWriter {
                db: versioned,
                retired: Vec::new(),
            }),
            snap: ArcSwapCell::new(snapshot),
            epoch: AtomicU64::new(epoch),
            writes: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
        }
    }

    /// Publishes the shard's post-mutation state: snapshot first, epoch
    /// second (the ordering half of the "data never older than its
    /// epoch" invariant). Called with the shard write lock held. The
    /// snapshot is a structural clone of the writer's database — one
    /// pointer per host and kind, no record copied.
    fn publish(&self, writer: &mut ShardWriter) {
        let replaced = self.snap.swap(Arc::new(writer.db.db().clone()));
        writer.retired.push(replaced);
        // A count of 1 is the list's own reference: no reader can reach
        // the snapshot any more, so no count can be taken concurrently.
        writer.retired.retain(|snap| Arc::strong_count(snap) > 1);
        self.epoch.store(writer.db.epoch(), Ordering::Release);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Release);
    }
}

/// A dependency store sharded by host key: per-shard write locks,
/// wait-free snapshots that share storage with the writer.
///
/// All mutation entry points ([`ShardedDepDb::ingest`],
/// [`ShardedDepDb::retract`], [`ShardedDepDb::update`]) take `&self`:
/// the store is safe to share across threads directly (no external lock
/// needed), and writers to disjoint shards proceed in parallel.
#[derive(Debug)]
pub struct ShardedDepDb {
    pub(crate) shards: Vec<ShardCell>,
    /// Global batch counter matching [`VersionedDepDb`] semantics.
    pub(crate) epoch: AtomicU64,
    /// Serializes whole-store segment saves (`crate::persist`): two
    /// concurrent savers — the daemon's collector tick racing its
    /// shutdown save — would otherwise claim dirty flags and rename
    /// segment files in an interleaved order that can publish an older
    /// snapshot over a newer one.
    pub(crate) persist: Mutex<()>,
}

impl ShardedDepDb {
    /// An empty store with `shards` shards (clamped to at least 1), all
    /// at epoch 0.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedDepDb {
            shards: (0..shards).map(|_| ShardCell::new(DepDb::new())).collect(),
            epoch: AtomicU64::new(0),
            persist: Mutex::new(()),
        }
    }

    /// Routes an existing database's records into `shards` shards. A
    /// non-empty seed starts at global epoch 1 (and every non-empty
    /// shard at shard epoch 1), matching [`VersionedDepDb::from_db`].
    pub fn from_db(db: DepDb, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut routed: Vec<DepDb> = (0..shards).map(|_| DepDb::new()).collect();
        for rec in db.records_iter() {
            routed[shard_index(rec.host(), shards)].insert(rec.to_owned());
        }
        Self::from_routed(routed, Epoch::from(!db.is_empty()))
    }

    /// Assembles a store from already-routed per-shard databases (the
    /// segment loader's entry point — it has per-shard record sets in
    /// hand and must not pay a second routing pass).
    pub(crate) fn from_routed(routed: Vec<DepDb>, epoch: Epoch) -> Self {
        ShardedDepDb {
            shards: routed.into_iter().map(ShardCell::new).collect(),
            epoch: AtomicU64::new(epoch),
            persist: Mutex::new(()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `host`'s records route to.
    pub fn shard_of(&self, host: &str) -> usize {
        shard_index(host, self.shards.len())
    }

    /// The global epoch: bumps by one per effective batch.
    pub fn epoch(&self) -> Epoch {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The per-shard epochs, read from the published atomics — no lock.
    pub fn epochs(&self) -> EpochVector {
        EpochVector(
            self.shards
                .iter()
                .map(|c| c.epoch.load(Ordering::Acquire))
                .collect(),
        )
    }

    /// Per-shard write counters and the lock-contention gauge.
    pub fn counters(&self) -> ShardCounters {
        ShardCounters {
            shard_writes: self
                .shards
                .iter()
                .map(|c| c.writes.load(Ordering::Relaxed))
                .collect(),
            lock_waits: self
                .shards
                .iter()
                .map(|c| c.lock_waits.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Distinct records in shard `shard` (via its published snapshot).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].snap.load().len()
    }

    /// Total distinct records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|c| c.snap.load().len()).sum()
    }

    /// True if no shard holds any record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|c| c.snap.load().is_empty())
    }

    /// A copy-on-write snapshot of the whole store: one wait-free `Arc`
    /// load per shard, no lock, no record copied. Cheap enough to take
    /// per request, and never delayed by concurrent writers.
    ///
    /// Each shard's epoch is read *before* its data, and writers publish
    /// data *before* epoch — so a pinned `(shard, epoch)` pair never
    /// claims an epoch newer than the data backing it (the safe
    /// direction for the audit cache: at worst a result computed on
    /// fresher data is pinned to an already-stale epoch and simply never
    /// served).
    pub fn snapshot(&self) -> DbSnapshot {
        let mut epochs = Vec::with_capacity(self.shards.len());
        let mut shards = Vec::with_capacity(self.shards.len());
        for cell in &self.shards {
            epochs.push(cell.epoch.load(Ordering::Acquire));
            shards.push(cell.snap.load());
        }
        DbSnapshot {
            shards,
            epochs: EpochVector(epochs),
        }
    }

    /// Locks one shard for writing, counting contended acquisitions.
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, ShardWriter> {
        let cell = &self.shards[shard];
        match cell.write.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                cell.lock_waits.fetch_add(1, Ordering::Relaxed);
                cell.write.lock().expect("shard lock poisoned")
            }
            Err(TryLockError::Poisoned(e)) => panic!("shard lock poisoned: {e}"),
        }
    }

    /// Groups an owned record batch by destination shard, preserving
    /// order. Runs *before* any lock is taken.
    fn route(
        &self,
        records: impl IntoIterator<Item = DependencyRecord>,
    ) -> Vec<Vec<DependencyRecord>> {
        let mut routed: Vec<Vec<DependencyRecord>> = vec![Vec::new(); self.shards.len()];
        for r in records {
            routed[shard_index(r.host(), self.shards.len())].push(r);
        }
        routed
    }

    /// Groups a borrowed record batch by destination shard — retract and
    /// update only need references, so routing must not clone a large
    /// batch on the daemon's write path.
    fn route_refs<'a>(
        &self,
        records: impl IntoIterator<Item = &'a DependencyRecord>,
    ) -> Vec<Vec<&'a DependencyRecord>> {
        let mut routed: Vec<Vec<&'a DependencyRecord>> = vec![Vec::new(); self.shards.len()];
        for r in records {
            routed[shard_index(r.host(), self.shards.len())].push(r);
        }
        routed
    }

    /// The shared mutation driver: locks the hit shards in ascending
    /// index order (the deadlock-freedom discipline — two multi-shard
    /// batches always acquire their common shards in the same order),
    /// applies each shard's slice, publishes changed shards (snapshot
    /// swap + epoch), and bumps the global epoch once if anything
    /// changed. Locks are held only across apply + publish; routing
    /// happened before any lock.
    fn apply_routed<F>(&self, hit: Vec<usize>, mut apply: F) -> ShardedIngestReport
    where
        F: FnMut(usize, &mut VersionedDepDb) -> crate::versioned::IngestReport,
    {
        debug_assert!(hit.windows(2).all(|w| w[0] < w[1]), "ascending lock order");
        let mut report = ShardedIngestReport::default();
        let mut guards: Vec<(usize, MutexGuard<'_, ShardWriter>)> =
            hit.into_iter().map(|s| (s, self.lock_shard(s))).collect();
        for (s, guard) in &mut guards {
            let shard_report = apply(*s, &mut guard.db);
            report.changed += shard_report.changed;
            report.ignored += shard_report.ignored;
            if shard_report.changed > 0 {
                self.shards[*s].publish(guard);
                report.touched.push(*s);
            }
        }
        report.epoch = if report.touched.is_empty() {
            self.epoch.load(Ordering::SeqCst)
        } else {
            self.epoch.fetch_add(1, Ordering::SeqCst) + 1
        };
        report
    }

    /// Ingests a record batch. Only the shards the batch routes to are
    /// locked; only shards that gained a record bump their epoch and
    /// publish a fresh snapshot. A pure-duplicate batch touches nothing.
    pub fn ingest(
        &self,
        records: impl IntoIterator<Item = DependencyRecord>,
    ) -> ShardedIngestReport {
        let mut routed = self.route(records);
        let hit: Vec<usize> = (0..routed.len())
            .filter(|&s| !routed[s].is_empty())
            .collect();
        self.apply_routed(hit, |s, db| db.ingest(std::mem::take(&mut routed[s])))
    }

    /// Parses Table-1 text and ingests it as one batch.
    ///
    /// # Errors
    ///
    /// Returns the parse error without touching any shard or epoch — a
    /// malformed batch is rejected atomically.
    pub fn ingest_text(&self, text: &str) -> Result<ShardedIngestReport, FormatError> {
        let records = parse_records(text)?;
        Ok(self.ingest(records))
    }

    /// Retracts records (exact match), locking only their hosts' shards.
    pub fn retract(&self, records: &[DependencyRecord]) -> ShardedIngestReport {
        let mut routed = self.route_refs(records);
        let hit: Vec<usize> = (0..routed.len())
            .filter(|&s| !routed[s].is_empty())
            .collect();
        self.apply_routed(hit, |s, db| db.retract_refs(std::mem::take(&mut routed[s])))
    }

    /// Atomic update: retract `stale` and ingest `fresh` with one global
    /// epoch bump if the batch changed anything net. Each shard applies
    /// its slice of the update with [`VersionedDepDb::update`] no-op
    /// semantics, so a collector re-measuring an unchanged world bumps
    /// nothing anywhere. All shards the update spans are held for the
    /// whole batch (acquired in ascending order), so no concurrent
    /// writer observes the retract without the matching ingest on any
    /// single shard.
    pub fn update(
        &self,
        stale: &[DependencyRecord],
        fresh: impl IntoIterator<Item = DependencyRecord>,
    ) -> ShardedIngestReport {
        let mut stale_routed = self.route_refs(stale);
        let mut fresh_routed = self.route(fresh);
        let hit: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !stale_routed[s].is_empty() || !fresh_routed[s].is_empty())
            .collect();
        self.apply_routed(hit, |s, db| {
            db.update_refs(
                std::mem::take(&mut stale_routed[s]),
                std::mem::take(&mut fresh_routed[s]),
            )
        })
    }
}

/// An immutable, epoch-pinned view over all shards of a [`ShardedDepDb`]
/// — what audit jobs read.
///
/// Cloning is N pointer bumps. A snapshot is per-shard consistent: each
/// shard's `Arc` is an immutable database later ingests can never mutate
/// (the store swaps in fresh snapshots instead of editing in place), and
/// each pinned epoch is never newer than its shard's data.
#[derive(Clone, Debug)]
pub struct DbSnapshot {
    shards: Vec<Arc<DepDb>>,
    epochs: EpochVector,
}

impl DbSnapshot {
    /// Wraps one monolithic database as a single-shard snapshot — the
    /// adapter for non-sharded callers (tests, one-shot CLI paths).
    pub fn single(db: Arc<DepDb>, epoch: Epoch) -> Self {
        DbSnapshot {
            shards: vec![db],
            epochs: EpochVector(vec![epoch]),
        }
    }

    /// Number of shards composed.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The epoch vector pinned at snapshot time.
    pub fn epochs(&self) -> &EpochVector {
        &self.epochs
    }

    /// The shard `host` routes to.
    pub fn shard_of(&self, host: &str) -> usize {
        shard_index(host, self.shards.len())
    }

    /// The snapshot of shard `shard`.
    pub fn shard(&self, shard: usize) -> &Arc<DepDb> {
        &self.shards[shard]
    }

    fn shard_for(&self, host: &str) -> &DepDb {
        &self.shards[self.shard_of(host)]
    }

    /// The sorted, deduplicated `(shard, epoch)` pairs a query over
    /// `hosts` reads — the audit cache keys on exactly these pins, so a
    /// cached audit stays valid across ingests that only touch *other*
    /// shards.
    pub fn pins_for_hosts<'a>(
        &self,
        hosts: impl IntoIterator<Item = &'a str>,
    ) -> Vec<(u32, Epoch)> {
        let mut shards: Vec<usize> = hosts.into_iter().map(|h| self.shard_of(h)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
            .into_iter()
            .map(|s| (s as u32, self.epochs.get(s)))
            .collect()
    }
}

impl DepView for DbSnapshot {
    fn network_deps(&self, host: &str) -> &[NetworkDep] {
        self.shard_for(host).network_deps(host)
    }

    fn hardware_deps(&self, host: &str) -> &[HardwareDep] {
        self.shard_for(host).hardware_deps(host)
    }

    fn software_deps(&self, host: &str) -> &[SoftwareDep] {
        self.shard_for(host).software_deps(host)
    }

    fn hosts(&self) -> BTreeSet<String> {
        self.shards.iter().flat_map(|s| s.hosts()).collect()
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn component_set_of(&self, host: &str) -> BTreeSet<String> {
        self.shard_for(host).component_set_of(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_record;

    fn rec(line: &str) -> DependencyRecord {
        parse_record(line).unwrap()
    }

    fn host_record(host: &str, dep: &str) -> DependencyRecord {
        rec(&format!("<hw=\"{host}\" type=\"CPU\" dep=\"{dep}\"/>"))
    }

    /// Two hosts guaranteed to live in different shards of an
    /// `n`-sharded store (panics if `n == 1`).
    fn split_hosts(n: usize) -> (String, String) {
        let a = "H0".to_string();
        for i in 1..10_000 {
            let b = format!("H{i}");
            if shard_index(&b, n) != shard_index(&a, n) {
                return (a, b);
            }
        }
        panic!("no host pair split across {n} shards");
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in [1, 2, 8, 64] {
            for host in ["S1", "S2", "a-very-long-host-name", ""] {
                let s = shard_index(host, n);
                assert!(s < n);
                assert_eq!(s, shard_index(host, n), "routing must be stable");
            }
        }
    }

    #[test]
    fn ingest_touches_only_the_hosts_shards() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        let report = db.ingest([host_record(&a, "cpu-1")]);
        assert_eq!(report.changed, 1);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.touched, vec![db.shard_of(&a)]);
        let epochs = db.epochs();
        assert_eq!(epochs.get(db.shard_of(&a)), 1);
        assert_eq!(epochs.get(db.shard_of(&b)), 0);
    }

    #[test]
    fn untouched_shards_share_their_snapshot_arc() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1"), host_record(&b, "cpu-2")]);
        let before = db.snapshot();
        // Ingest into b's shard only: a's snapshot Arc must be *shared*,
        // not re-cloned — that sharing is the whole point of sharding.
        db.ingest([host_record(&b, "cpu-3")]);
        let after = db.snapshot();
        let (sa, sb) = (db.shard_of(&a), db.shard_of(&b));
        assert!(
            Arc::ptr_eq(before.shard(sa), after.shard(sa)),
            "untouched shard must keep sharing its snapshot"
        );
        assert!(
            !Arc::ptr_eq(before.shard(sb), after.shard(sb)),
            "dirty shard must get a fresh snapshot"
        );
    }

    #[test]
    fn duplicate_batch_refreshes_nothing() {
        let db = ShardedDepDb::new(4);
        db.ingest([host_record("S1", "cpu-1")]);
        let before = db.snapshot();
        let report = db.ingest([host_record("S1", "cpu-1")]);
        assert_eq!((report.changed, report.ignored), (0, 1));
        assert!(report.touched.is_empty());
        assert_eq!(db.epoch(), 1, "duplicate batch must not bump the epoch");
        let after = db.snapshot();
        for s in 0..db.num_shards() {
            assert!(Arc::ptr_eq(before.shard(s), after.shard(s)));
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_ingests() {
        let db = ShardedDepDb::new(4);
        db.ingest([host_record("S1", "cpu-1")]);
        let snap = db.snapshot();
        let pinned = snap.epochs().clone();
        db.ingest([host_record("S1", "cpu-2"), host_record("S2", "disk-1")]);
        assert_eq!(
            snap.record_count(),
            1,
            "snapshot must not see later ingests"
        );
        assert_eq!(
            snap.epochs(),
            &pinned,
            "snapshot pins the epoch vector it was taken at"
        );
        assert!(db.epochs() != pinned, "the live store moved on");
        assert_eq!(db.snapshot().record_count(), 3);
    }

    #[test]
    fn replaced_snapshots_are_freed_by_the_writer_not_by_readers() {
        let db = ShardedDepDb::new(4);
        db.ingest([host_record("S1", "cpu-1")]);
        let s = db.shard_of("S1");
        let held = Arc::clone(db.snapshot().shard(s));
        let weak = Arc::downgrade(&held);
        db.ingest([host_record("S1", "cpu-2")]);
        drop(held);
        assert!(
            weak.upgrade().is_some(),
            "a reader dropping a replaced snapshot must not free it"
        );
        db.ingest([host_record("S1", "cpu-3")]);
        assert!(
            weak.upgrade().is_none(),
            "the next write to the shard frees it"
        );
        let writer = db.shards[s].write.lock().unwrap();
        assert!(
            writer.retired.is_empty(),
            "snapshots no reader holds are never kept"
        );
    }

    #[test]
    fn sharded_matches_monolithic_semantics() {
        let records = vec![
            rec(r#"<src="S1" dst="Internet" route="tor1,core1"/>"#),
            rec(r#"<src="S2" dst="Internet" route="tor1,core2"/>"#),
            host_record("S1", "cpu-1"),
            rec(r#"<pgm="Riak1" hw="S3" dep="libc6,libsvn1"/>"#),
        ];
        let mono = DepDb::from_records(records.clone());
        let sharded = ShardedDepDb::new(8);
        let report = sharded.ingest(records.clone());
        assert_eq!(report.changed, mono.len());
        assert_eq!(sharded.len(), mono.len());
        let snap = sharded.snapshot();
        assert_eq!(DepView::hosts(&snap), DepDb::hosts(&mono));
        for host in mono.hosts() {
            assert_eq!(
                DepView::component_set_of(&snap, &host),
                mono.component_set_of(&host)
            );
            assert_eq!(
                DepView::network_deps(&snap, &host),
                mono.network_deps(&host)
            );
        }
        // Retract parity.
        let r = sharded.retract(&records);
        assert_eq!(r.changed, mono.len());
        assert!(sharded.is_empty());
    }

    #[test]
    fn update_bumps_global_epoch_once() {
        let db = ShardedDepDb::new(4);
        let stale = host_record("S1", "cpu-old");
        db.ingest([stale.clone(), host_record("S2", "disk-1")]);
        assert_eq!(db.epoch(), 1);
        let report = db.update(std::slice::from_ref(&stale), [host_record("S1", "cpu-new")]);
        assert_eq!(report.changed, 2);
        assert_eq!(db.epoch(), 2, "one batch = one global bump");
        // Self-update is a net no-op: no bump anywhere.
        let again = host_record("S1", "cpu-new");
        let report = db.update(std::slice::from_ref(&again), [again.clone()]);
        assert_eq!(report.changed, 0);
        assert_eq!(db.epoch(), 2);
    }

    #[test]
    fn from_db_reroutes_and_seeds_epochs() {
        let mono = DepDb::from_records(vec![
            host_record("S1", "cpu-1"),
            host_record("S2", "cpu-2"),
            rec(r#"<src="S1" dst="Internet" route="tor1"/>"#),
        ]);
        let sharded = ShardedDepDb::from_db(mono.clone(), 8);
        assert_eq!(sharded.epoch(), 1, "non-empty seed starts at epoch 1");
        assert_eq!(sharded.len(), mono.len());
        let snap = sharded.snapshot();
        for host in mono.hosts() {
            assert_eq!(
                DepView::component_set_of(&snap, &host),
                mono.component_set_of(&host)
            );
        }
        assert_eq!(ShardedDepDb::from_db(DepDb::new(), 4).epoch(), 0);
    }

    #[test]
    fn pins_cover_exactly_the_read_shards() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1"), host_record(&b, "cpu-2")]);
        let snap = db.snapshot();
        let pins = snap.pins_for_hosts([a.as_str(), b.as_str(), a.as_str()]);
        let mut expect = vec![(snap.shard_of(&a) as u32, 1), (snap.shard_of(&b) as u32, 1)];
        expect.sort_unstable();
        assert_eq!(pins, expect, "pins are sorted and deduplicated");
    }

    #[test]
    fn single_snapshot_wraps_a_monolithic_db() {
        let db = Arc::new(DepDb::from_records(vec![host_record("S1", "cpu-1")]));
        let snap = DbSnapshot::single(Arc::clone(&db), 3);
        assert_eq!(snap.num_shards(), 1);
        assert_eq!(snap.record_count(), 1);
        assert_eq!(snap.pins_for_hosts(["S1", "S2"]), vec![(0, 3)]);
    }

    #[test]
    fn writes_and_lock_waits_are_counted() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1")]);
        db.ingest([host_record(&a, "cpu-2"), host_record(&b, "cpu-1")]);
        db.ingest([host_record(&a, "cpu-2")]); // pure duplicate: no write
        let counters = db.counters();
        assert_eq!(counters.shard_writes[db.shard_of(&a)], 2);
        assert_eq!(counters.shard_writes[db.shard_of(&b)], 1);
        assert_eq!(
            counters.shard_writes.iter().sum::<u64>(),
            3,
            "only effective batches count as writes"
        );
        assert_eq!(counters.lock_waits, 0, "uncontended writes never wait");
    }

    /// Writers on disjoint shards running concurrently land exactly the
    /// records and per-shard epochs a serial replay would (the e2e-sized
    /// version of this property lives in tests/properties.rs).
    #[test]
    fn concurrent_disjoint_writers_match_serial() {
        let shards = 4;
        let concurrent = ShardedDepDb::new(shards);
        let serial = ShardedDepDb::new(shards);
        // One host pool per shard.
        let mut pools: Vec<Vec<String>> = vec![Vec::new(); shards];
        for i in 0..10_000 {
            let host = format!("H{i}");
            let s = shard_index(&host, shards);
            if pools[s].len() < 2 {
                pools[s].push(host);
            }
            if pools.iter().all(|p| p.len() == 2) {
                break;
            }
        }
        std::thread::scope(|scope| {
            for pool in &pools {
                let db = &concurrent;
                scope.spawn(move || {
                    for batch in 0..5 {
                        let records: Vec<DependencyRecord> = pool
                            .iter()
                            .map(|h| host_record(h, &format!("dep-{batch}")))
                            .collect();
                        db.ingest(records);
                    }
                });
            }
        });
        for pool in &pools {
            for batch in 0..5 {
                let records: Vec<DependencyRecord> = pool
                    .iter()
                    .map(|h| host_record(h, &format!("dep-{batch}")))
                    .collect();
                serial.ingest(records);
            }
        }
        assert_eq!(concurrent.epochs(), serial.epochs());
        assert_eq!(concurrent.epoch(), serial.epoch());
        let (csnap, ssnap) = (concurrent.snapshot(), serial.snapshot());
        assert_eq!(DepView::hosts(&csnap), DepView::hosts(&ssnap));
        for host in DepView::hosts(&ssnap) {
            assert_eq!(csnap.component_set_of(&host), ssnap.component_set_of(&host));
        }
    }
}
