//! The continuous auditing daemon.
//!
//! One readiness loop ([`crate::netloop`]), a fixed [`Scheduler`] pool
//! doing the actual audit work, and **zero idle threads**: every client
//! connection — v1 line mode and multiplexed v2 frames alike — is
//! served by the single epoll loop, which parses requests, consults the
//! audit-result cache, and admits real work onto the pool with a
//! response slot the job fulfills when done. Responses and pushed
//! [`Response::AuditEvent`] frames share each connection's bounded
//! outbox ([`crate::subs::Outbox`]) — a slow consumer sheds its oldest
//! events and never blocks anything — drained by the loop on
//! writability. A slow audit can never starve protocol handling, and an
//! idle connection costs a poll registration, not two thread stacks.
//!
//! This module owns everything that is not the loop itself: the config,
//! the shared [`ServiceState`], request admission/dispatch
//! ([`admit_request`]), subscriptions, federation, persistence, and the
//! blocking federation *peer* sessions (handed off the shared listener
//! by the loop after their `FederateHello`).
//!
//! Subscriptions ride the single write path: every mutation asks the
//! [`SubscriptionRegistry`] which live subscriptions it invalidated
//! (their `(shard, epoch)` pins moved) and schedules one pushed audit
//! per hit on the worker pool — the ingest itself never waits.
//!
//! Data flow for an `AuditSia` request:
//!
//! 1. pin a copy-on-write [`DbSnapshot`] — one **wait-free** `Arc` load
//!    per shard, no lock at all, never delayed by concurrent ingests;
//! 2. content-hash `(epoch pins of the shards the spec reads, spec)` →
//!    cache hit ⇒ answer immediately with `cached: true`;
//! 3. miss ⇒ submit a job carrying the snapshot and a deadline-armed
//!    [`CancelToken`]; the worker runs the cancellable audit entry point
//!    and sends the result back over a channel;
//! 4. insert the report into the cache keyed by the *pinned* shard
//!    epochs (a concurrent ingest bumps a read shard's epoch, so the
//!    entry is already stale and unreachable — and purged on the next
//!    ingest; ingests to *other* shards leave it hot).
//!
//! Writes take no global lock either: the [`ShardedDepDb`] routes each
//! batch by host shard before locking, then locks only the touched
//! shards — concurrent ingests to different hosts' shards land in
//! parallel. Per-shard write counters and a `lock_waits` contention
//! gauge surface through `Status`.
//!
//! With [`ServeConfig::db_dir`] set, the store persists as one segment
//! file per shard plus a manifest: dirty shards are saved on collector
//! ticks and at shutdown, every file crash-safely (temp + rename).

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use indaas_core::{AuditSpec, AuditingAgent, CancelToken};
use indaas_deps::{
    DbSnapshot, DepView, DependencyAcquisitionModule, DependencyRecord, ShardedDepDb,
    VersionedDepDb,
};
use indaas_obs::{format_trace_id, log as slog, Span, Trace, TraceContext, TraceScope};
use indaas_pia::{rank_deployments_cancellable, PiaRanking, PsopConfig};
use indaas_sia::AuditReport;

use indaas_faultinj::points;

use crate::cache::{job_key, AuditCache, EpochPins};
use crate::names;
use crate::netloop::{CrashGuard, LoopShared, PendingPush, ResponseSlot};
use crate::proto::{
    decode_line, decode_payload, decode_traced_round_frame, encode_line, encode_payload,
    read_bounded_line, read_frame, FrameRead, LineRead, Request, Response, ResponseEnvelope,
    SpanEntry, EVENT_ENVELOPE_ID, MAX_NODE_NAME_BYTES,
};
use crate::scheduler::Scheduler;
use crate::subs::{Outbox, SubscriptionRegistry};
use crate::telemetry::{wire_histos, wire_traces, StageRecorder, Telemetry, DEFAULT_RECENT_TRACES};

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Audit worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (admission control).
    pub queue_capacity: usize,
    /// Audit-result cache capacity, in entries.
    pub cache_capacity: usize,
    /// Deadline applied to jobs whose request carries no `timeout_ms`.
    pub default_deadline: Duration,
    /// Hard ceiling on client-supplied `timeout_ms` — a request cannot
    /// arm a longer deadline than this (admission control would be
    /// defeated by `timeout_ms: u64::MAX`).
    pub max_deadline: Duration,
    /// Default per-round deadline for federated protocol rounds (a
    /// `FederateStart` may shorten it, clamped here at the top).
    pub round_timeout: Duration,
    /// Re-run the registered dependency collectors this often, ingesting
    /// whatever they report (`None` disables the timer).
    pub collect_interval: Option<Duration>,
    /// Dependency-store shards (clamped to at least 1). More shards
    /// make each ingest's snapshot refresh smaller (it copies one
    /// pointer per host of the touched shard, never a record), write
    /// concurrency wider (writers lock only the shards they touch) and
    /// cache invalidation narrower (audits pinned to untouched shards
    /// stay cached); the cost is `shards` `Arc` loads per snapshot.
    pub shards: usize,
    /// Segmented persistence directory. When set, [`Server::bind`]
    /// loads the store from it (segments in parallel; a legacy
    /// monolithic file migrates transparently via
    /// [`ShardedDepDb::open`]) and the daemon saves dirty shards after
    /// every collector tick and at shutdown — each file written
    /// crash-safely. `None` keeps the store memory-only.
    pub db_dir: Option<PathBuf>,
    /// Most concurrently served client connections. A connection past
    /// the limit is answered with one clear protocol error and dropped
    /// before it can claim a handler thread's stack or a subscription
    /// slot — unbounded fan-in degrades into fast, explicit rejection
    /// instead of thread exhaustion.
    pub max_conns: usize,
    /// Flight-recorder slow threshold: an audit/request trace whose
    /// total time reaches this many milliseconds is flagged `slow` in
    /// `Metrics` responses. `0` flags everything (useful in tests).
    pub slow_audit_ms: u64,
    /// Minimum severity the structured logger emits (process-global;
    /// applied at bind).
    pub log_level: indaas_obs::LogLevel,
    /// Emit log lines as one JSON object per line instead of text
    /// (process-global; applied at bind).
    pub log_json: bool,
    /// Fault-injection specs (`<point>=<policy>[:prob][:seed]`, see
    /// `indaas-faultinj`) armed at bind. The registry is
    /// process-global; this field exists so `serve --fault` arms it
    /// through the same config surface as everything else. Empty (the
    /// default) leaves injection entirely off — a single relaxed atomic
    /// load per point.
    pub faults: Vec<String>,
    /// Debounce window for subscription pushes, in milliseconds. With a
    /// nonzero window, an ingest burst invalidating the same
    /// subscription repeatedly schedules **one** pushed audit per
    /// window (armed on the readiness loop's timer wheel) instead of
    /// one per batch; push latency is measured from the *earliest*
    /// coalesced trigger. `0` (the default) keeps the immediate
    /// schedule-per-batch behavior.
    pub push_debounce_ms: u64,
    /// Segment/manifest files the boot-time store load quarantined
    /// (`*.quarantine`), counted into `db_segments_quarantined_total`
    /// at bind. [`Server::bind`] fills this in from its own
    /// [`ShardedDepDb::open_reporting`] call; a caller handing
    /// [`Server::bind_with_store`] a store it opened itself sets the
    /// count from its own [`indaas_deps::persist::LoadReport`].
    pub boot_quarantined: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4914".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).clamp(1, 8))
                .unwrap_or(2),
            queue_capacity: 256,
            cache_capacity: 4096,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            round_timeout: Duration::from_secs(10),
            collect_interval: None,
            shards: 8,
            db_dir: None,
            max_conns: 1024,
            slow_audit_ms: 1000,
            log_level: indaas_obs::LogLevel::Info,
            log_json: false,
            faults: Vec::new(),
            push_debounce_ms: 0,
            boot_quarantined: 0,
        }
    }
}

/// Context a [`FederationEngine`] receives when asked to run a party:
/// the epoch-pinned database snapshot its component set derives from,
/// plus enough daemon identity to refuse self-peering.
pub struct FederationCtx {
    /// Immutable, epoch-pinned snapshot of the sharded dependency
    /// database (read through [`indaas_deps::DepView`]).
    pub snapshot: DbSnapshot,
    /// The daemon's bound listen address.
    pub local_addr: SocketAddr,
    /// Default per-round deadline from [`ServeConfig::round_timeout`].
    pub round_timeout: Duration,
}

/// A parsed `FederateStart` instruction.
#[derive(Clone, Debug)]
pub struct PartyInstruction {
    /// Federation session id.
    pub session: u64,
    /// This daemon's ring index.
    pub index: u32,
    /// Number of provider parties.
    pub parties: u32,
    /// Ring successor address.
    pub successor: String,
    /// P-SOP seed.
    pub seed: u64,
    /// Multiset disambiguation flag.
    pub multiset: bool,
    /// Requested per-round deadline (clamped to the server default).
    pub round_timeout_ms: Option<u64>,
    /// The party's span context when the `FederateStart` envelope
    /// carried a trace. The engine stamps outgoing round frames with
    /// children of this span (on sessions that negotiated tracing), so
    /// the *receiving* daemon's frame spans parent-link back to this
    /// party across the process boundary.
    pub trace: Option<TraceContext>,
}

/// What a completed party hands back for the `FederateDone` response.
#[derive(Clone, Debug)]
pub struct PartyCompletion {
    /// Fully-encrypted list for the auditing agent.
    pub payload: Vec<u8>,
    /// Protocol payload bytes sent (ring + agent hop).
    pub sent_bytes: u64,
    /// Protocol payload bytes received.
    pub recv_bytes: u64,
    /// Protocol messages sent.
    pub sent_msgs: u64,
    /// Protocol messages received.
    pub recv_msgs: u64,
    /// Bytes actually written to the successor socket, framing
    /// included (what the wire-efficiency comparison measures).
    pub wire_sent_bytes: u64,
    /// Ring frame sends retried after a transient failure (surfaced as
    /// `fed_frame_retries_total`).
    pub frame_retries: u64,
    /// Ring successor re-dials performed, 0 or 1 (surfaced as
    /// `fed_redials_total`).
    pub redials: u64,
}

/// The extension point federated auditing plugs into the daemon.
///
/// The server owns the listener, connection threads and the wire
/// protocol; the engine owns everything federation-specific — handshake
/// policy, session mailboxes, peer dialing, and the per-party protocol
/// rounds. `indaas-federation` provides the production implementation;
/// a daemon without an engine rejects every `Federate*` request with a
/// clear error.
pub trait FederationEngine: Send + Sync {
    /// Negotiates a peer handshake. `trace` is whether the dialer
    /// offered the round-frame trace extension; the returned bool is
    /// whether it is on for this session (never when the negotiated
    /// version is < 2 — v1 peers negotiate tracing away). Returns
    /// `(negotiated version, own node name, tracing on)` or a rejection
    /// message (version too old, self-connection, unknown peer).
    ///
    /// # Errors
    ///
    /// A human-readable rejection; the server answers with it and drops
    /// the connection.
    fn handshake(
        &self,
        offered: u32,
        peer_node: &str,
        trace: bool,
    ) -> Result<(u32, String, bool), String>;

    /// Routes one peer round frame to its session.
    ///
    /// # Errors
    ///
    /// A human-readable rejection (bad indices, dead session); the
    /// server reports it and drops the peer connection.
    fn deliver(&self, session: u64, round: u32, from: u32, payload: Vec<u8>) -> Result<(), String>;

    /// Runs this daemon's party of a federated audit, blocking until the
    /// rounds complete or a deadline expires.
    ///
    /// # Errors
    ///
    /// A human-readable failure sent back to the coordinator.
    fn run_party(
        &self,
        instruction: PartyInstruction,
        ctx: FederationCtx,
    ) -> Result<PartyCompletion, String>;
}

pub(crate) struct ServiceState {
    pub(crate) config: ServeConfig,
    /// The sharded dependency store — shared directly, **no global
    /// lock**. Each shard carries its own write mutex and publishes its
    /// snapshot (a structural clone sharing every untouched host's
    /// records) through an atomic pointer swap, so
    /// concurrent ingests to different shards land in parallel and
    /// snapshotting for an audit is N wait-free `Arc` loads regardless
    /// of database size or writer traffic.
    pub(crate) db: ShardedDepDb,
    pub(crate) sia_cache: Mutex<AuditCache<AuditReport>>,
    pub(crate) pia_cache: Mutex<AuditCache<Vec<PiaRanking>>>,
    pub(crate) scheduler: Scheduler,
    pub(crate) started: Instant,
    pub(crate) shutting_down: AtomicBool,
    /// Mutations currently inside [`apply_mutation`]. The shutdown path
    /// waits for this to drain before its final segment save, so an
    /// acknowledged ingest can never slip in after the last save and
    /// vanish with the process (mutations arriving after the shutdown
    /// flag are rejected instead of acknowledged).
    pub(crate) in_flight_mutations: AtomicU64,
    pub(crate) local_addr: SocketAddr,
    pub(crate) federation: Mutex<Option<Arc<dyn FederationEngine>>>,
    pub(crate) collectors: Mutex<Vec<Box<dyn DependencyAcquisitionModule + Send>>>,
    /// Live audit subscriptions across every v2 connection; the single
    /// write path asks it which ones each batch invalidated.
    pub(crate) subs: SubscriptionRegistry,
    /// `AuditEvent` frames enqueued to subscriber outboxes since start.
    pub(crate) pushed_events: AtomicU64,
    /// Client connections currently being served (v1, v2 and peer
    /// sessions alike) — compared against [`ServeConfig::max_conns`].
    pub(crate) active_conns: AtomicUsize,
    /// Connection-id source: ties subscriptions to the connection that
    /// made them so teardown and `Unsubscribe` ownership checks work.
    pub(crate) next_conn_id: AtomicU64,
    /// Metrics registry + flight recorder + hot-path handles.
    pub(crate) telemetry: Arc<Telemetry>,
    /// The running readiness loop's cross-thread face — `Some` while
    /// [`Server::run`] is inside the loop. Shutdown and the debounce
    /// path reach the loop through it.
    pub(crate) loop_shared: Mutex<Option<Arc<LoopShared>>>,
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. With
    /// [`ServeConfig::db_dir`] set, the dependency store is loaded from
    /// it first (segment files in parallel; an empty or missing
    /// directory starts empty and is created by the first save).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and db-dir load failures.
    pub fn bind(mut config: ServeConfig) -> std::io::Result<Self> {
        let store = match &config.db_dir {
            Some(dir) => {
                let (store, report) = ShardedDepDb::open_reporting(dir, config.shards)?;
                config.boot_quarantined += report.quarantined.len() as u64;
                store
            }
            None => ShardedDepDb::new(config.shards),
        };
        Self::bind_with_store(config, store)
    }

    /// [`Server::bind`] with a pre-loaded monolithic database, routed
    /// into [`ServeConfig::shards`] shards.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with_db(config: ServeConfig, db: VersionedDepDb) -> std::io::Result<Self> {
        let shards = config.shards;
        Self::bind_with_store(config, ShardedDepDb::from_db(db.into_db(), shards))
    }

    /// [`Server::bind`] with an already-assembled sharded store (the
    /// CLI's path: it opens `--db-dir`, layers `--records` on top, and
    /// hands the result here).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with_store(config: ServeConfig, store: ShardedDepDb) -> std::io::Result<Self> {
        slog::set_level(config.log_level);
        slog::set_json(config.log_json);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let telemetry = Arc::new(Telemetry::new(config.slow_audit_ms));
        // Chaos arming happens before the listener serves anything (the
        // CLI additionally arms before opening the store, so boot-time
        // loads are covered too; re-arming is harmless). The observer
        // hook surfaces each firing as `faults_injected_total`.
        if !config.faults.is_empty() {
            for spec in &config.faults {
                indaas_faultinj::arm(spec)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            }
            let injected = Arc::clone(&telemetry.faults_injected_total);
            indaas_faultinj::set_observer(move |point| {
                injected.add(1);
                slog::warn("faultinj", &format!("fault fired at {point}"));
            });
            slog::warn(
                "serve",
                &format!("fault injection ARMED: {}", config.faults.join(", ")),
            );
        }
        if config.boot_quarantined > 0 {
            telemetry
                .db_segments_quarantined_total
                .add(config.boot_quarantined);
            slog::warn(
                "serve",
                &format!(
                    "boot-time load quarantined {} corrupt db file(s); serving survivors",
                    config.boot_quarantined
                ),
            );
        }
        let state = Arc::new(ServiceState {
            scheduler: Scheduler::with_metrics(
                config.workers,
                config.queue_capacity,
                Some(telemetry.sched_metrics()),
            ),
            sia_cache: Mutex::new(AuditCache::new(config.cache_capacity)),
            pia_cache: Mutex::new(AuditCache::new(config.cache_capacity)),
            db: store,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            in_flight_mutations: AtomicU64::new(0),
            local_addr,
            config,
            federation: Mutex::new(None),
            collectors: Mutex::new(Vec::new()),
            subs: SubscriptionRegistry::new(),
            pushed_events: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            telemetry,
            loop_shared: Mutex::new(None),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Installs the federation engine answering `Federate*` requests.
    /// Without one, every federation request gets a clear protocol error.
    pub fn set_federation(&self, engine: Arc<dyn FederationEngine>) {
        *self
            .state
            .federation
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(engine);
    }

    /// Registers a dependency collector the daemon re-runs on the
    /// [`ServeConfig::collect_interval`] timer, streaming whatever it
    /// reports through the normal ingest path (epoch bumps, snapshot
    /// refresh and cache invalidation included).
    pub fn add_collector(&self, collector: Box<dyn DependencyAcquisitionModule + Send>) {
        self.state
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(collector);
    }

    /// Serves until a `Shutdown` request arrives (or
    /// [`ServerHandle::shutdown`] is called): the readiness loop owns
    /// every connection; audits run on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Propagates readiness-loop I/O failures.
    pub fn run(self) -> std::io::Result<()> {
        let result = crate::netloop::run_loop(self.listener, &self.state);
        // The loop has drained: no connection can submit new jobs, so
        // the pool joins cleanly here (idempotent with `Drop`).
        self.state.scheduler.shutdown_and_join();
        // Final persistence: wait out mutations already past the
        // shutdown gate (new ones are rejected), then save until a pass
        // writes nothing — every acknowledged record reaches disk. The
        // wait is bounded: mutations are short, their counter is
        // panic-safe (`InFlightGuard`), and a wedged worker must not
        // turn shutdown into a hang — after the deadline the save runs
        // with whatever landed.
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.state.in_flight_mutations.load(Ordering::SeqCst) > 0
            && Instant::now() < drain_deadline
        {
            std::thread::yield_now();
        }
        for _ in 0..16 {
            match save_dirty(&self.state) {
                Some(written) if written > 0 => continue,
                _ => break,
            }
        }
        result
    }

    /// Spawns [`Server::run`] on a background thread and returns a
    /// handle that can stop it cleanly — the supported way to embed a
    /// daemon in tests and tools, replacing detached
    /// `thread::spawn(|| server.run())` with a real join.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failure.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("indaas-serve".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// A running daemon spawned with [`Server::spawn`]: carries its bound
/// address and the means to stop it without a protocol round-trip.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown (same path as a protocol `Shutdown` request:
    /// subscribers get the farewell push, queued frames flush, dirty
    /// segments save) and joins the serve thread.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's exit result; a panicked serve thread
    /// surfaces as an error rather than propagating the panic.
    pub fn shutdown(self) -> std::io::Result<()> {
        initiate_shutdown(&self.state);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Persists dirty shards into the configured db directory. Returns the
/// segments written, or `None` without a db dir or on failure. Failures
/// are logged, never fatal: a daemon that cannot reach its disk keeps
/// serving from memory and retries on the next tick — the dirty flags
/// survive a failed save.
pub(crate) fn save_dirty(state: &ServiceState) -> Option<usize> {
    let dir = state.config.db_dir.as_ref()?;
    match state.db.save_dirty_segments(dir) {
        Ok(written) => {
            state.telemetry.db_segment_saves_total.add(written as u64);
            Some(written)
        }
        Err(e) => {
            slog::error(
                "server",
                &format!("saving segments to {} failed: {e}", dir.display()),
            );
            None
        }
    }
}

/// Largest accepted request line. Ingest batches are the big consumer;
/// 16 MiB comfortably holds millions of Table-1 records per line while
/// bounding per-connection memory. Protocol-v2 request frames share the
/// same bound.
pub const MAX_REQUEST_LINE: u64 = 16 * 1024 * 1024;

/// Most requests one protocol-v2 connection may have unanswered at
/// once. Each in-flight request holds a response slot and (on a cache
/// miss) a queue ticket on the worker pool, so the cap bounds what a
/// single pipelining client can pin.
pub const MAX_IN_FLIGHT_REQUESTS: usize = 64;

/// Decrements the live-connection gauge when a peer-session thread
/// exits, however it exits.
pub(crate) struct ConnGuard<'a>(pub(crate) &'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serializes a response envelope into one **transport-ready** outbox
/// frame: length prefix included, so the readiness loop's write path
/// moves bytes without knowing the session's framing.
pub(crate) fn envelope_frame(id: u64, body: Response) -> Vec<u8> {
    crate::codec::frame_bytes(encode_line(&ResponseEnvelope { id, body }).as_bytes())
}

/// The span name a dispatched request is recorded under — static, so a
/// traced request costs no allocation beyond the span record itself.
pub(crate) fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Ping => "request:Ping",
        Request::Hello { .. } => "request:Hello",
        Request::Ingest { .. } => "request:Ingest",
        Request::Retract { .. } => "request:Retract",
        Request::AuditSia { .. } => "request:AuditSia",
        Request::AuditPia { .. } => "request:AuditPia",
        Request::Status => "request:Status",
        Request::Metrics { .. } => "request:Metrics",
        Request::Trace { .. } => "request:Trace",
        Request::Subscribe { .. } => "request:Subscribe",
        Request::Unsubscribe { .. } => "request:Unsubscribe",
        Request::Shutdown => "request:Shutdown",
        Request::FederateHello { .. } => "request:FederateHello",
        Request::FederateData { .. } => "request:FederateData",
        Request::FederateStart { .. } => "request:FederateStart",
    }
}

/// Validates a `Subscribe` and registers it, pinned to the spec's
/// shards. Returns the new subscription id and the spec (for the
/// caller to schedule the initial pushed audit *after* it enqueued the
/// `Subscribed` response), or the error message to send instead.
pub(crate) fn register_subscription(
    state: &Arc<ServiceState>,
    spec: AuditSpec,
    engine: &str,
    outbox: &Arc<Outbox>,
    conn: u64,
) -> Result<(u64, AuditSpec), String> {
    if engine != "sia" {
        return Err(format!(
            "unknown subscription engine {engine:?} (only \"sia\" audits read the \
             dependency database and can go stale)"
        ));
    }
    if let Err(e) = validate_spec(&spec) {
        return Err(format!("invalid spec: {e}"));
    }
    if spec.candidates.is_empty() {
        return Err("subscription spec needs at least one candidate".to_string());
    }
    let snapshot = state.db.snapshot();
    let pins = snapshot.pins_for_hosts(spec_hosts(&spec));
    state
        .subs
        .register(spec.clone(), pins, Arc::clone(outbox), conn)
        .map(|id| (id, spec))
}

/// The hosts an audit spec reads — what its cache keys and
/// subscription pins are derived from.
fn spec_hosts(spec: &AuditSpec) -> impl Iterator<Item = &str> {
    spec.candidates
        .iter()
        .flat_map(|c| c.servers.iter().map(String::as_str))
}

/// Submits one pushed-audit job to the shared worker pool: re-runs (or
/// serves from cache) the subscription's audit against a fresh snapshot
/// and enqueues the `AuditEvent` frame. Runs entirely off the ingest
/// path — a full queue costs the subscriber one event, never a writer
/// any latency; the subscription stays armed for the next batch.
pub(crate) fn schedule_push_audit(
    state: &Arc<ServiceState>,
    subscription: u64,
    spec: AuditSpec,
    outbox: Arc<Outbox>,
    origin: Instant,
    parent: Option<TraceContext>,
) {
    let st = Arc::clone(state);
    let deadline = state.config.default_deadline;
    // The push runs under a fresh child of the originating request's
    // span (the triggering ingest, or the Subscribe for its initial
    // audit) — one mutation fanning out to N subscriptions yields N
    // sibling push spans under the same trace.
    let push = parent.map(|p| p.child());
    let submit_at = Instant::now();
    let submitted = state.scheduler.submit(Some(deadline), move |token| {
        let _scope = push.map(TraceScope::enter);
        let started = Instant::now();
        if let Some(p) = push {
            st.telemetry.spans.record(
                p.child(),
                "queue_wait",
                String::new(),
                started.duration_since(submit_at).as_micros() as u64,
            );
        }
        let exec = push.map(|p| p.child());
        let epoch = st.db.epoch();
        let snapshot = st.db.snapshot();
        let pins = snapshot.pins_for_hosts(spec_hosts(&spec));
        let key = job_key(&pins, "sia", &spec);
        let hit = st
            .sia_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key);
        let mut trace = Trace::new("push", format!("subscription {subscription}"));
        trace.pins = pins.clone();
        let (cached, result, stages) = match hit {
            Some(report) => (true, Ok(report), Vec::new()),
            None => {
                let recorder = StageRecorder::with_trace(&st.telemetry, exec);
                let agent = AuditingAgent::from_snapshot(snapshot);
                let result = agent.audit_sia_observed(&spec, token, &recorder);
                st.telemetry.push_audits_total.inc();
                st.telemetry.audits_sia_total.inc();
                (false, result, recorder.into_stages())
            }
        };
        if let Some(e) = exec {
            st.telemetry.spans.record(
                e,
                "audit_exec",
                format!("subscription {subscription}"),
                started.elapsed().as_micros() as u64,
            );
        }
        trace.cached = cached;
        trace.stages = stages;
        match result {
            Ok(report) => {
                if !cached {
                    st.telemetry
                        .audit_sia_us
                        .record(started.elapsed().as_micros() as u64);
                    st.sia_cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(key, pins, report.clone());
                }
                let frame = envelope_frame(
                    EVENT_ENVELOPE_ID,
                    Response::AuditEvent {
                        subscription,
                        epoch,
                        cached,
                        elapsed_us: started.elapsed().as_micros() as u64,
                        trace_id: parent.map(|p| format_trace_id(p.trace_id)),
                        report,
                    },
                );
                // Counted before the enqueue so a subscriber can never
                // observe an event the gauge does not yet include.
                st.pushed_events.fetch_add(1, Ordering::Relaxed);
                outbox.push_event(frame);
                // Invalidate → re-audit → event enqueued, end to end.
                st.telemetry
                    .push_latency_us
                    .record(origin.elapsed().as_micros() as u64);
            }
            Err(e) => {
                trace.outcome = e.to_string();
                slog::error(
                    "server",
                    &format!("pushed audit for subscription {subscription} failed: {e}"),
                );
            }
        }
        if let Some(p) = push {
            st.telemetry.spans.record(
                p,
                "push",
                format!("subscription {subscription}"),
                submit_at.elapsed().as_micros() as u64,
            );
        }
        trace.total_us = started.elapsed().as_micros() as u64;
        st.telemetry.recorder.record(trace);
    });
    if let Err(e) = submitted {
        slog::error(
            "server",
            &format!("could not schedule pushed audit for subscription {subscription}: {e}"),
        );
    }
}

pub(crate) fn write_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut out = encode_line(response);
    out.push('\n');
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

fn federation_engine(state: &ServiceState) -> Option<Arc<dyn FederationEngine>> {
    state
        .federation
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

pub(crate) fn federate_hello(
    state: &ServiceState,
    version: u32,
    node: &str,
    trace: bool,
) -> Response {
    if node.len() > MAX_NODE_NAME_BYTES {
        return Response::error(format!(
            "peer node name exceeds {MAX_NODE_NAME_BYTES} bytes"
        ));
    }
    let Some(engine) = federation_engine(state) else {
        return Response::error("federation not enabled on this daemon");
    };
    match engine.handshake(version, node, trace) {
        // `trace` is echoed only when accepted (and omitted otherwise),
        // so a v1 dialer that never offered it sees the exact legacy
        // welcome shape.
        Ok((version, node, traced)) => {
            slog::debug(
                "server",
                &format!("peer handshake: protocol v{version}, tracing {}", traced),
            );
            Response::FederateWelcome {
                version,
                node,
                trace: traced.then_some(true),
            }
        }
        Err(e) => Response::error(format!("handshake rejected: {e}")),
    }
}

/// Frame mode: after a successful handshake the connection carries only
/// round frames, bounded exactly like request lines. Frames get no
/// per-frame acknowledgement; any protocol violation is answered with
/// one `Error` line and the connection is dropped.
///
/// The negotiated `version` picks the frame encoding: ≥ 2 reads raw
/// length-prefixed binary round frames ([`decode_traced_round_frame`] —
/// no hex, about half the wire bytes, optionally carrying a trace
/// context extension); 1 keeps the legacy hex-in-JSON `FederateData`
/// lines.
pub(crate) fn peer_session_loop<R: BufRead>(
    reader: &mut R,
    writer: &mut TcpStream,
    state: &ServiceState,
    version: u32,
) {
    if version >= 2 {
        return binary_peer_session_loop(reader, writer, state);
    }
    let mut line = String::new();
    loop {
        match read_bounded_line(reader, &mut line, MAX_REQUEST_LINE) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::Oversized) => {
                let _ = write_response(
                    writer,
                    &Response::error(format!("peer frame exceeds {MAX_REQUEST_LINE} bytes")),
                );
                return;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let fail = |writer: &mut TcpStream, message: String| {
            let _ = write_response(writer, &Response::error(message));
        };
        let frame = match decode_line::<Request>(line.trim()) {
            Ok(Request::FederateData {
                session,
                round,
                from,
                payload,
            }) => (session, round, from, payload),
            Ok(other) => {
                fail(
                    writer,
                    format!("peer sessions carry only FederateData frames, got {other:?}"),
                );
                return;
            }
            Err(e) => {
                fail(writer, format!("malformed peer frame: {e}"));
                return;
            }
        };
        let (session, round, from, payload_hex) = frame;
        let payload = match decode_payload(&payload_hex) {
            Ok(p) => p,
            Err(e) => {
                fail(writer, format!("bad frame payload: {e}"));
                return;
            }
        };
        let Some(engine) = federation_engine(state) else {
            fail(writer, "federation not enabled on this daemon".to_string());
            return;
        };
        if let Err(e) = engine.deliver(session, round, from, payload) {
            fail(writer, format!("frame rejected: {e}"));
            return;
        }
    }
}

/// The version ≥ 2 peer frame loop: length-prefixed binary round frames
/// with the fixed 16-byte header and the raw ciphertext payload — no
/// hex doubling, no JSON. Violations are answered with one `Error` line
/// (the dialer may not be reading, which is fine) and the connection is
/// dropped.
fn binary_peer_session_loop<R: BufRead>(
    reader: &mut R,
    writer: &mut TcpStream,
    state: &ServiceState,
) {
    let mut buf = Vec::new();
    loop {
        // Chaos hook: `svc.frame.read` drops the peer session
        // (error/disconnect) or loses one round frame after reading it
        // (drop) — the sender's retry/re-dial path is what recovers.
        let read_fault = indaas_faultinj::point(points::SVC_FRAME_READ);
        if matches!(
            read_fault,
            indaas_faultinj::FaultAction::Error | indaas_faultinj::FaultAction::Disconnect
        ) {
            return;
        }
        match read_frame(reader, &mut buf, MAX_REQUEST_LINE) {
            Ok(FrameRead::Frame) => {}
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::Oversized) => {
                let _ = write_response(
                    writer,
                    &Response::error(format!("peer frame exceeds {MAX_REQUEST_LINE} bytes")),
                );
                return;
            }
        }
        if read_fault == indaas_faultinj::FaultAction::Drop {
            continue;
        }
        let (session, round, from, payload, frame_ctx) = match decode_traced_round_frame(&buf) {
            Ok(frame) => frame,
            Err(e) => {
                let _ = write_response(writer, &Response::error(format!("bad peer frame: {e}")));
                return;
            }
        };
        let Some(engine) = federation_engine(state) else {
            let _ = write_response(
                writer,
                &Response::error("federation not enabled on this daemon"),
            );
            return;
        };
        let deliver_started = Instant::now();
        if let Err(e) = engine.deliver(session, round, from, payload.to_vec()) {
            let _ = write_response(writer, &Response::error(format!("frame rejected: {e}")));
            return;
        }
        if let Some(c) = frame_ctx {
            // The sender minted this context as a child of its own
            // fed_party span, so recording it verbatim is what stitches
            // the cross-daemon parent link `indaas trace` renders.
            state.telemetry.spans.record(
                c,
                "fed_frame",
                format!("session {session} round {round} from {from}"),
                deliver_started.elapsed().as_micros() as u64,
            );
        }
    }
}

/// Flags shutdown and wakes the readiness loop so it begins the drain
/// (farewell pushes to subscribers, flush, close — all inside the
/// loop). The connect poke remains as a fallback for the window where
/// the loop has not yet published its waker.
fn initiate_shutdown(state: &ServiceState) {
    // SeqCst pairs with the mutation gate in `apply_mutation`: the
    // flag store must be totally ordered against in-flight counter
    // updates for the shutdown drain to be exhaustive.
    state.shutting_down.store(true, Ordering::SeqCst);
    let shared = state
        .loop_shared
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match shared {
        Some(shared) => shared.wake(),
        None => {
            let _ = TcpStream::connect(state.local_addr);
        }
    }
}

/// What admitting a request produced: a synchronous answer, a pooled
/// job (token + deadline, for the loop's guard timer), or a dedicated
/// thread that owns the response slot.
pub(crate) enum AdmitOutcome {
    /// Answered right here; the bool is the v1 shutdown signal.
    Done(Response, bool),
    /// A worker-pool job owns the slot; the loop arms a guard timer at
    /// `deadline` plus grace that cancels `token` and answers
    /// "audit timed out" should the worker wedge.
    Pooled {
        token: CancelToken,
        deadline: Duration,
    },
    /// A dedicated thread (federation party) owns the slot.
    Threaded,
}

/// Request admission: decides synchronous vs pooled vs threaded and, on
/// the asynchronous paths, wires `slot` to whoever will produce the
/// answer. Called from the readiness loop — nothing here may block.
pub(crate) fn admit_request(
    state: &Arc<ServiceState>,
    request: Request,
    ctx: Option<TraceContext>,
    slot: Arc<ResponseSlot>,
) -> AdmitOutcome {
    match request {
        Request::AuditSia { spec, timeout_ms } => admit_sia(state, spec, timeout_ms, ctx, slot),
        Request::AuditPia {
            providers,
            way,
            minhash,
            timeout_ms,
        } => admit_pia(state, providers, way, minhash, timeout_ms, ctx, slot),
        Request::FederateStart {
            session,
            index,
            parties,
            successor,
            seed,
            multiset,
            round_timeout_ms,
        } => {
            let instruction = PartyInstruction {
                session,
                index,
                parties,
                successor,
                seed,
                multiset,
                round_timeout_ms,
                trace: None,
            };
            let st = Arc::clone(state);
            // A party blocks on ring rounds for up to round_timeout ×
            // rounds — far too long for a pool worker; it gets its own
            // thread, as coordinator-driven parties always did.
            let spawned = std::thread::Builder::new()
                .name("indaas-fed-party".to_string())
                .spawn(move || {
                    let _scope = ctx.map(TraceScope::enter);
                    let crash = CrashGuard(slot);
                    let response = federate_start(&st, instruction, ctx);
                    crash.0.fulfill(response);
                });
            match spawned {
                Ok(_) => AdmitOutcome::Threaded,
                Err(e) => AdmitOutcome::Done(
                    Response::error(format!("could not start federation party: {e}")),
                    false,
                ),
            }
        }
        request => {
            let (response, shutdown) = handle_request(request, state, ctx);
            AdmitOutcome::Done(response, shutdown)
        }
    }
}

pub(crate) fn handle_request(
    request: Request,
    state: &Arc<ServiceState>,
    ctx: Option<TraceContext>,
) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Ingest { records } => (ingest(state, &records, Mutation::Ingest, ctx), false),
        Request::Retract { records } => (ingest(state, &records, Mutation::Retract, ctx), false),
        // Reachable only from a v1 line session — the v2 loop handles
        // these inline, before dispatching here.
        Request::Hello { .. } => (
            Response::error("Hello must be the first line of a connection"),
            false,
        ),
        Request::Subscribe { .. } | Request::Unsubscribe { .. } => (
            Response::error(
                "subscriptions require a protocol v2 session (open the connection with Hello)",
            ),
            false,
        ),
        Request::Status => (status(state), false),
        Request::Metrics { recent } => (metrics(state, recent), false),
        Request::Trace { id } => (trace_get(state, &id), false),
        Request::Shutdown => (Response::ShuttingDown, true),
        // Unreachable in practice: the readiness loop intercepts every
        // hello before dispatching here (it re-tags the connection). The
        // arm only keeps the match exhaustive.
        Request::FederateHello { .. } => (
            Response::error("FederateHello must be the first line of a peer session"),
            false,
        ),
        Request::FederateData { .. } => (
            Response::error(
                "FederateData is only valid inside a peer session (send FederateHello first)",
            ),
            false,
        ),
        // Defensive: the asynchronous requests are admitted by
        // `admit_request` and never reach the synchronous dispatcher.
        Request::AuditSia { .. } | Request::AuditPia { .. } | Request::FederateStart { .. } => (
            Response::error("internal: asynchronous request routed to the synchronous dispatcher"),
            false,
        ),
    }
}

fn federate_start(
    state: &ServiceState,
    mut instruction: PartyInstruction,
    ctx: Option<TraceContext>,
) -> Response {
    let Some(engine) = federation_engine(state) else {
        return Response::error("federation not enabled on this daemon");
    };
    let snapshot = state.db.snapshot();
    let fed_ctx = FederationCtx {
        snapshot,
        local_addr: state.local_addr,
        round_timeout: state.config.round_timeout,
    };
    let session = instruction.session;
    // The party span parents everything this daemon does for the
    // session: outgoing round frames are stamped with its children, so
    // the successor's `fed_frame` spans link back here across the
    // process boundary.
    let party = ctx.map(|c| c.child());
    instruction.trace = party;
    let started = Instant::now();
    let party_span = Span::start(Arc::clone(&state.telemetry.fed_party_us));
    let result = engine.run_party(instruction, fed_ctx);
    drop(party_span);
    if let Some(p) = party {
        state.telemetry.spans.record(
            p,
            "fed_party",
            format!("session {session}"),
            started.elapsed().as_micros() as u64,
        );
    }
    match result {
        Ok(done) => {
            state
                .telemetry
                .fed_wire_bytes_total
                .add(done.wire_sent_bytes);
            state.telemetry.fed_rounds_total.add(done.sent_msgs);
            state
                .telemetry
                .fed_frame_retries_total
                .add(done.frame_retries);
            state.telemetry.fed_redials_total.add(done.redials);
            Response::FederateDone {
                session,
                payload: encode_payload(&done.payload),
                sent_bytes: done.sent_bytes,
                recv_bytes: done.recv_bytes,
                sent_msgs: done.sent_msgs,
                recv_msgs: done.recv_msgs,
                wire_sent_bytes: done.wire_sent_bytes,
            }
        }
        Err(e) => {
            state.telemetry.fed_party_failures_total.inc();
            Response::error(format!("federated audit failed: {e}"))
        }
    }
}

/// Answers `Trace{id}`: every span this daemon recorded under the
/// trace, each stamped with the local listen address so a client
/// stitching a tree across federated daemons can attribute every span
/// to its node.
fn trace_get(state: &ServiceState, id: &str) -> Response {
    let Some(trace_id) = indaas_obs::parse_trace_id(id) else {
        return Response::error(format!(
            "bad trace id {id:?} (expected up to 32 hex digits, nonzero)"
        ));
    };
    let node = state.local_addr.to_string();
    let spans = state
        .telemetry
        .spans
        .spans_for(trace_id)
        .into_iter()
        .map(|s| SpanEntry {
            trace: format_trace_id(s.trace_id),
            span_id: s.span_id,
            parent_span_id: s.parent_span_id,
            name: s.name,
            detail: s.detail,
            node: node.clone(),
            start_us: s.start_us,
            elapsed_us: s.elapsed_us,
        })
        .collect();
    Response::Trace { node, spans }
}

enum Mutation {
    Ingest,
    Retract,
}

fn ingest(
    state: &Arc<ServiceState>,
    records: &str,
    mutation: Mutation,
    ctx: Option<TraceContext>,
) -> Response {
    let parsed = match indaas_deps::parse_records(records) {
        Ok(p) => p,
        Err(e) => return Response::error(format!("bad records: {e}")),
    };
    match apply_mutation(state, parsed, &mutation, ctx) {
        Some(report) => Response::Ingested {
            changed: report.changed,
            ignored: report.ignored,
            epoch: report.epoch,
        },
        None => Response::error("daemon is shutting down"),
    }
}

/// The single write path into the sharded database: every mutation —
/// protocol ingest/retract or a timer-driven collector batch — lands
/// here, so epoch bumps, per-shard snapshot refreshes and cache
/// invalidation can never diverge between entry points. There is no
/// global lock left on this path: the store routes the batch by shard
/// first and locks only the shards it touches, so concurrent mutations
/// to disjoint hosts proceed in parallel.
/// Decrements the in-flight mutation counter on drop, so a panic
/// anywhere inside [`apply_mutation`] (a poisoned cache or shard lock)
/// cannot leave the shutdown drain waiting forever on a count that
/// will never reach zero.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn apply_mutation(
    state: &Arc<ServiceState>,
    records: Vec<DependencyRecord>,
    mutation: &Mutation,
    ctx: Option<TraceContext>,
) -> Option<indaas_deps::ShardedIngestReport> {
    // Shutdown gate (Dekker-style, all SeqCst): either this thread sees
    // the shutdown flag and bails before touching the store, or the
    // shutdown path's drain loop sees this in-flight count and waits —
    // so the final segment save never misses an acknowledged mutation.
    state.in_flight_mutations.fetch_add(1, Ordering::SeqCst);
    let _in_flight = InFlightGuard(&state.in_flight_mutations);
    if state.shutting_down.load(Ordering::SeqCst) {
        return None;
    }
    // The push-latency clock starts here: "invalidate → re-audit →
    // event enqueued" is measured from the moment the write begins.
    let origin = Instant::now();
    state.telemetry.mutations_total.inc();
    let ingest_span = Span::start(Arc::clone(&state.telemetry.ingest_us));
    let report = match mutation {
        Mutation::Ingest => state.db.ingest(records),
        Mutation::Retract => state.db.retract(&records),
    };
    drop(ingest_span);
    // Per-shard purge: only entries pinned to a shard this batch touched
    // are dropped; audits over other shards stay cached. Called on every
    // batch — the cache compares the epoch vector to its last purge and
    // short-circuits in O(shards) when nothing moved (pure-duplicate
    // collector re-reports), so no-op batches never walk the entries.
    let epochs = state.db.epochs();
    state
        .sia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .purge_stale(&epochs);
    // The PIA cache is NOT purged: PIA results are a pure function of
    // the request's provider sets, never of the DepDB.
    //
    // Server push: every subscription pinned to a shard this batch
    // bumped gets a fresh audit scheduled on the worker pool. The
    // registry advances the pins synchronously (so overlapping batches
    // trigger once per wave) but the audits themselves run later, off
    // this write path — an ingest never waits on a subscriber. With a
    // debounce window configured, the trigger parks on the loop's
    // timer wheel instead, so an ingest burst coalesces into one
    // pushed audit per subscription per window.
    let debounce_via = if state.config.push_debounce_ms > 0 {
        state
            .loop_shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    } else {
        None
    };
    for hit in state.subs.affected(&epochs) {
        match &debounce_via {
            Some(shared) => shared.queue_push(PendingPush {
                subscription: hit.subscription,
                spec: hit.spec,
                outbox: hit.outbox,
                origin,
                ctx,
            }),
            None => {
                schedule_push_audit(state, hit.subscription, hit.spec, hit.outbox, origin, ctx);
            }
        }
    }
    Some(report)
}

/// Runs every registered collector once and ingests what they report
/// through [`apply_mutation`]. The batch is **fully materialized before
/// any shard lock is taken**: collection (which may walk hosts, shell
/// out, or block on slow probes) happens under only the collectors'
/// own mutex, so shard lock hold time stays proportional to routing +
/// apply — a slow collector can never stall concurrent protocol
/// ingests or audits. Returns how many records the tick ingested.
pub(crate) fn run_collectors(state: &Arc<ServiceState>) -> usize {
    // Phase 1: materialize. No DepDB lock is held anywhere in here.
    let mut collected: Vec<DependencyRecord> = Vec::new();
    {
        let mut collectors = state
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for c in collectors.iter_mut() {
            for host in c.hosts() {
                match c.collect(&host) {
                    Ok(records) => collected.extend(records),
                    Err(e) => {
                        slog::warn("server", &format!("collector {} failed: {e}", c.name()));
                    }
                }
            }
        }
    }
    // Phase 2: route + apply, the only part that touches shard locks.
    // A batch rejected by the shutdown gate is simply dropped — the
    // daemon is exiting and the collectors re-measure on next boot.
    let total = collected.len();
    // Collector ticks are daemon-initiated — there is no client trace
    // to parent their fan-out on.
    if !collected.is_empty() && apply_mutation(state, collected, &Mutation::Ingest, None).is_none()
    {
        return 0;
    }
    total
}

/// Rejects request-controlled algorithm parameters that would panic an
/// engine or defeat the scheduler's admission control (e.g. a spec
/// asking one pooled job to spawn thousands of sampling threads).
fn validate_spec(spec: &AuditSpec) -> Result<(), String> {
    const MAX_SAMPLING_THREADS: usize = 8;
    match spec.algorithm {
        indaas_core::RgAlgorithm::Sampling {
            threads, fail_prob, ..
        } => {
            if threads == 0 || threads > MAX_SAMPLING_THREADS {
                return Err(format!(
                    "sampling threads must be in 1..={MAX_SAMPLING_THREADS} (got {threads})"
                ));
            }
            if !(fail_prob > 0.0 && fail_prob < 1.0) {
                return Err(format!("fail_prob must be in (0, 1) (got {fail_prob})"));
            }
        }
        indaas_core::RgAlgorithm::Bdd { max_nodes } => {
            // The node budget bounds one job's memory; uncapped it lets
            // a single request grow allocations past any deadline's
            // reach (the token is only polled between graph nodes).
            const MAX_BDD_NODES: usize = 1 << 24;
            if !(2..=MAX_BDD_NODES).contains(&max_nodes) {
                return Err(format!(
                    "bdd max_nodes must be in 2..={MAX_BDD_NODES} (got {max_nodes})"
                ));
            }
        }
        indaas_core::RgAlgorithm::Minimal { .. } => {}
    }
    Ok(())
}

/// Admits an `AuditSia`: cache hits answer inline; a miss submits a
/// pooled job that fulfills `slot` itself — no thread waits on the
/// result. The job polls its deadline-armed token and reports
/// `Cancelled` as "audit failed: …"; the loop's guard timer answers
/// "audit timed out" only for a worker wedged past deadline + grace,
/// and the [`CrashGuard`] answers for a panicked one.
fn admit_sia(
    state: &Arc<ServiceState>,
    spec: AuditSpec,
    timeout_ms: Option<u64>,
    ctx: Option<TraceContext>,
    slot: Arc<ResponseSlot>,
) -> AdmitOutcome {
    if let Err(e) = validate_spec(&spec) {
        return AdmitOutcome::Done(Response::error(format!("invalid spec: {e}")), false);
    }
    let started = Instant::now();
    // Wait-free: no lock is taken for either the epoch stamp or the
    // snapshot, so audit admission is never delayed by writers.
    let epoch = state.db.epoch();
    let snapshot = state.db.snapshot();
    // The cache key pins exactly the shards this spec's hosts route to:
    // an ingest touching any *other* shard changes neither the key nor
    // the entry's validity, so the cached report stays hot.
    let pins: EpochPins = snapshot.pins_for_hosts(spec_hosts(&spec));
    let key = job_key(&pins, "sia", &spec);
    let detail = spec
        .candidates
        .iter()
        .map(|c| c.name.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    if let Some(report) = state
        .sia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        let mut trace = Trace::new("sia", detail);
        trace.cached = true;
        trace.pins = pins;
        trace.total_us = started.elapsed().as_micros() as u64;
        state.telemetry.recorder.record(trace);
        return AdmitOutcome::Done(
            Response::Sia {
                epoch,
                cached: true,
                elapsed_us: started.elapsed().as_micros() as u64,
                report,
            },
            false,
        );
    }

    let deadline = job_deadline(&state.config, timeout_ms);
    let st = Arc::clone(state);
    let telemetry = Arc::clone(&state.telemetry);
    let trace_pins = pins.clone();
    // Sibling children of the request span: how long the job sat in the
    // scheduler queue, then the audit execution (whose engine stages
    // nest under it via the recorder).
    let exec = ctx.map(|c| c.child());
    let submit_at = Instant::now();
    let submitted = state.scheduler.submit(Some(deadline), move |token| {
        // Answers the slot with "audit job crashed" if this closure
        // unwinds before `fulfill` below claims it.
        let crash = CrashGuard(Arc::clone(&slot));
        let _scope = exec.map(TraceScope::enter);
        let run_started = Instant::now();
        if let Some(c) = ctx {
            telemetry.spans.record(
                c.child(),
                "queue_wait",
                String::new(),
                run_started.duration_since(submit_at).as_micros() as u64,
            );
        }
        let recorder = StageRecorder::with_trace(&telemetry, exec);
        let agent = AuditingAgent::from_snapshot(snapshot);
        let result = agent.audit_sia_observed(&spec, token, &recorder);
        let total_us = run_started.elapsed().as_micros() as u64;
        telemetry.audits_sia_total.inc();
        telemetry.audit_sia_us.record(total_us);
        if let Some(e) = exec {
            telemetry
                .spans
                .record(e, "audit_exec", detail.clone(), total_us);
        }
        let mut trace = Trace::new("sia", detail);
        trace.pins = trace_pins;
        trace.stages = recorder.into_stages();
        trace.total_us = total_us;
        if let Err(e) = &result {
            trace.outcome = e.to_string();
        }
        telemetry.recorder.record(trace);
        let response = match result {
            Ok(report) => {
                st.sia_cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, pins, report.clone());
                Response::Sia {
                    epoch,
                    cached: false,
                    elapsed_us: started.elapsed().as_micros() as u64,
                    report,
                }
            }
            Err(e) => Response::error(format!("audit failed: {e}")),
        };
        crash.0.fulfill(response);
    });
    match submitted {
        Ok(token) => AdmitOutcome::Pooled { token, deadline },
        Err(e) => AdmitOutcome::Done(Response::error(e.to_string()), false),
    }
}

/// Admits an `AuditPia` — same shape as [`admit_sia`], epoch-free cache
/// key (PIA reads nothing from the DepDB).
fn admit_pia(
    state: &Arc<ServiceState>,
    providers: Vec<(String, Vec<String>)>,
    way: usize,
    minhash: Option<usize>,
    timeout_ms: Option<u64>,
    ctx: Option<TraceContext>,
    slot: Arc<ResponseSlot>,
) -> AdmitOutcome {
    if way < 2 || providers.len() < way {
        return AdmitOutcome::Done(
            Response::error("need way >= 2 and at least `way` providers"),
            false,
        );
    }
    if providers.iter().any(|(_, set)| set.is_empty()) {
        return AdmitOutcome::Done(
            Response::error("provider component sets must be non-empty"),
            false,
        );
    }
    let started = Instant::now();
    let epoch = state.db.epoch();
    // PIA reads nothing from the DepDB — its inputs travel entirely in
    // the request — so the cache key deliberately carries no epoch pins
    // and entries survive ingests (the response still stamps the epoch).
    let key = job_key(&(), "pia", &(&providers, way, minhash));
    let detail = format!("{} providers, {way}-way", providers.len());
    if let Some(rankings) = state
        .pia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        let mut trace = Trace::new("pia", detail);
        trace.cached = true;
        trace.total_us = started.elapsed().as_micros() as u64;
        state.telemetry.recorder.record(trace);
        return AdmitOutcome::Done(
            Response::Pia {
                epoch,
                cached: true,
                elapsed_us: started.elapsed().as_micros() as u64,
                rankings,
            },
            false,
        );
    }

    let deadline = job_deadline(&state.config, timeout_ms);
    let st = Arc::clone(state);
    let telemetry = Arc::clone(&state.telemetry);
    let exec = ctx.map(|c| c.child());
    let submit_at = Instant::now();
    let submitted = state.scheduler.submit(Some(deadline), move |token| {
        let crash = CrashGuard(Arc::clone(&slot));
        let _scope = exec.map(TraceScope::enter);
        let run_started = Instant::now();
        if let Some(c) = ctx {
            telemetry.spans.record(
                c.child(),
                "queue_wait",
                String::new(),
                run_started.duration_since(submit_at).as_micros() as u64,
            );
        }
        let result =
            rank_deployments_cancellable(&providers, way, minhash, &PsopConfig::default(), token);
        let total_us = run_started.elapsed().as_micros() as u64;
        telemetry.audits_pia_total.inc();
        telemetry.audit_pia_us.record(total_us);
        if let Some(e) = exec {
            telemetry
                .spans
                .record(e, "audit_exec", detail.clone(), total_us);
        }
        let mut trace = Trace::new("pia", detail);
        trace.total_us = total_us;
        if let Err(e) = &result {
            trace.outcome = e.to_string();
        }
        telemetry.recorder.record(trace);
        let response = match result {
            Ok(rankings) => {
                st.pia_cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(
                        key,
                        EpochPins::new(), // no pins: epoch-independent, never stale
                        rankings.clone(),
                    );
                Response::Pia {
                    epoch,
                    cached: false,
                    elapsed_us: started.elapsed().as_micros() as u64,
                    rankings,
                }
            }
            Err(e) => Response::error(format!("audit failed: {e}")),
        };
        crash.0.fulfill(response);
    });
    match submitted {
        Ok(token) => AdmitOutcome::Pooled { token, deadline },
        Err(e) => AdmitOutcome::Done(Response::error(e.to_string()), false),
    }
}

/// Resolves the effective job deadline: the client's request, clamped
/// to the configured ceiling.
fn job_deadline(config: &ServeConfig, timeout_ms: Option<u64>) -> Duration {
    timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_deadline)
        .min(config.max_deadline)
}

fn status(state: &ServiceState) -> Response {
    // Status reads the same wait-free snapshot path audits use; the
    // counters come from per-shard atomics. No lock, so a dashboard
    // polling Status never slows writers down.
    let snapshot = state.db.snapshot();
    let epoch = state.db.epoch();
    let shard_records: Vec<usize> = (0..snapshot.num_shards())
        .map(|s| snapshot.shard(s).len())
        .collect();
    let records = shard_records.iter().sum();
    let hosts = DepView::hosts(&snapshot).len();
    let shard_epochs = snapshot.epochs().as_slice().to_vec();
    let counters = state.db.counters();
    let (sia_hits, sia_misses, sia_len) = {
        let cache = state
            .sia_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (h, m) = cache.stats();
        (h, m, cache.len())
    };
    let (pia_hits, pia_misses, pia_len) = {
        let cache = state
            .pia_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (h, m) = cache.stats();
        (h, m, cache.len())
    };
    let cache_entries = sia_len + pia_len;
    let cache_hits = sia_hits + pia_hits;
    let cache_misses = sia_misses + pia_misses;
    let lookups = cache_hits + cache_misses;
    Response::Status {
        epoch,
        records,
        hosts,
        shard_epochs,
        shard_records,
        shard_writes: counters.shard_writes,
        lock_waits: counters.lock_waits,
        jobs_queued: state.scheduler.queued(),
        jobs_running: state.scheduler.running(),
        cache_entries,
        cache_hits,
        cache_misses,
        hit_ratio: if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        },
        subscriptions: state.subs.len(),
        pushed_events: state.pushed_events.load(Ordering::Relaxed),
        uptime_ms: state.started.elapsed().as_millis() as u64,
        uptime_secs: state.started.elapsed().as_secs(),
        sia_audits: state.telemetry.audits_sia_total.get(),
        pia_audits: state.telemetry.audits_pia_total.get(),
        dropped_events: state.telemetry.outbox_shed_total.get(),
    }
}

/// Assembles a `Metrics` response: refreshes the derived gauges from
/// their authoritative sources (per-shard atomics, cache stats,
/// scheduler — the same lock-free reads `Status` does), snapshots the
/// registry, and attaches the most recent flight-recorder traces.
fn metrics(state: &ServiceState, recent: Option<usize>) -> Response {
    let telemetry = &state.telemetry;
    let registry = &telemetry.registry;
    let counters = state.db.counters();
    registry
        .gauge(names::DB_SHARD_WRITES)
        .set(counters.shard_writes.iter().sum());
    registry
        .gauge(names::DB_LOCK_WAITS)
        .set(counters.lock_waits);
    let (sia_hits, sia_misses, sia_len) = {
        let cache = state
            .sia_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (h, m) = cache.stats();
        (h, m, cache.len())
    };
    let (pia_hits, pia_misses, pia_len) = {
        let cache = state
            .pia_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (h, m) = cache.stats();
        (h, m, cache.len())
    };
    registry.gauge(names::CACHE_SIA_HITS).set(sia_hits);
    registry.gauge(names::CACHE_SIA_MISSES).set(sia_misses);
    registry.gauge(names::CACHE_PIA_HITS).set(pia_hits);
    registry.gauge(names::CACHE_PIA_MISSES).set(pia_misses);
    registry
        .gauge(names::CACHE_ENTRIES)
        .set((sia_len + pia_len) as u64);
    registry
        .gauge(names::SCHED_QUEUE_DEPTH)
        .set(state.scheduler.queued() as u64);
    registry
        .gauge(names::SCHED_JOBS_RUNNING)
        .set(state.scheduler.running() as u64);
    registry
        .gauge(names::SUBSCRIPTIONS)
        .set(state.subs.len() as u64);
    registry
        .gauge(names::ACTIVE_CONNS)
        .set(state.active_conns.load(Ordering::Relaxed) as u64);
    registry
        .gauge(names::PUSHED_EVENTS)
        .set(state.pushed_events.load(Ordering::Relaxed));
    let snap = registry.snapshot();
    let recent = recent
        .unwrap_or(DEFAULT_RECENT_TRACES)
        .min(telemetry.recorder.capacity());
    Response::Metrics {
        uptime_secs: state.started.elapsed().as_secs(),
        counters: snap.counters,
        gauges: snap.gauges,
        histos: wire_histos(&snap.histos),
        traces: wire_traces(telemetry.recorder.recent(recent)),
        slow_threshold_us: telemetry.recorder.slow_threshold_us(),
    }
}
