//! `indaas` — command-line independence auditing.
//!
//! ```text
//! indaas sia --records deps.txt --deploy "pair-a=S1,S2" --deploy "pair-b=S1,S3"
//! indaas sia --records deps.txt --deploy "svc=S1,S2" --algorithm sampling --rounds 100000
//! indaas pia --set Cloud1=c1.txt --set Cloud2=c2.txt --set Cloud3=c3.txt --way 2
//! indaas dot --records deps.txt --servers S1,S2 > graph.dot
//! ```
//!
//! `--records` files hold Table-1 records (`<src="S1" .../>`, one per
//! line); `--set` files hold one component per line. `--json` switches any
//! subcommand to machine-readable output.

use std::process::ExitCode;

use indaas::core::{AuditSpec, AuditingAgent, CandidateDeployment, RankingMetric, RgAlgorithm};
use indaas::deps::{parse_records, DepDb, FailureProbModel, ShardedDepDb, SimCollector};
use indaas::faultinj::points;
use indaas::federation::{Federation, FederationCoordinator, PeerRegistry};
use indaas::graph::to_dot;
use indaas::obs::{
    build_span_tree, format_trace_id, log as slog, parse_trace_id, SpanNode, SpanRecord,
};
use indaas::pia::normalize::normalize_set;
use indaas::pia::report::render_ranking;
use indaas::pia::{rank_deployments, PsopConfig};
use indaas::service::{
    names, Client, MetricsAnswer, Request, ServeConfig, Server, SpanEntry, StatusAnswer, TraceEntry,
};
use indaas::sia::{build_fault_graph, BuildSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sia") => cmd_sia(&args[1..]),
        Some("pia") => cmd_pia(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("federate") => cmd_federate(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("ping") => cmd_ping(&args[1..]),
        Some("help") | Some("--help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            slog::error("indaas", &format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
indaas — audit the independence of redundant deployments (INDaaS, OSDI'14)

USAGE:
  indaas sia --records FILE --deploy NAME=S1,S2[,...] [--deploy ...]
             [--algorithm minimal|sampling] [--rounds N] [--max-order K]
             [--metric size|probability] [--default-prob P]
             [--only network,hardware,software] [--json]
  indaas pia --set NAME=FILE [--set ...] [--way N] [--minhash M] [--json]
  indaas dot --records FILE --servers S1,S2[,...]
  indaas serve [--listen ADDR] [--workers N] [--queue N] [--cache N]
               [--deadline-ms MS] [--db-dir DIR] [--records FILE]
               [--max-conns N] [--peer ADDR ...] [--collect-interval MS]
               [--collect-truth FILE] [--log-level LVL] [--log-json]
  indaas watch --deploy NAME=S1,S2[,...] [--deploy ...] [--addr ADDR]
               [--count N] [--timeout-ms MS] [--json]
  indaas federate --peer ADDR --peer ADDR [--peer ...] [--seed N]
                  [--round-timeout-ms MS] [--json]
  indaas metrics [--addr ADDR] [--recent N] [--prom] [--json]
  indaas top [--addr ADDR] [--interval-ms MS] [--count N] [--plain]
  indaas trace TRACE_ID [--addr ADDR ...] [--json]
  indaas ping [--addr ADDR]

FILES:
  --records  Table-1 dependency records, one per line
  --set      one component identifier per line (normalized automatically)
";

const SERVE_USAGE: &str = "\
indaas serve — run the continuous auditing daemon

USAGE:
  indaas serve [--listen ADDR] [--workers N] [--queue N] [--cache N]
               [--shards N] [--deadline-ms MS] [--db-dir DIR]
               [--records FILE] [--max-conns N] [--peer ADDR ...]
               [--node NAME] [--round-timeout-ms MS]
               [--collect-interval MS] [--collect-truth FILE]
               [--collect-miss-rate R] [--slow-audit-ms MS]
               [--push-debounce-ms MS] [--log-level LVL] [--log-json]
               [--fault SPEC ...]

OPTIONS:
  --listen ADDR          listen address (default 127.0.0.1:4914; port 0 = ephemeral)
  --workers N            audit worker threads (default: cores - 1, capped at 8)
  --queue N              bounded job-queue capacity (default 256)
  --cache N              audit-result cache entries (default 4096)
  --shards N             dependency-store shards (default 8); an ingest
                         refreshes and invalidates only the shards it
                         touches (copying the hosts it edits, never a
                         whole shard), so more shards = narrower cache
                         invalidation and wider write concurrency
  --deadline-ms MS       default per-job deadline (default 30000)
  --db-dir DIR           segmented persistence directory: segments load
                         in parallel at boot (a legacy monolithic
                         Table-1 file path migrates in place, keeping a
                         .legacy.bak) and dirty shards are saved
                         crash-safely on collector ticks and at shutdown
  --records FILE         pre-load Table-1 records before serving
                         (layered on top of --db-dir contents, if any)
  --max-conns N          most concurrently served client connections
                         (default 1024); excess connections get one
                         clear error and are dropped
  --peer ADDR            federation peer allow-list entry (repeatable;
                         no --peer = accept any peer)
  --node NAME            node name announced in peer handshakes
                         (default: the bound listen address)
  --round-timeout-ms MS  per-round federation deadline ceiling (default 10000)
  --collect-interval MS  re-run registered collectors this often
  --collect-truth FILE   Table-1 ground truth for a simulated collector
  --collect-miss-rate R  simulated collector miss rate in [0, 1) (default 0)
  --slow-audit-ms MS     flight-recorder slow threshold: traces at or
                         above MS total are flagged slow in `indaas
                         metrics` (default 1000; 0 flags everything)
  --push-debounce-ms MS  coalesce subscription pushes: an ingest burst
                         invalidating the same subscription schedules
                         one pushed audit per MS window instead of one
                         per batch (default 0 = push immediately)
  --log-level LVL        minimum severity the structured logger emits:
                         error|warn|info|debug (default info)
  --log-json             log one JSON object per line instead of text
                         (lines carry trace=/span= stamps either way)
  --fault SPEC           arm a chaos fault point (repeatable), SPEC =
                         <point>=<policy>[:prob][:seed] with policy one
                         of error|delay(MS)|drop|disconnect|crash, e.g.
                         --fault fed.frame.send=error:0.2:7. Points:
{fault_points}
                         Every firing is logged and counted in
                         faults_injected_total; no --fault = zero cost

PROTOCOL v2 (hello line, then multiplexed envelopes in binary frames):
  -> {\"Hello\": {\"version\": 2}}               <- {\"Welcome\": {\"version\": 2}}
  -> frame {\"id\": 1, \"body\": {\"AuditSia\": {...}}}
  -> frame {\"id\": 2, \"body\": {\"Subscribe\": {\"spec\": {...}, \"engine\": \"sia\"}}}
  <- frame {\"id\": 2, \"body\": {\"Subscribed\": {\"subscription\": 9}}}
  <- frame {\"id\": 0, \"body\": {\"AuditEvent\": {...}}}   (server push)
PROTOCOL v1 (no Hello: line-delimited JSON, lock-step; still served):
  -> \"Ping\"                                    <- \"Pong\"
  -> {\"Ingest\": {\"records\": \"<src=...>\"}}  <- {\"Ingested\": {\"changed\": 1, \"ignored\": 0, \"epoch\": 1}}
  -> {\"FederateHello\": {...}}                  <- {\"FederateWelcome\": {...}}  (peer sessions)
  -> \"Status\" | \"Shutdown\"
";

/// Renders `SERVE_USAGE` with the `--fault` point list generated from
/// the registry ([`points::ALL`]), so the advertised points can never
/// drift from the declared ones.
fn serve_usage() -> String {
    let indent = " ".repeat(25);
    let mut lines: Vec<String> = Vec::new();
    for (i, (name, _)) in points::ALL.iter().enumerate() {
        let sep = if i + 1 == points::ALL.len() { "." } else { "," };
        let word = format!("{name}{sep}");
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= 72 => {
                line.push(' ');
                line.push_str(&word);
            }
            _ => lines.push(format!("{indent}{word}")),
        }
    }
    SERVE_USAGE.replace("{fault_points}", &lines.join("\n"))
}

const WATCH_USAGE: &str = "\
indaas watch — subscribe to a deployment's audit and print every push

The daemon re-runs the audit whenever an ingest changes a shard one of
the deployment's hosts routes to, and pushes the fresh result here the
moment it is ready — no polling. The first event arrives immediately
(the current state of the world).

The watcher self-heals: a lost connection re-dials with jittered
backoff and re-subscribes (detecting and reporting any epochs missed
while away — the resubscription immediately pulls the fresh state). A
clean daemon shutdown (announced ShuttingDown drain) exits zero;
connection loss that exhausts the re-dial budget exits non-zero.

USAGE:
  indaas watch --deploy NAME=S1,S2[,...] [--deploy ...] [--addr ADDR]
               [--count N] [--timeout-ms MS] [--json] [--no-reconnect]

OPTIONS:
  --deploy NAME=S1,S2    candidate deployment to keep audited (repeatable)
  --addr ADDR            daemon address (default 127.0.0.1:4914)
  --count N              exit after N pushed events (default: run forever)
  --timeout-ms MS        exit with an error if no event arrives within MS
  --json                 one JSON object per event
  --no-reconnect         exit non-zero on the first connection loss
                         instead of re-dialing
";

const FEDERATE_USAGE: &str = "\
indaas federate — run a private overlap audit across running daemons

Each --peer daemon plays one P-SOP ring party using the component set in
its own dependency database; this coordinator plays the auditing agent
and learns only the intersection/union cardinalities plus per-party
traffic — never any provider's components.

USAGE:
  indaas federate --peer ADDR --peer ADDR [--peer ...] [--seed N]
                  [--round-timeout-ms MS] [--json]

OPTIONS:
  --peer ADDR            a provider daemon, in ring order (at least two)
  --seed N               P-SOP seed shared by all parties (default 20560)
  --round-timeout-ms MS  per-round deadline sent to every daemon (default 10000)
  --json                 machine-readable output

DEGRADED OUTCOMES:
  When a strict minority of daemons is unreachable mid-round, the
  coordinator reports a degraded outcome instead of erroring: the failed
  parties are named (with whether each was reachable), no overlap result
  is produced, and the exit status is non-zero. JSON output carries
  \"degraded\": true plus a parties_failed array.
";

const METRICS_USAGE: &str = "\
indaas metrics — dump a running daemon's observability snapshot

Every registered counter, gauge and log₂ latency histogram, plus the
flight recorder's most recent request/audit traces (per-stage timings,
cache disposition, shard pins, slow flag).

USAGE:
  indaas metrics [--addr ADDR] [--recent N] [--prom] [--json]

OPTIONS:
  --addr ADDR    daemon address (default 127.0.0.1:4914)
  --recent N     how many recent traces to fetch (default: server's 32)
  --prom         Prometheus text exposition format (for scraping)
  --json         the raw Metrics response as JSON
";

const TRACE_USAGE: &str = "\
indaas trace — fetch one distributed trace and render its span tree

Every v2 request carries a trace context; the daemons record spans for
dispatch, queue wait, each engine stage, pushed audits and federation
rounds under it. This command asks each --addr daemon for the spans it
holds for TRACE_ID and stitches them into one parent/child tree — for a
federated audit that tree spans every ring daemon.

USAGE:
  indaas trace TRACE_ID [--addr ADDR ...] [--json]

OPTIONS:
  TRACE_ID       hex trace id, from `indaas federate` output, a watch
                 event, or the trace= stamp on any log line
  --addr ADDR    daemon to query (repeatable; default 127.0.0.1:4914)
  --json         machine-readable span list
";

const TOP_USAGE: &str = "\
indaas top — live terminal view of a running daemon

Refreshes a snapshot diff: request/audit rates since the previous tick,
per-stage latency quantiles, cache hit ratio, queue depth, outbox sheds,
and the most recent flight-recorder traces.

USAGE:
  indaas top [--addr ADDR] [--interval-ms MS] [--count N] [--plain]

OPTIONS:
  --addr ADDR       daemon address (default 127.0.0.1:4914)
  --interval-ms MS  refresh interval (default 1000)
  --count N         exit after N refreshes (default: run until ^C)
  --plain           no screen clearing between refreshes (log-friendly)
";

/// Simple flag cursor over argv.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn values(&self, flag: &str) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.args[i] == flag {
                if let Some(v) = self.args.get(i + 1) {
                    out.push(v.as_str());
                    i += 1;
                }
            }
            i += 1;
        }
        out
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).into_iter().next()
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

fn load_db(flags: &Flags) -> Result<DepDb, String> {
    let path = flags.value("--records").ok_or("missing --records FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = parse_records(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(DepDb::from_records(records))
}

/// Parses every `--deploy NAME=S1,S2[,...]` flag into candidates.
fn parse_deployments(flags: &Flags) -> Result<Vec<CandidateDeployment>, String> {
    let mut candidates = Vec::new();
    for spec in flags.values("--deploy") {
        let (name, servers) = spec
            .split_once('=')
            .ok_or_else(|| format!("--deploy wants NAME=S1,S2 (got {spec:?})"))?;
        let servers: Vec<String> = servers
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        if servers.len() < 2 {
            return Err(format!("deployment {name:?} needs at least two servers"));
        }
        candidates.push(CandidateDeployment::replicated(name, servers));
    }
    if candidates.is_empty() {
        return Err("at least one --deploy required".into());
    }
    Ok(candidates)
}

fn cmd_sia(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let db = load_db(&flags)?;
    let candidates = parse_deployments(&flags)?;

    let algorithm = match flags.value("--algorithm").unwrap_or("minimal") {
        "minimal" => RgAlgorithm::Minimal {
            max_order: flags
                .value("--max-order")
                .map(|v| v.parse().map_err(|e| format!("--max-order: {e}")))
                .transpose()?,
        },
        "sampling" => RgAlgorithm::Sampling {
            rounds: flags
                .value("--rounds")
                .unwrap_or("100000")
                .parse()
                .map_err(|e| format!("--rounds: {e}"))?,
            fail_prob: 0.5,
            seed: 2014,
            threads: 1,
        },
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    let metric = match flags.value("--metric").unwrap_or("size") {
        "size" => RankingMetric::Size,
        "probability" | "prob" => RankingMetric::Probability {
            default_prob: flags
                .value("--default-prob")
                .unwrap_or("0.05")
                .parse()
                .map_err(|e| format!("--default-prob: {e}"))?,
        },
        other => return Err(format!("unknown metric {other:?}")),
    };
    let only = flags.value("--only").unwrap_or("network,hardware,software");
    let spec = AuditSpec {
        candidates,
        network: only.contains("network"),
        hardware: only.contains("hardware"),
        software: only.contains("software"),
        algorithm,
        prob_model: matches!(metric, RankingMetric::Probability { .. })
            .then(FailureProbModel::gill_defaults),
        metric,
        top_n: None,
    };

    let agent = AuditingAgent::new(db);
    let report = agent.audit_sia(&spec).map_err(|e| e.to_string())?;
    if flags.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

fn cmd_pia(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let mut providers = Vec::new();
    for spec in flags.values("--set") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--set wants NAME=FILE (got {spec:?})"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let raw: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        if raw.is_empty() {
            return Err(format!("{path}: empty component set"));
        }
        providers.push((name.to_string(), normalize_set(raw)));
    }
    if providers.len() < 2 {
        return Err("at least two --set providers required".into());
    }
    let way: usize = flags
        .value("--way")
        .unwrap_or("2")
        .parse()
        .map_err(|e| format!("--way: {e}"))?;
    if way < 2 || way > providers.len() {
        return Err("--way must be between 2 and the number of providers".into());
    }
    let minhash = flags
        .value("--minhash")
        .map(|v| v.parse().map_err(|e| format!("--minhash: {e}")))
        .transpose()?;
    let rankings = rank_deployments(&providers, way, minhash, &PsopConfig::default());
    if flags.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rankings).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", render_ranking(way, &rankings));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{}", serve_usage());
        return Ok(());
    }
    let mut config = ServeConfig::default();
    if let Some(addr) = flags.value("--listen") {
        config.addr = addr.to_string();
    }
    if let Some(v) = flags.value("--workers") {
        config.workers = v.parse().map_err(|e| format!("--workers: {e}"))?;
        if config.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
    }
    if let Some(v) = flags.value("--queue") {
        config.queue_capacity = v.parse().map_err(|e| format!("--queue: {e}"))?;
    }
    if let Some(v) = flags.value("--cache") {
        config.cache_capacity = v.parse().map_err(|e| format!("--cache: {e}"))?;
    }
    if let Some(v) = flags.value("--shards") {
        config.shards = v.parse().map_err(|e| format!("--shards: {e}"))?;
        if config.shards == 0 {
            return Err("--shards must be at least 1".into());
        }
    }
    if let Some(v) = flags.value("--max-conns") {
        config.max_conns = v.parse().map_err(|e| format!("--max-conns: {e}"))?;
        if config.max_conns == 0 {
            return Err("--max-conns must be at least 1".into());
        }
    }
    if let Some(v) = flags.value("--deadline-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
        config.default_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = flags.value("--round-timeout-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--round-timeout-ms: {e}"))?;
        config.round_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = flags.value("--collect-interval") {
        let ms: u64 = v.parse().map_err(|e| format!("--collect-interval: {e}"))?;
        if ms == 0 {
            return Err("--collect-interval must be at least 1 ms".into());
        }
        config.collect_interval = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = flags.value("--slow-audit-ms") {
        config.slow_audit_ms = v.parse().map_err(|e| format!("--slow-audit-ms: {e}"))?;
    }
    if let Some(v) = flags.value("--push-debounce-ms") {
        config.push_debounce_ms = v.parse().map_err(|e| format!("--push-debounce-ms: {e}"))?;
    }
    if let Some(v) = flags.value("--log-level") {
        config.log_level = v.parse().map_err(|e| format!("--log-level: {e}"))?;
    }
    if flags.has("--log-json") {
        config.log_json = true;
    }
    if let Some(dir) = flags.value("--db-dir") {
        config.db_dir = Some(std::path::PathBuf::from(dir));
    }
    // Fault specs arm *before* the store opens so `db.load` faults
    // cover boot-time recovery too; bind re-arms the same specs, which
    // is harmless.
    config.faults = flags
        .values("--fault")
        .iter()
        .map(|s| s.to_string())
        .collect();
    for spec in &config.faults {
        indaas::faultinj::arm(spec).map_err(|e| format!("--fault: {e}"))?;
    }
    // The store opens from --db-dir (segments in parallel; a legacy
    // monolithic file migrates transparently; a missing path starts
    // empty; corrupt segments are quarantined and counted), then any
    // --records file is layered on top through the normal ingest path.
    let store = match &config.db_dir {
        Some(dir) => {
            let (store, report) = ShardedDepDb::open_reporting(dir, config.shards)
                .map_err(|e| format!("opening {}: {e}", dir.display()))?;
            config.boot_quarantined = report.quarantined.len() as u64;
            store
        }
        None => ShardedDepDb::new(config.shards),
    };
    if let Some(path) = flags.value("--records") {
        let db = DepDb::load(path).map_err(|e| format!("loading {path}: {e}"))?;
        store.ingest(db.all_records());
    }
    let server = Server::bind_with_store(config, store).map_err(|e| format!("bind: {e}"))?;

    // Federation is always on: the engine announces the bound address
    // (or --node) and enforces the --peer allow-list, if any.
    let node = flags
        .value("--node")
        .map(String::from)
        .unwrap_or_else(|| server.local_addr().to_string());
    let registry = PeerRegistry::with_peers(flags.values("--peer").iter().map(|s| s.to_string()));
    server.set_federation(std::sync::Arc::new(Federation::with_registry(
        node, registry,
    )));

    // A --collect-truth file arms a simulated collector; the timer in
    // the daemon re-runs it every --collect-interval.
    if let Some(path) = flags.value("--collect-truth") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let truth = parse_records(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let miss_rate: f64 = flags
            .value("--collect-miss-rate")
            .unwrap_or("0.0")
            .parse()
            .map_err(|e| format!("--collect-miss-rate: {e}"))?;
        if !(0.0..1.0).contains(&miss_rate) {
            return Err("--collect-miss-rate must be in [0, 1)".into());
        }
        server.add_collector(Box::new(SimCollector::new("sim", truth, miss_rate, 2014)));
    }

    // The logger keeps the message (ending in the address) last on the
    // text line, so tooling that scrapes the banner's trailing token
    // still finds the bound address.
    slog::info(
        "serve",
        &format!("indaas daemon listening on {}", server.local_addr()),
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{WATCH_USAGE}");
        return Ok(());
    }
    let candidates = parse_deployments(&flags)?;
    let spec = AuditSpec::sia_size_based(candidates);
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:4914");
    let count: Option<u64> = flags
        .value("--count")
        .map(|v| v.parse().map_err(|e| format!("--count: {e}")))
        .transpose()?;
    let timeout = flags
        .value("--timeout-ms")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--timeout-ms: {e}")))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let json = flags.has("--json");
    let no_reconnect = flags.has("--no-reconnect");

    // Watchers self-heal: a lost connection re-dials with jittered
    // backoff and re-subscribes; an *announced* server shutdown exits
    // zero. Only the very first connect (and repeated reconnect
    // failure) is fatal.
    const MAX_REDIALS: u32 = 5;
    let mut seen = 0u64;
    let mut last_epoch: Option<u64> = None;
    let mut first_connect = true;
    'session: loop {
        let session = (|| -> Result<(Client, indaas::service::Subscription), String> {
            let mut client =
                Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
            let subscription = client
                .subscribe(&spec)
                .map_err(|e| format!("subscribing: {e}"))?;
            Ok((client, subscription))
        })();
        let (mut client, mut subscription) = match session {
            Ok(s) => s,
            Err(e) if first_connect || no_reconnect => return Err(e),
            Err(e) => {
                let mut redials = 1u32;
                loop {
                    if redials >= MAX_REDIALS {
                        return Err(format!("{e} (gave up after {MAX_REDIALS} re-dials)"));
                    }
                    std::thread::sleep(reconnect_backoff(redials));
                    match Client::connect(addr)
                        .map_err(|err| format!("connecting {addr}: {err}"))
                        .and_then(|mut c| {
                            let s = c
                                .subscribe(&spec)
                                .map_err(|err| format!("subscribing: {err}"))?;
                            Ok((c, s))
                        }) {
                        Ok(s) => break s,
                        Err(_) => redials += 1,
                    }
                }
            }
        };
        if !json {
            slog::info(
                "watch",
                &format!(
                    "watching {} deployment(s) on {addr} (subscription {})",
                    spec.candidates.len(),
                    subscription.id()
                ),
            );
        }
        // Epoch-gap detection after a reconnect: if ingest waves landed
        // while we were away, say so — the subscription's immediate
        // first event *is* the fresh pull of the current state.
        if !first_connect {
            if let (Ok(status), Some(last)) = (client.status(), last_epoch) {
                if status.epoch > last {
                    slog::warn(
                        "watch",
                        &format!(
                            "missed epoch(s) {}..{} during reconnect; fresh audit pulled",
                            last + 1,
                            status.epoch
                        ),
                    );
                }
            }
        }
        first_connect = false;
        loop {
            // Checked before blocking so `--count 0` exits without
            // waiting for (or printing) an event.
            if count.is_some_and(|c| seen >= c) {
                return Ok(());
            }
            let received = match timeout {
                Some(t) => subscription.recv_timeout(t).map(|e| {
                    Some(e.ok_or_else(|| format!("no audit event within {}ms", t.as_millis())))
                }),
                None => subscription.recv().map(|e| Some(Ok(e))),
            };
            let event = match received {
                Ok(Some(Ok(event))) => event,
                Ok(Some(Err(timed_out))) => return Err(timed_out),
                Ok(None) => unreachable!("recv never yields Ok(None)"),
                Err(_) => match subscription.end() {
                    Some(indaas::service::SubscriptionEnd::CleanShutdown) => {
                        slog::info("watch", "server shut down cleanly; exiting");
                        return Ok(());
                    }
                    Some(indaas::service::SubscriptionEnd::ConnectionLost(reason)) => {
                        if no_reconnect {
                            return Err(format!("connection lost: {reason}"));
                        }
                        slog::warn("watch", &format!("connection lost ({reason}); re-dialing"));
                        std::thread::sleep(reconnect_backoff(1));
                        continue 'session;
                    }
                    None => return Err("subscription closed".to_string()),
                },
            };
            last_epoch = Some(event.epoch);
            if json {
                #[derive(serde::Serialize)]
                struct EventJson {
                    subscription: u64,
                    epoch: u64,
                    cached: bool,
                    elapsed_us: u64,
                    trace_id: Option<String>,
                    report: indaas::sia::AuditReport,
                }
                println!(
                    "{}",
                    serde_json::to_string(&EventJson {
                        subscription: event.subscription,
                        epoch: event.epoch,
                        cached: event.cached,
                        elapsed_us: event.elapsed_us,
                        trace_id: event.trace_id,
                        report: event.report,
                    })
                    .map_err(|e| e.to_string())?
                );
            } else {
                let best = event
                    .report
                    .best()
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|| "<none>".to_string());
                let trace = event
                    .trace_id
                    .as_deref()
                    .map(|t| format!(" trace={t}"))
                    .unwrap_or_default();
                println!(
                    "[epoch {}] best={best} cached={} elapsed={}us{trace}",
                    event.epoch, event.cached, event.elapsed_us
                );
                for d in &event.report.deployments {
                    println!(
                        "  {}: {} unexpected risk group(s)",
                        d.name, d.unexpected_rgs
                    );
                }
            }
            seen += 1;
        }
    }
}

/// Jittered exponential backoff for watch re-dials: 100ms doubling to a
/// 2s cap, plus up to 100ms of clock-derived jitter so a herd of
/// watchers does not hammer a restarting daemon in lock-step.
fn reconnect_backoff(attempt: u32) -> std::time::Duration {
    let base = std::time::Duration::from_millis(100)
        .saturating_mul(1u32 << attempt.min(5).saturating_sub(1));
    let jitter_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) % 100)
        .unwrap_or(0);
    base.min(std::time::Duration::from_secs(2)) + std::time::Duration::from_millis(jitter_ms)
}

fn cmd_federate(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{FEDERATE_USAGE}");
        return Ok(());
    }
    let peers: Vec<String> = flags
        .values("--peer")
        .iter()
        .map(|s| s.to_string())
        .collect();
    if peers.len() < 2 {
        return Err("at least two --peer daemons required".into());
    }
    let mut config = PsopConfig::default();
    if let Some(v) = flags.value("--seed") {
        config.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    let mut coordinator = FederationCoordinator::new(peers.clone()).with_config(config);
    if let Some(v) = flags.value("--round-timeout-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--round-timeout-ms: {e}"))?;
        coordinator = coordinator.with_round_timeout(std::time::Duration::from_millis(ms));
    }
    let outcome = coordinator.run().map_err(|e| e.to_string())?;
    let psop = outcome.psop.as_ref();
    let trace_id = format_trace_id(outcome.trace.trace_id);
    if flags.has("--json") {
        #[derive(serde::Serialize)]
        struct PartyJson {
            party: usize,
            addr: String,
            sent_bytes: u64,
            recv_bytes: u64,
        }
        #[derive(serde::Serialize)]
        struct PartyFailureJson {
            party: usize,
            addr: String,
            reachable: bool,
            error: String,
        }
        #[derive(serde::Serialize)]
        struct FederateJson {
            session: u64,
            trace: String,
            degraded: bool,
            intersection: Option<usize>,
            union: Option<usize>,
            jaccard: Option<f64>,
            total_bytes: Option<u64>,
            messages: Option<u64>,
            parties: Vec<PartyJson>,
            parties_failed: Vec<PartyFailureJson>,
        }
        let report = FederateJson {
            session: outcome.session,
            trace: trace_id,
            degraded: outcome.degraded(),
            intersection: psop.map(|p| p.intersection),
            union: psop.map(|p| p.union),
            jaccard: psop.map(|p| p.jaccard),
            total_bytes: psop.map(|p| p.traffic.total_bytes()),
            messages: psop.map(|p| p.traffic.message_count()),
            parties: psop
                .map(|p| {
                    peers
                        .iter()
                        .enumerate()
                        .map(|(i, addr)| PartyJson {
                            party: i,
                            addr: addr.clone(),
                            sent_bytes: p.traffic.sent_bytes(i),
                            recv_bytes: p.traffic.recv_bytes(i),
                        })
                        .collect()
                })
                .unwrap_or_default(),
            parties_failed: outcome
                .parties_failed
                .iter()
                .map(|f| PartyFailureJson {
                    party: f.index,
                    addr: f.peer.clone(),
                    reachable: f.reachable,
                    error: f.error.clone(),
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("federated P-SOP session {:#018x}", outcome.session);
        match psop {
            Some(psop) => {
                println!(
                    "  intersection: {}   union: {}   jaccard: {:.4}",
                    psop.intersection, psop.union, psop.jaccard
                );
                for (i, p) in peers.iter().enumerate() {
                    println!(
                        "  party {i} ({p}): sent {} B, received {} B",
                        psop.traffic.sent_bytes(i),
                        psop.traffic.recv_bytes(i)
                    );
                }
                println!(
                    "  agent: received {} B   total {} B in {} messages",
                    psop.traffic.recv_bytes(peers.len()),
                    psop.traffic.total_bytes(),
                    psop.traffic.message_count()
                );
            }
            None => {
                println!("  DEGRADED: no overlap result this round");
                for f in &outcome.parties_failed {
                    let kind = if f.reachable {
                        "reachable, round failed"
                    } else {
                        "unreachable"
                    };
                    println!("  party {} ({}) {kind}: {}", f.index, f.peer, f.error);
                }
            }
        }
        println!("  trace: {trace_id}   (stitch with `indaas trace {trace_id} --addr PEER ...`)");
    }
    if outcome.degraded() {
        let dead: Vec<String> = outcome
            .parties_failed
            .iter()
            .filter(|f| !f.reachable)
            .map(|f| format!("party {} ({})", f.index, f.peer))
            .collect();
        return Err(format!(
            "federated audit degraded: {} unreachable ({})",
            dead.len(),
            dead.join(", ")
        ));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{TRACE_USAGE}");
        return Ok(());
    }
    // One positional TRACE_ID among the flags.
    let mut id: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => i += 2,
            "--json" => i += 1,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{TRACE_USAGE}"));
            }
            positional => {
                if id.is_some() {
                    return Err(format!("more than one TRACE_ID given\n{TRACE_USAGE}"));
                }
                id = Some(positional);
                i += 1;
            }
        }
    }
    let id = id.ok_or_else(|| format!("missing TRACE_ID\n{TRACE_USAGE}"))?;
    let trace_id = parse_trace_id(id)
        .ok_or_else(|| format!("bad trace id {id:?} (expected up to 32 hex digits, nonzero)"))?;
    let addrs = {
        let given = flags.values("--addr");
        if given.is_empty() {
            vec!["127.0.0.1:4914"]
        } else {
            given
        }
    };

    // Each daemon returns only the spans it recorded locally; stitching
    // is purely client-side (span ids are minted once, at the caller,
    // so parent links line up across daemons).
    let mut entries: Vec<SpanEntry> = Vec::new();
    for addr in &addrs {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let (_node, spans) = client
            .fetch_trace(id)
            .map_err(|e| format!("fetching trace from {addr}: {e}"))?;
        entries.extend(spans);
    }
    if entries.is_empty() {
        return Err(format!(
            "no spans recorded for trace {} on {} daemon(s) — traces are held in a bounded \
             in-memory ring, so old ones age out",
            format_trace_id(trace_id),
            addrs.len()
        ));
    }
    if flags.has("--json") {
        #[derive(serde::Serialize)]
        struct TraceJson {
            trace: String,
            spans: Vec<SpanEntry>,
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&TraceJson {
                trace: format_trace_id(trace_id),
                spans: entries,
            })
            .map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    let nodes: std::collections::BTreeSet<&str> = entries.iter().map(|e| e.node.as_str()).collect();
    println!(
        "trace {} — {} span(s) across {} node(s)",
        format_trace_id(trace_id),
        entries.len(),
        nodes.len()
    );
    let spans: Vec<SpanRecord> = entries
        .into_iter()
        .filter_map(|e| {
            Some(SpanRecord {
                trace_id: parse_trace_id(&e.trace)?,
                span_id: e.span_id,
                parent_span_id: e.parent_span_id,
                name: e.name,
                detail: e.detail,
                node: e.node,
                start_us: e.start_us,
                elapsed_us: e.elapsed_us,
            })
        })
        .collect();
    let mut out = String::new();
    render_span_nodes(&mut out, &build_span_tree(spans), "");
    print!("{out}");
    Ok(())
}

/// Recursive box-drawing rendering of a stitched span tree.
fn render_span_nodes(out: &mut String, nodes: &[SpanNode], prefix: &str) {
    for (i, node) in nodes.iter().enumerate() {
        let last = i + 1 == nodes.len();
        let span = &node.span;
        let detail = if span.detail.is_empty() {
            String::new()
        } else {
            format!("  [{}]", span.detail)
        };
        out.push_str(&format!(
            "{prefix}{}{} ({}) {}us{detail}\n",
            if last { "└─ " } else { "├─ " },
            span.name,
            span.node,
            span.elapsed_us,
        ));
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        render_span_nodes(out, &node.children, &child_prefix);
    }
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{METRICS_USAGE}");
        return Ok(());
    }
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:4914");
    let recent = flags
        .value("--recent")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--recent: {e}")))
        .transpose()?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    if flags.has("--json") {
        let response = client
            .request(&Request::Metrics { recent })
            .map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let metrics = client.metrics(recent).map_err(|e| e.to_string())?;
    if flags.has("--prom") {
        let status = client.status().map_err(|e| e.to_string())?;
        print!("{}", render_prometheus(&metrics, &status));
    } else {
        print!("{}", render_metrics(&metrics));
    }
    Ok(())
}

/// Renders the snapshot in Prometheus text exposition format. Histogram
/// names drop their `_us` suffix for `_seconds` families (sums and `le`
/// bounds converted to seconds: log₂ bucket `i` covers up to `2^i - 1`
/// µs); the per-shard write counters come from `Status` as one labeled
/// family.
fn render_prometheus(metrics: &MetricsAnswer, status: &StatusAnswer) -> String {
    let mut out = String::new();
    for (name, value) in &metrics.counters {
        out.push_str(&format!(
            "# TYPE indaas_{name} counter\nindaas_{name} {value}\n"
        ));
    }
    for (name, value) in &metrics.gauges {
        out.push_str(&format!(
            "# TYPE indaas_{name} gauge\nindaas_{name} {value}\n"
        ));
    }
    for histo in &metrics.histos {
        let base = histo.name.strip_suffix("_us").unwrap_or(&histo.name);
        let family = format!("indaas_{base}_seconds");
        out.push_str(&format!("# TYPE {family} histogram\n"));
        let mut cumulative = 0u64;
        for (bucket, count) in &histo.buckets {
            cumulative += count;
            let le = if *bucket == 0 {
                0.0
            } else {
                ((1u128 << bucket) - 1) as f64 / 1e6
            };
            out.push_str(&format!("{family}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", histo.count));
        out.push_str(&format!("{family}_sum {}\n", histo.sum_us as f64 / 1e6));
        out.push_str(&format!("{family}_count {}\n", histo.count));
    }
    out.push_str("# TYPE indaas_shard_writes counter\n");
    for (shard, writes) in status.shard_writes.iter().enumerate() {
        out.push_str(&format!(
            "indaas_shard_writes{{shard=\"{shard}\"}} {writes}\n"
        ));
    }
    out.push_str(&format!(
        "# TYPE indaas_uptime_seconds gauge\nindaas_uptime_seconds {}\n",
        metrics.uptime_secs
    ));
    out
}

/// One flight-recorder trace as a human-readable line.
fn render_trace(trace: &TraceEntry) -> String {
    let mut line = format!(
        "  #{} {} [{}] {}us{}{}",
        trace.seq,
        trace.kind,
        trace.detail,
        trace.total_us,
        if trace.cached { " cached" } else { "" },
        if trace.slow { " SLOW" } else { "" },
    );
    if trace.outcome != "ok" {
        line.push_str(&format!(" outcome={}", trace.outcome));
    }
    if !trace.stages.is_empty() {
        let stages: Vec<String> = trace
            .stages
            .iter()
            .map(|(stage, us)| format!("{stage}={us}us"))
            .collect();
        line.push_str(&format!(" ({})", stages.join(" ")));
    }
    line
}

/// The default human-readable `indaas metrics` rendering.
fn render_metrics(metrics: &MetricsAnswer) -> String {
    let mut out = format!("uptime: {}s\n\ncounters:\n", metrics.uptime_secs);
    for (name, value) in &metrics.counters {
        out.push_str(&format!("  {name}: {value}\n"));
    }
    out.push_str("\ngauges:\n");
    for (name, value) in &metrics.gauges {
        out.push_str(&format!("  {name}: {value}\n"));
    }
    out.push_str("\nlatency (us):\n");
    for histo in &metrics.histos {
        if histo.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {}: n={} p50<={} p90<={} p99<={} max<={}\n",
            histo.name, histo.count, histo.p50_us, histo.p90_us, histo.p99_us, histo.max_us
        ));
    }
    out.push_str(&format!(
        "\nrecent traces (slow >= {}us):\n",
        metrics.slow_threshold_us
    ));
    for trace in &metrics.traces {
        out.push_str(&render_trace(trace));
        out.push('\n');
    }
    out
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--help") || flags.has("-h") {
        eprint!("{TOP_USAGE}");
        return Ok(());
    }
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:4914");
    let interval_ms: u64 = flags
        .value("--interval-ms")
        .unwrap_or("1000")
        .parse()
        .map_err(|e| format!("--interval-ms: {e}"))?;
    let count: Option<u64> = flags
        .value("--count")
        .map(|v| v.parse().map_err(|e| format!("--count: {e}")))
        .transpose()?;
    let plain = flags.has("--plain");
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut prev: Option<(MetricsAnswer, std::time::Instant)> = None;
    let mut ticks = 0u64;
    loop {
        let now = std::time::Instant::now();
        let metrics = client.metrics(Some(6)).map_err(|e| e.to_string())?;
        let status = client.status().map_err(|e| e.to_string())?;
        if !plain {
            // Clear + home, like a tiny `top`.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(addr, &metrics, &status, prev.as_ref()));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((metrics, now));
        ticks += 1;
        if count.is_some_and(|c| ticks >= c) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `indaas top` frame: rates are diffs against the previous tick.
fn render_top(
    addr: &str,
    metrics: &MetricsAnswer,
    status: &StatusAnswer,
    prev: Option<&(MetricsAnswer, std::time::Instant)>,
) -> String {
    // Counter rate since the previous tick, in events/second.
    let rate = |name: &str| -> f64 {
        let current = metrics.counter(name).unwrap_or(0);
        match prev {
            Some((p, at)) => {
                let dt = at.elapsed().as_secs_f64().max(1e-9);
                current.saturating_sub(p.counter(name).unwrap_or(0)) as f64 / dt
            }
            None => 0.0,
        }
    };
    let gauge = |name: &str| metrics.gauge(name).unwrap_or(0);
    let mut out = format!(
        "indaas top — {addr}   uptime {}s   epoch {}   records {}   conns {}\n\n",
        metrics.uptime_secs,
        status.epoch,
        status.records,
        gauge(names::ACTIVE_CONNS),
    );
    out.push_str(&format!(
        "rates:   {:.1} req/s   {:.1} audits/s   {:.1} ingests/s   {:.1} pushes/s\n",
        rate(names::REQUESTS_TOTAL),
        rate(names::AUDITS_SIA_TOTAL) + rate(names::AUDITS_PIA_TOTAL),
        rate(names::MUTATIONS_TOTAL),
        rate(names::PUSH_AUDITS_TOTAL),
    ));
    out.push_str(&format!(
        "cache:   {:.0}% hit   {} entries      queue: {} waiting, {} running\n",
        status.hit_ratio * 100.0,
        status.cache_entries,
        gauge(names::SCHED_QUEUE_DEPTH),
        gauge(names::SCHED_JOBS_RUNNING),
    ));
    out.push_str(&format!(
        "events:  {} pushed   {} shed      subs: {}\n",
        status.pushed_events,
        metrics.counter(names::OUTBOX_SHED_TOTAL).unwrap_or(0),
        status.subscriptions,
    ));
    out.push_str(&format!(
        "loop:    {:.1} wakeups/s   {} conns registered   {} outbound bytes queued\n\n\
         stage latency (us):\n",
        rate(names::LOOP_WAKEUPS_TOTAL),
        gauge(names::CONN_REGISTERED),
        gauge(names::WRITE_QUEUE_DEPTH),
    ));
    for histo in &metrics.histos {
        let interesting = histo.name.starts_with(names::AUDIT_STAGE_PREFIX)
            || matches!(
                histo.name.as_str(),
                names::AUDIT_SIA_US
                    | names::AUDIT_PIA_US
                    | names::PUSH_LATENCY_US
                    | names::INGEST_US
                    | names::DISPATCH_US
                    | names::LOOP_READY_EVENTS
            );
        if !interesting || histo.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<28} n={:<7} p50<={:<9} p99<={}\n",
            histo.name, histo.count, histo.p50_us, histo.p99_us
        ));
    }
    out.push_str("\nrecent traces:\n");
    for trace in &metrics.traces {
        out.push_str(&render_trace(trace));
        out.push('\n');
    }
    out
}

fn cmd_ping(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:4914");
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    client.ping().map_err(|e| e.to_string())?;
    println!("pong from {addr}");
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let db = load_db(&flags)?;
    let servers: Vec<String> = flags
        .value("--servers")
        .ok_or("missing --servers S1,S2")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let graph = build_fault_graph(&db, &BuildSpec::all("deployment", servers))
        .map_err(|e| e.to_string())?;
    print!("{}", to_dot(&graph, &[]));
    Ok(())
}
