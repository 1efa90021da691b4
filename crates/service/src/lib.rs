//! INDaaS as a *service*: the continuous auditing daemon.
//!
//! The paper positions INDaaS as a service clouds query before deploying
//! redundancy; the one-shot CLI rebuilds the full fault graph from
//! scratch on every invocation. This crate turns the reproduction into a
//! long-running daemon:
//!
//! * **incremental sharded ingestion, no global lock** — Table-1
//!   records stream into a host-sharded [`indaas_deps::ShardedDepDb`];
//!   each effective batch bumps the global epoch and the epochs of
//!   exactly the shards it changed, publishing fresh snapshots of only
//!   those shards, each sharing every host list the batch left alone
//!   (ingest cost is proportional to what changed, not to shard or
//!   database size); batches lock only the shards they
//!   touch, snapshots are wait-free per-shard `Arc` loads, and
//!   duplicates are absorbed silently;
//! * **segmented persistence** — with [`ServeConfig::db_dir`] set, the
//!   store loads one Table-1 segment file per shard in parallel at
//!   boot (a legacy monolithic file migrates transparently) and saves
//!   dirty shards crash-safely (temp file + rename) on collector ticks
//!   and at shutdown;
//! * **concurrent scheduling** — SIA and PIA audit jobs run on a fixed
//!   worker pool behind a bounded queue with per-job deadlines
//!   ([`scheduler`]), enforced through the cancellable audit entry
//!   points in `indaas-core`/`indaas-sia`/`indaas-pia`;
//! * **content-hash caching** — results are cached by a hash of
//!   `(epoch pins of the shards the spec reads, audit spec)`
//!   ([`cache`]), so repeated or overlapping queries skip BDD
//!   compilation and sampling entirely, an ingest invalidates exactly
//!   the entries pinned to the shards it touched, and audits over
//!   untouched shards stay cached across unrelated ingests;
//! * **a multiplexed, binary-framed wire protocol** ([`proto`]) — a v2
//!   session pipelines many in-flight requests as correlated envelopes
//!   over length-prefixed binary frames, while v1 peers (plain
//!   line-delimited JSON, lock-step) keep working through the hello
//!   downgrade path — plus the pipelining [`Client`] session used by
//!   the `indaas` CLI and the end-to-end tests;
//! * **server-push audit subscriptions** ([`subs`]) — `Subscribe` pins
//!   a spec to the `(shard, epoch)` pairs its hosts route to; when an
//!   ingest bumps a pinned shard the daemon re-runs the audit through
//!   the normal scheduler and cache and pushes the fresh result to
//!   every affected subscriber over its bounded per-connection outbox
//!   (slow consumers shed their oldest events, never block ingest) —
//!   `indaas watch` is the CLI surface;
//! * **flight-recorder observability** ([`telemetry`]) — every stage of
//!   the pipeline records into a lock-cheap metrics registry (counters,
//!   gauges, log₂ latency histograms) and a bounded ring of recent
//!   request/audit traces; the v2 `Metrics` request returns the full
//!   snapshot, and `indaas metrics [--prom]` / `indaas top` are the CLI
//!   surfaces.
//!
//! # Example
//!
//! ```
//! use indaas_core::{AuditSpec, CandidateDeployment};
//! use indaas_service::{Client, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr();
//! let daemon = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! client
//!     .ingest(
//!         r#"
//!         <src="S1" dst="Internet" route="tor1,core1"/>
//!         <src="S2" dst="Internet" route="tor1,core2"/>
//!         <src="S3" dst="Internet" route="tor2,core2"/>
//!     "#,
//!     )
//!     .unwrap();
//! let spec = AuditSpec::sia_size_based(vec![
//!     CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
//!     CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
//! ]);
//! let first = client.audit_sia(&spec, None).unwrap();
//! assert!(!first.cached);
//! let second = client.audit_sia(&spec, None).unwrap();
//! assert!(second.cached, "same epoch + same spec = cache hit");
//! assert_eq!(second.report.best().unwrap().name, "S1+S3");
//!
//! client.shutdown().unwrap();
//! daemon.join().unwrap().unwrap();
//! ```

pub mod cache;
pub mod client;
pub mod codec;
pub mod names;
pub mod netloop;
pub mod proto;
pub mod scheduler;
pub mod server;
pub mod subs;
pub mod telemetry;

pub use cache::{job_key, AuditCache, EpochPins};
pub use client::{
    AuditEvent, Client, ClientError, IngestAnswer, MetricsAnswer, PendingResponse, PiaAnswer,
    SiaAnswer, StatusAnswer, Subscription, SubscriptionEnd, V1Client,
};
pub use proto::{
    Envelope, MetricHisto, Request, Response, ResponseEnvelope, SpanEntry, TraceEntry,
};
pub use scheduler::{SchedMetrics, Scheduler, SubmitError};
pub use server::{ServeConfig, Server, ServerHandle};
pub use subs::{Outbox, SubscriptionRegistry};
pub use telemetry::Telemetry;
