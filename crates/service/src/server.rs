//! The `lhcds` query daemon: a fixed worker-thread pool serving the
//! NDJSON protocol over `std::net::TcpListener`.
//!
//! Design constraints, in order:
//!
//! 1. **Queries are flow-free.** The daemon owns finished
//!    [`DecompositionIndex`]es; every request is answered from their
//!    arrays (plus an LRU of hot serialized `top_k` answers). The IPPV
//!    pipeline and the flow network are construction-time machinery
//!    that never runs here.
//! 2. **A client can never take the daemon down.** Malformed lines,
//!    unknown ops, out-of-range parameters, over-long lines, and
//!    disconnects map to protocol error responses or dropped
//!    connections. A request that somehow panics is caught per request
//!    (`catch_unwind`) and answered as the typed `internal` error; a
//!    panic that escapes a connection is caught per worker, counted,
//!    and the worker serves on — the pool never shrinks.
//! 3. **Failure is typed, never wrong.** Oversized request lines get
//!    `too_large` (the excess is discarded, bounded memory, connection
//!    survives), answers that miss the per-request deadline get
//!    `deadline_exceeded`, and connections above the admission bound
//!    are shed fast with `overloaded` instead of queueing forever. The
//!    `health` op reports liveness plus per-index readiness
//!    (`degraded` when an index failed to load). Every failure path
//!    has a deterministic fault-injection point
//!    ([`lhcds_obs::fault`]), so the chaos suite can drive each one
//!    and assert responses are byte-identical to batch output or typed
//!    errors.
//! 4. **Shutdown is graceful.** [`ShutdownHandle::shutdown`] (also
//!    triggered by the protocol `shutdown` op and, in the CLI, by
//!    SIGTERM/ctrl-c) stops the accept loop; workers finish every
//!    request whose bytes have already arrived, flush the response, and
//!    only then close. [`Server::join`] returns once all threads are
//!    parked.
//!
//! Everything is `std`: no async runtime, no network crates — the
//! build is offline by constraint, and a thread-per-connection-slot
//! model is plenty for a read-only in-memory index (the
//! `ha-h3-serve` workload of the benchmark under `benchmark/` measures
//! its throughput and tail latency).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::lru::Lru;
use crate::protocol::{
    density_result, err_response, flow_stats_json, latency_summary_json, membership_result,
    ok_response, parse_request, topk_result, AnswerRow, IndexRef, ProtocolError, Request,
};
use lhcds_core::index::{default_pattern_key, DecompositionIndex};
use lhcds_graph::VertexId;
use lhcds_obs::fault::{self, FaultPoint};
use lhcds_obs::{Histogram, Ring};
use lhcds_patterns::Pattern;

/// How often blocked loops re-check the stop flag.
const POLL: Duration = Duration::from_millis(20);
/// Read timeout on client sockets (bounds shutdown latency, not
/// clients: a slow client just spans several timeouts).
const READ_POLL: Duration = Duration::from_millis(100);
/// Write timeout on client sockets. A client that stops *reading*
/// eventually fills its TCP receive window; without this bound a
/// worker would block in `write_all` forever, never observe the stop
/// flag, and wedge `Server::join`. On timeout the connection is
/// dropped (the response would be torn anyway).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long an injected `slow_read` fault stalls a request line.
const SLOW_READ_STALL: Duration = Duration::from_millis(30);

/// How many over-threshold requests the slow-query ring retains.
const SLOW_RING_CAP: usize = 64;
/// Longest request-line snippet kept in a slow-query ring entry.
const SLOW_QUERY_SNIPPET: usize = 256;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fixed worker-thread count (= concurrently served connections).
    pub workers: usize,
    /// Capacity of the hot `(pattern key, k)` answer cache.
    pub lru_capacity: usize,
    /// Requests at or above this wall time (milliseconds) are retained
    /// in the slow-query ring (`0` retains everything).
    pub slow_query_ms: u64,
    /// Longest accepted request line, in bytes. Oversized lines are
    /// answered with the typed `too_large` error (the excess is
    /// discarded without buffering, so memory stays bounded and the
    /// connection survives).
    pub max_request_bytes: usize,
    /// Per-request deadline, milliseconds, measured from the first byte
    /// of the request line; an answer that misses it is replaced by the
    /// typed `deadline_exceeded` error. `0` disables the deadline.
    pub request_deadline_ms: u64,
    /// Admission bound: connections accepted while this many are
    /// already queued for a worker are shed fast with a typed
    /// `overloaded` error instead of queueing forever.
    pub max_pending: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            lru_capacity: 64,
            slow_query_ms: 100,
            max_request_bytes: 64 * 1024,
            request_deadline_ms: 10_000,
            max_pending: 1024,
        }
    }
}

/// The immutable data a server answers from: one graph, one finished
/// index per served pattern key, and the rank ↔ original-id
/// translation. The same graph can be hosted under several patterns
/// (say `clique.h3`, `4-loop`, and `2-triangle`) concurrently.
#[derive(Debug, Clone)]
pub struct ServedIndexes {
    /// Display name of the graph (source path or "builtin").
    pub name: String,
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// rank → original file id; `None` = identity (already compact).
    pub original_ids: Option<Vec<u64>>,
    /// One finished index per served pattern key (h-clique indexes
    /// under `clique.h{h}`, see `lhcds_core::index::default_pattern_key`).
    pub indexes: BTreeMap<String, DecompositionIndex>,
    /// Pattern keys that failed to load at startup, with the load
    /// error. A daemon with entries here serves what it has and
    /// reports `degraded` from the `health` op instead of refusing to
    /// start.
    pub failed: BTreeMap<String, String>,
}

impl ServedIndexes {
    /// Inserts `idx` under its own pattern key.
    pub fn insert(&mut self, idx: DecompositionIndex) {
        self.indexes.insert(idx.pattern().to_string(), idx);
    }

    fn display_id(&self, v: VertexId) -> u64 {
        match &self.original_ids {
            Some(ids) => ids[v as usize],
            None => u64::from(v),
        }
    }

    /// Compact rank of an original file id, if it names a vertex.
    fn rank_of(&self, original: u64) -> Option<VertexId> {
        match &self.original_ids {
            Some(ids) => ids.binary_search(&original).ok().map(|r| r as VertexId),
            None => (original < self.n as u64).then_some(original as VertexId),
        }
    }

    fn served_keys(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// Resolves a request's index reference to a served index and its
    /// canonical pattern key (the LRU key). A bare `h` means the
    /// h-clique index (`bad_h` when unserved, the pre-pattern error
    /// contract); a pattern name resolves through [`Pattern::parse`]
    /// with raw served keys (e.g. `custom.…`) as fallback, and any
    /// unknown/unserved/contradictory pattern is `bad_pattern`.
    fn index_for(&self, r: &IndexRef) -> Result<(String, &DecompositionIndex), ProtocolError> {
        let (key, named) = match (&r.pattern, r.h) {
            (None, None) => {
                // unreachable through parse_request, which demands one
                return Err(ProtocolError::new(
                    "bad_request",
                    "request names neither 'h' nor 'pattern'",
                ));
            }
            (None, Some(h)) => (default_pattern_key(h), None),
            (Some(name), _) => match Pattern::parse(name) {
                Some(p) => (p.key(), Some(name.as_str())),
                None if self.indexes.contains_key(name.as_str()) => {
                    (name.clone(), Some(name.as_str()))
                }
                None => {
                    return Err(ProtocolError::new(
                        "bad_pattern",
                        format!(
                            "unknown pattern '{name}' (this daemon serves {:?})",
                            self.served_keys()
                        ),
                    ));
                }
            },
        };
        let idx = self.indexes.get(&key).ok_or_else(|| match named {
            Some(name) => ProtocolError::new(
                "bad_pattern",
                format!(
                    "pattern '{name}' (key '{key}') is not served (this daemon serves {:?})",
                    self.served_keys()
                ),
            ),
            None => ProtocolError::new(
                "bad_h",
                format!(
                    "h = {} is not served (this daemon serves {:?})",
                    r.h.unwrap_or(0),
                    self.served_keys()
                ),
            ),
        })?;
        if let (Some(name), Some(h)) = (&r.pattern, r.h) {
            if idx.h() != h {
                return Err(ProtocolError::new(
                    "bad_pattern",
                    format!(
                        "pattern '{name}' has arity {}, but the request says h = {h}",
                        idx.h()
                    ),
                ));
            }
        }
        Ok((key, idx))
    }
}

/// Request classification for the per-op counters and latency
/// histograms. One variant per protocol op, plus [`OpKind::Invalid`]
/// for lines that never parsed to an op (malformed JSON, unknown op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `top_k`.
    TopK,
    /// `density_of`.
    DensityOf,
    /// `membership`.
    Membership,
    /// `stats`.
    Stats,
    /// `metrics`.
    Metrics,
    /// `health`.
    Health,
    /// `ping`.
    Ping,
    /// `shutdown`.
    Shutdown,
    /// Unparseable request line.
    Invalid,
}

impl OpKind {
    /// Every kind, in the fixed order `stats`/`metrics` report them.
    pub const ALL: [OpKind; 9] = [
        OpKind::TopK,
        OpKind::DensityOf,
        OpKind::Membership,
        OpKind::Stats,
        OpKind::Metrics,
        OpKind::Health,
        OpKind::Ping,
        OpKind::Shutdown,
        OpKind::Invalid,
    ];

    /// Stable telemetry name (the protocol's `op` spelling).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::TopK => "top_k",
            OpKind::DensityOf => "density_of",
            OpKind::Membership => "membership",
            OpKind::Stats => "stats",
            OpKind::Metrics => "metrics",
            OpKind::Health => "health",
            OpKind::Ping => "ping",
            OpKind::Shutdown => "shutdown",
            OpKind::Invalid => "invalid",
        }
    }

    fn of(req: &Request) -> OpKind {
        match req {
            Request::TopK { .. } => OpKind::TopK,
            Request::DensityOf { .. } => OpKind::DensityOf,
            Request::Membership { .. } => OpKind::Membership,
            Request::Stats => OpKind::Stats,
            Request::Metrics => OpKind::Metrics,
            Request::Health => OpKind::Health,
            Request::Ping => OpKind::Ping,
            Request::Shutdown => OpKind::Shutdown,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One over-threshold request, as retained by the slow-query ring.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Telemetry name of the op ([`OpKind::name`]).
    pub op: &'static str,
    /// Wall time spent answering, microseconds.
    pub duration_us: u64,
    /// The request line (truncated to a snippet).
    pub request: String,
}

/// Live counters, exposed by the `stats` and `metrics` ops and by
/// tests. Recording is lock-free (relaxed atomics and
/// [`Histogram::record`]); everything here is always on — these are
/// product metrics, independent of the `lhcds_obs` tracing flag.
#[derive(Debug)]
pub struct ServerStats {
    /// Requests answered (ok or error), across all connections.
    pub requests: AtomicU64,
    /// Responses answered from the hot-answer LRU.
    pub lru_hits: AtomicU64,
    /// `top_k` responses that had to be serialized fresh.
    pub lru_misses: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request executions that panicked — each one was caught and
    /// answered as the typed `internal` error; the worker survived.
    pub panics: AtomicU64,
    /// Connections shed at admission with the typed `overloaded` error.
    pub sheds: AtomicU64,
    /// Worker threads revived after a panic escaped a whole connection
    /// (the per-request guard makes this a should-never counter).
    pub worker_respawns: AtomicU64,
    /// Per-op request counts, indexed in [`OpKind::ALL`] order.
    pub op_requests: [AtomicU64; OpKind::ALL.len()],
    /// Per-op error-response counts, same order.
    pub op_errors: [AtomicU64; OpKind::ALL.len()],
    /// Per-op request latency histograms (microseconds), same order.
    pub op_latency: [Histogram; OpKind::ALL.len()],
    /// Overall request latency histogram (microseconds).
    pub latency: Histogram,
    /// When this stats block was created (= server start).
    started: Instant,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    /// Fresh zeroed counters with the uptime clock starting now.
    pub fn new() -> Self {
        ServerStats {
            requests: AtomicU64::new(0),
            lru_hits: AtomicU64::new(0),
            lru_misses: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            op_requests: std::array::from_fn(|_| AtomicU64::new(0)),
            op_errors: std::array::from_fn(|_| AtomicU64::new(0)),
            op_latency: std::array::from_fn(|_| Histogram::new()),
            latency: Histogram::new(),
            started: Instant::now(),
        }
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    fn record(&self, op: OpKind, us: u64, is_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.op_requests[op.index()].fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.op_errors[op.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.op_latency[op.index()].record(us);
        self.latency.record(us);
    }
}

struct Shared {
    served: ServedIndexes,
    stats: ServerStats,
    lru: Mutex<Lru<(String, usize), Arc<String>>>,
    stop: AtomicBool,
    /// Slow-query threshold, milliseconds ([`ServeOptions::slow_query_ms`]).
    slow_query_ms: u64,
    /// The most recent over-threshold requests, oldest evicted first.
    slow: Ring<SlowQuery>,
    /// Request-line byte limit ([`ServeOptions::max_request_bytes`]).
    max_request_bytes: usize,
    /// Per-request deadline, if enabled ([`ServeOptions::request_deadline_ms`]).
    deadline: Option<Duration>,
    /// Admission bound ([`ServeOptions::max_pending`]).
    max_pending: usize,
    /// Connections handed to the worker queue but not yet picked up.
    pending: AtomicU64,
}

impl Shared {
    /// Answers one already-framed request line. Infallible by design:
    /// every failure becomes an error response. Every answer — ok or
    /// error, including unparseable lines — is timed into the per-op
    /// and overall latency histograms, and over-threshold requests land
    /// in the slow-query ring. (Production traffic flows through
    /// [`Shared::respond_received`] so the deadline clock starts at the
    /// request's first byte; this wrapper is the unit-test entry.)
    #[cfg(test)]
    fn respond(&self, line: &str) -> (Arc<String>, bool) {
        self.respond_received(line, Instant::now())
    }

    /// Like [`Shared::respond`], with `received` = when the request's
    /// first byte arrived, so the per-request deadline covers a slowly
    /// trickling request line as well as execution time.
    fn respond_received(&self, line: &str, received: Instant) -> (Arc<String>, bool) {
        let start = Instant::now();
        let (op, mut response, is_shutdown) = self.dispatch(line);
        if let Some(deadline) = self.deadline {
            // Replace only ok answers: a typed error is already the
            // more specific signal, and it is never "a wrong answer
            // delivered late".
            if received.elapsed() > deadline && !response.starts_with("{\"ok\":false") {
                response = Arc::new(err_response(&ProtocolError::new(
                    "deadline_exceeded",
                    format!("request missed the {} ms deadline", deadline.as_millis()),
                )));
            }
        }
        let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // own serializer: an error envelope always renders with this
        // exact prefix, so no response re-parse is needed on the hot path
        let is_error = response.starts_with("{\"ok\":false");
        self.stats.record(op, us, is_error);
        if us >= self.slow_query_ms.saturating_mul(1_000) {
            self.slow.push(SlowQuery {
                op: op.name(),
                duration_us: us,
                request: line.chars().take(SLOW_QUERY_SNIPPET).collect(),
            });
        }
        (response, is_shutdown)
    }

    /// The typed answer to a request line over the byte limit. The line
    /// never parsed, so it classifies as [`OpKind::Invalid`]; it is
    /// still a fully counted request.
    fn oversized_response(&self) -> String {
        let start = Instant::now();
        let response = err_response(&ProtocolError::new(
            "too_large",
            format!(
                "request line exceeds the {}-byte limit (excess discarded)",
                self.max_request_bytes
            ),
        ));
        let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.stats.record(OpKind::Invalid, us, true);
        response
    }

    fn dispatch(&self, line: &str) -> (OpKind, Arc<String>, bool) {
        let req = match parse_request(line) {
            Err(e) => return (OpKind::Invalid, Arc::new(err_response(&e)), false),
            Ok(req) => req,
        };
        let op = OpKind::of(&req);
        // Per-request panic boundary: a panicking execution (a bug, or
        // the injected `worker_panic` fault) is counted and answered as
        // the typed `internal` error on the same connection — the
        // worker thread never unwinds, so the pool keeps its size.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(req))) {
            Ok((response, is_shutdown)) => (op, response, is_shutdown),
            Err(_) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                let e = ProtocolError::new(
                    "internal",
                    format!(
                        "request execution panicked (op '{}'); the worker survived",
                        op.name()
                    ),
                );
                (op, Arc::new(err_response(&e)), false)
            }
        }
    }

    fn execute(&self, req: Request) -> (Arc<String>, bool) {
        if fault::should_fire(FaultPoint::WorkerPanic) {
            panic!("injected worker panic");
        }
        match req {
            Request::Ping => (Arc::new(ok_response(Json::Str("pong".into()))), false),
            Request::Shutdown => (Arc::new(ok_response(Json::Str("stopping".into()))), true),
            Request::Stats => (Arc::new(ok_response(self.stats_json())), false),
            Request::Metrics => (Arc::new(ok_response(self.metrics_json())), false),
            Request::Health => (Arc::new(ok_response(self.health_json())), false),
            Request::TopK { index, k } => (self.top_k(&index, k), false),
            Request::DensityOf { index, vertex } => {
                (Arc::new(self.vertex_query(&index, vertex, false)), false)
            }
            Request::Membership { index, vertex } => {
                (Arc::new(self.vertex_query(&index, vertex, true)), false)
            }
        }
    }

    /// The `health` op: overall liveness plus per-index readiness. A
    /// daemon that lost an index at startup keeps serving the rest and
    /// says so here (`status: "degraded"`), instead of hiding it or
    /// refusing to start.
    fn health_json(&self) -> Json {
        let mut rows: Vec<Json> = self
            .served
            .indexes
            .keys()
            .map(|key| {
                Json::object([
                    ("pattern", Json::Str(key.clone())),
                    ("ready", Json::Bool(true)),
                ])
            })
            .collect();
        rows.extend(self.served.failed.iter().map(|(key, err)| {
            Json::object([
                ("pattern", Json::Str(key.clone())),
                ("ready", Json::Bool(false)),
                ("error", Json::Str(err.clone())),
            ])
        }));
        let status = if self.served.failed.is_empty() {
            "ok"
        } else {
            "degraded"
        };
        Json::object([
            ("status", Json::Str(status.into())),
            ("uptime_ms", Json::Int(self.stats.uptime_ms() as i128)),
            (
                "indexes_ready",
                Json::Int(self.served.indexes.len() as i128),
            ),
            (
                "indexes_failed",
                Json::Int(self.served.failed.len() as i128),
            ),
            ("indexes", Json::Array(rows)),
        ])
    }

    fn top_k(&self, r: &IndexRef, k: usize) -> Arc<String> {
        // Resolve before the LRU probe: `{"h":3}` and
        // `{"pattern":"triangle"}` canonicalize to the same key and
        // must share one cache entry.
        let (key, idx) = match self.served.index_for(r) {
            Ok(resolved) => resolved,
            Err(e) => return Arc::new(err_response(&e)),
        };
        if let Some(hit) = self
            .lru
            .lock()
            .expect("lru poisoned")
            .get(&(key.clone(), k))
        {
            self.stats.lru_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let line = match self.top_k_fresh(idx, k) {
            Ok(result) => ok_response(result),
            Err(e) => return Arc::new(err_response(&e)),
        };
        self.stats.lru_misses.fetch_add(1, Ordering::Relaxed);
        let line = Arc::new(line);
        self.lru
            .lock()
            .expect("lru poisoned")
            .insert((key, k), Arc::clone(&line));
        line
    }

    fn top_k_fresh(&self, idx: &DecompositionIndex, k: usize) -> Result<Json, ProtocolError> {
        let views = idx.top_k(k)?;
        let ids = |v: VertexId| self.served.display_id(v);
        Ok(topk_result(
            idx.h(),
            k,
            views.into_iter().map(AnswerRow::from),
            &ids,
        ))
    }

    fn vertex_query(&self, r: &IndexRef, vertex: u64, membership: bool) -> String {
        let (_, idx) = match self.served.index_for(r) {
            Ok(resolved) => resolved,
            Err(e) => return err_response(&e),
        };
        let Some(rank) = self.served.rank_of(vertex) else {
            return err_response(&ProtocolError::new(
                "bad_vertex",
                format!("vertex {vertex} is not a vertex of the served graph"),
            ));
        };
        let ids = |v: VertexId| self.served.display_id(v);
        let h = idx.h();
        if membership {
            let found = idx
                .membership(rank)
                .map(|view| (view.rank, AnswerRow::from(view)));
            ok_response(membership_result(h, vertex, found, &ids))
        } else {
            ok_response(density_result(h, vertex, idx.density_of(rank)))
        }
    }

    fn stats_json(&self) -> Json {
        // h_values lists only true h-clique indexes (the pre-pattern
        // field contract); patterns lists every served key.
        let hs: Vec<Json> = self
            .served
            .indexes
            .iter()
            .filter(|(key, idx)| **key == default_pattern_key(idx.h()))
            .map(|(_, idx)| Json::Int(idx.h() as i128))
            .collect();
        let patterns: Vec<Json> = self
            .served
            .indexes
            .keys()
            .map(|key| Json::Str(key.clone()))
            .collect();
        let decompositions: Vec<Json> = self
            .served
            .indexes
            .iter()
            .map(|(key, idx)| {
                Json::object([
                    ("pattern", Json::Str(key.clone())),
                    ("h", Json::Int(idx.h() as i128)),
                    ("k_max", Json::Int(idx.k_max() as i128)),
                    ("subgraphs", Json::Int(idx.len() as i128)),
                ])
            })
            .collect();
        // Per-op telemetry rows, in the fixed OpKind::ALL order; the
        // latency sub-objects render through the shared serializer
        // (`latency_summary_json`), like `flow` below.
        let ops: Vec<Json> = OpKind::ALL
            .iter()
            .map(|&op| {
                Json::object([
                    ("op", Json::Str(op.name().into())),
                    (
                        "requests",
                        Json::Int(
                            self.stats.op_requests[op.index()].load(Ordering::Relaxed) as i128
                        ),
                    ),
                    (
                        "errors",
                        Json::Int(self.stats.op_errors[op.index()].load(Ordering::Relaxed) as i128),
                    ),
                    (
                        "latency",
                        latency_summary_json(&self.stats.op_latency[op.index()]),
                    ),
                ])
            })
            .collect();
        let (slow_seen, slow_recent) = self.slow.snapshot();
        let slow = Json::object([
            ("threshold_ms", Json::Int(self.slow_query_ms as i128)),
            ("seen", Json::Int(slow_seen as i128)),
            (
                "recent",
                Json::Array(
                    slow_recent
                        .iter()
                        .map(|q| {
                            Json::object([
                                ("op", Json::Str(q.op.into())),
                                ("duration_us", Json::Int(q.duration_us as i128)),
                                ("request", Json::Str(q.request.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let lru = self.lru.lock().expect("lru poisoned");
        Json::object([
            ("graph", Json::Str(self.served.name.clone())),
            ("n", Json::Int(self.served.n as i128)),
            ("m", Json::Int(self.served.m as i128)),
            ("h_values", Json::Array(hs)),
            ("patterns", Json::Array(patterns)),
            ("indexes", Json::Array(decompositions)),
            ("uptime_ms", Json::Int(self.stats.uptime_ms() as i128)),
            (
                "requests",
                Json::Int(self.stats.requests.load(Ordering::Relaxed) as i128),
            ),
            (
                "connections",
                Json::Int(self.stats.connections.load(Ordering::Relaxed) as i128),
            ),
            (
                "panics",
                Json::Int(self.stats.panics.load(Ordering::Relaxed) as i128),
            ),
            (
                "shed",
                Json::Int(self.stats.sheds.load(Ordering::Relaxed) as i128),
            ),
            (
                "worker_respawns",
                Json::Int(self.stats.worker_respawns.load(Ordering::Relaxed) as i128),
            ),
            ("ops", Json::Array(ops)),
            ("latency", latency_summary_json(&self.stats.latency)),
            ("slow_queries", slow),
            (
                "lru",
                Json::object([
                    (
                        "hits",
                        Json::Int(self.stats.lru_hits.load(Ordering::Relaxed) as i128),
                    ),
                    (
                        "misses",
                        Json::Int(self.stats.lru_misses.load(Ordering::Relaxed) as i128),
                    ),
                    ("entries", Json::Int(lru.len() as i128)),
                    ("capacity", Json::Int(lru.capacity() as i128)),
                ]),
            ),
            // Process totals since start (shared serializer with `lhcds
            // stats --json`). On a healthy daemon max_flow_invocations
            // freezes after index build: the read path runs zero flow.
            ("flow", flow_stats_json(&lhcds_core::flow_stats())),
        ])
    }

    /// The `metrics` op: Prometheus text exposition, carried as a
    /// string field of the JSON result (the protocol stays one JSON
    /// line per response; `lhcds query metrics` prints it raw).
    fn metrics_json(&self) -> Json {
        Json::object([
            (
                "content_type",
                Json::Str("text/plain; version=0.0.4".into()),
            ),
            ("exposition", Json::Str(self.metrics_text())),
        ])
    }

    /// Renders the Prometheus-style text exposition. Every metric and
    /// label is emitted unconditionally (zeros included), so the shape
    /// is deterministic and CI can grep it.
    fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = &self.stats;
        let uptime_ms = s.uptime_ms();
        let _ = writeln!(
            out,
            "# HELP lhcds_uptime_seconds Seconds since the daemon started.\n\
             # TYPE lhcds_uptime_seconds gauge\n\
             lhcds_uptime_seconds {}.{:03}",
            uptime_ms / 1000,
            uptime_ms % 1000
        );
        let _ = writeln!(
            out,
            "# HELP lhcds_connections_total Connections accepted.\n\
             # TYPE lhcds_connections_total counter\n\
             lhcds_connections_total {}",
            s.connections.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP lhcds_panics_total Request executions that panicked (caught per request, answered as typed internal errors).\n\
             # TYPE lhcds_panics_total counter\n\
             lhcds_panics_total {}\n\
             # HELP lhcds_shed_total Connections shed at admission with a typed overloaded error.\n\
             # TYPE lhcds_shed_total counter\n\
             lhcds_shed_total {}\n\
             # HELP lhcds_worker_respawns_total Worker threads revived after a panic escaped a connection.\n\
             # TYPE lhcds_worker_respawns_total counter\n\
             lhcds_worker_respawns_total {}",
            s.panics.load(Ordering::Relaxed),
            s.sheds.load(Ordering::Relaxed),
            s.worker_respawns.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP lhcds_requests_total Requests answered, by op.\n\
             # TYPE lhcds_requests_total counter\n",
        );
        for &op in &OpKind::ALL {
            let _ = writeln!(
                out,
                "lhcds_requests_total{{op=\"{}\"}} {}",
                op.name(),
                s.op_requests[op.index()].load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP lhcds_errors_total Error responses, by op.\n\
             # TYPE lhcds_errors_total counter\n",
        );
        for &op in &OpKind::ALL {
            let _ = writeln!(
                out,
                "lhcds_errors_total{{op=\"{}\"}} {}",
                op.name(),
                s.op_errors[op.index()].load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP lhcds_request_duration_microseconds Request wall time, by op.\n\
             # TYPE lhcds_request_duration_microseconds summary\n",
        );
        let mut summary = |op: Option<OpKind>, h: &Histogram| {
            // op-labelled rows per op, plus unlabelled overall rows
            let label = op.map(|o| format!("op=\"{}\",", o.name()));
            let suffix = op.map(|o| format!("{{op=\"{}\"}}", o.name()));
            for (q, v) in [("0.5", h.p50()), ("0.99", h.p99()), ("0.999", h.p999())] {
                let _ = writeln!(
                    out,
                    "lhcds_request_duration_microseconds{{{}quantile=\"{q}\"}} {v}",
                    label.as_deref().unwrap_or("")
                );
            }
            let _ = writeln!(
                out,
                "lhcds_request_duration_microseconds_sum{} {}",
                suffix.as_deref().unwrap_or(""),
                h.sum()
            );
            let _ = writeln!(
                out,
                "lhcds_request_duration_microseconds_count{} {}",
                suffix.as_deref().unwrap_or(""),
                h.count()
            );
        };
        for &op in &OpKind::ALL {
            summary(Some(op), &s.op_latency[op.index()]);
        }
        summary(None, &s.latency);
        let (slow_seen, _) = self.slow.snapshot();
        let _ = writeln!(
            out,
            "# HELP lhcds_slow_queries_total Requests at or over the slow-query threshold.\n\
             # TYPE lhcds_slow_queries_total counter\n\
             lhcds_slow_queries_total {slow_seen}\n\
             # HELP lhcds_slow_query_threshold_milliseconds The slow-query threshold.\n\
             # TYPE lhcds_slow_query_threshold_milliseconds gauge\n\
             lhcds_slow_query_threshold_milliseconds {}",
            self.slow_query_ms
        );
        let lru = self.lru.lock().expect("lru poisoned");
        let _ = writeln!(
            out,
            "# HELP lhcds_lru_hits_total Hot-answer cache hits.\n\
             # TYPE lhcds_lru_hits_total counter\n\
             lhcds_lru_hits_total {}\n\
             # HELP lhcds_lru_misses_total Hot-answer cache misses.\n\
             # TYPE lhcds_lru_misses_total counter\n\
             lhcds_lru_misses_total {}\n\
             # HELP lhcds_lru_entries Hot-answer cache entries.\n\
             # TYPE lhcds_lru_entries gauge\n\
             lhcds_lru_entries {}",
            s.lru_hits.load(Ordering::Relaxed),
            s.lru_misses.load(Ordering::Relaxed),
            lru.len()
        );
        drop(lru);
        let _ = writeln!(
            out,
            "# HELP lhcds_index_subgraphs Frozen subgraphs per served index.\n\
             # TYPE lhcds_index_subgraphs gauge"
        );
        for (key, idx) in &self.served.indexes {
            let _ = writeln!(
                out,
                "lhcds_index_subgraphs{{pattern=\"{key}\"}} {}",
                idx.len()
            );
        }
        // a few flow-layer counters (process totals; frozen after index
        // build on a healthy daemon — the read path runs zero flow)
        let flow = lhcds_core::flow_stats();
        let _ = writeln!(
            out,
            "# HELP lhcds_flow_max_flow_invocations_total Max-flow solves since process start.\n\
             # TYPE lhcds_flow_max_flow_invocations_total counter\n\
             lhcds_flow_max_flow_invocations_total {}\n\
             # HELP lhcds_flow_networks_built_total Flow networks built since process start.\n\
             # TYPE lhcds_flow_networks_built_total counter\n\
             lhcds_flow_networks_built_total {}\n\
             # HELP lhcds_flow_warm_solves_total Warm-started max-flow solves.\n\
             # TYPE lhcds_flow_warm_solves_total counter\n\
             lhcds_flow_warm_solves_total {}",
            flow.max_flow_invocations, flow.networks_built, flow.warm_solves
        );
        out
    }
}

/// A handle that can stop a running [`Server`] from any thread (the
/// CLI's signal handler, tests, or the daemon itself on the `shutdown`
/// op).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests a graceful stop: no new connections, in-flight requests
    /// answered, then all threads exit.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping without [`Server::join`] detaches the
/// threads; prefer `shutdown_handle().shutdown()` + `join()`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop plus the fixed worker pool.
    pub fn bind(
        addr: impl ToSocketAddrs,
        served: ServedIndexes,
        opts: &ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            served,
            stats: ServerStats::new(),
            lru: Mutex::new(Lru::new(opts.lru_capacity.max(1))),
            stop: AtomicBool::new(false),
            slow_query_ms: opts.slow_query_ms,
            slow: Ring::new(SLOW_RING_CAP),
            max_request_bytes: opts.max_request_bytes.max(1),
            deadline: (opts.request_deadline_ms > 0)
                .then(|| Duration::from_millis(opts.request_deadline_ms)),
            max_pending: opts.max_pending.max(1),
            pending: AtomicU64::new(0),
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..opts.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lhcds-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("lhcds-serve-accept".into())
            .spawn(move || accept_loop(&listener, &tx, &accept_shared))
            .expect("spawn acceptor");

        Ok(Server {
            addr,
            shared,
            accept_thread,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle that can request a graceful stop.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Whether a stop has been requested (by a handle or the protocol).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests answered so far (ok or error).
    pub fn requests_served(&self) -> u64 {
        self.shared.stats.requests.load(Ordering::Relaxed)
    }

    /// Live telemetry: per-op counters and latency histograms. The
    /// bench harness reads percentiles from here instead of sampling
    /// client-side, so recorded numbers match what `stats` serves.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// LRU (hits, misses) so far.
    pub fn lru_counters(&self) -> (u64, u64) {
        (
            self.shared.stats.lru_hits.load(Ordering::Relaxed),
            self.shared.stats.lru_misses.load(Ordering::Relaxed),
        )
    }

    /// Blocks until the server has fully stopped (all threads joined).
    /// Call [`ShutdownHandle::shutdown`] first, or rely on the protocol
    /// `shutdown` op / the CLI signal handler.
    ///
    /// A panicked thread is joined, not propagated: the caller asked
    /// the daemon to stop, and the panic was already counted (see
    /// [`ServerStats::panics`] / [`ServerStats::worker_respawns`]) —
    /// re-raising it here would turn a survived fault into a crash at
    /// the very end of a clean shutdown.
    pub fn join(self) {
        let _ = self.accept_thread.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Sheds one connection at admission: answer the typed `overloaded`
/// error (best effort — the client may not even be reading yet) and
/// close. Runs on the accept thread, so the write must not block long;
/// the error line is far smaller than any socket send buffer.
fn shed(mut stream: TcpStream, shared: &Shared) {
    shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let e = ProtocolError::new(
        "overloaded",
        format!(
            "server is at its admission limit ({} queued connections); retry with backoff",
            shared.max_pending
        ),
    );
    let _ = stream.write_all(err_response(&e).as_bytes());
    let _ = stream.flush();
}

/// Whether an accepted connection clears the admission bound. On `true`
/// the pending gauge has been incremented (workers decrement on
/// pickup); on `false` the caller must shed.
fn admit(shared: &Shared) -> bool {
    if shared.pending.load(Ordering::Relaxed) >= shared.max_pending as u64 {
        return false;
    }
    shared.pending.fetch_add(1, Ordering::Relaxed);
    true
}

fn accept_loop(listener: &TcpListener, tx: &mpsc::Sender<TcpStream>, shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                if !admit(shared) {
                    shed(stream, shared);
                    continue;
                }
                if tx.send(stream).is_err() {
                    return; // all workers gone (only on stop)
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(POLL);
            }
            // transient accept errors (e.g. a connection reset between
            // queue and accept) must not kill the daemon
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Graceful drain: clients whose connect(2) already succeeded are
    // sitting in the kernel backlog even though we never accept(2)ed
    // them. Hand them to the workers too — their requests count as
    // in-flight. The listener is non-blocking, so this terminates at
    // WouldBlock (retrying EINTR: a signal is exactly what triggers
    // shutdown in the CLI path, and it must not truncate the drain).
    // Dropping `tx` afterwards is what lets the workers finish: they
    // serve until the queue disconnects.
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                if !admit(shared) {
                    shed(stream, shared);
                    continue;
                }
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Shared) {
    loop {
        // No stop-flag check here on purpose: a worker runs until the
        // accept thread has drained the backlog and dropped the sender
        // (Disconnected) — that is the "in-flight requests are
        // answered" half of graceful shutdown. Hold the lock only
        // while polling, so workers take turns.
        let next = rx.lock().expect("worker queue poisoned").recv_timeout(POLL);
        match next {
            Ok(stream) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                // Per-worker panic boundary. The per-request guard in
                // `dispatch` already answers panicking requests with a
                // typed error, so nothing should ever reach this one —
                // but if it does, the worker revives in place (counted)
                // instead of silently shrinking the pool.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, shared)
                }));
                if outcome.is_err() {
                    shared.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

enum LineOutcome {
    /// A complete line, plus when its first byte arrived (the
    /// per-request deadline clock starts there).
    Line(Vec<u8>, Instant),
    /// EOF or I/O error: drop the connection.
    Close,
    /// Stop requested while idle between requests.
    Stopped,
    /// The line exceeded the request byte limit. The excess was
    /// discarded (not buffered) through the terminating newline, so
    /// the connection survives to carry the typed `too_large` answer.
    TooLarge,
}

/// After a stop, how many read-timeout cycles a *partially received*
/// request line is given to complete before the connection is dropped.
/// A request only counts as in-flight once its bytes have fully
/// arrived; without this bound, one client holding a half-written line
/// open would park a worker forever and `Server::join` would hang.
const STOP_GRACE_POLLS: u32 = 3;

/// Reads one `\n`-framed line, polling the stop flag while idle.
/// Bytes that have already arrived are always served before a stop is
/// honored — that is the "in-flight requests are answered" guarantee.
/// A partial line gets [`STOP_GRACE_POLLS`] timeouts to finish after a
/// stop, then the connection is closed.
///
/// A line over `max_line` bytes switches the reader into discard mode:
/// the buffered prefix is dropped and every further byte is consumed
/// without being stored until the newline, so a 10 MiB line costs one
/// `BufReader` buffer of memory, not 10 MiB — then [`LineOutcome::TooLarge`]
/// lets the caller answer with the typed error and keep the connection.
fn read_line(reader: &mut BufReader<TcpStream>, stop: &AtomicBool, max_line: usize) -> LineOutcome {
    if fault::should_fire(FaultPoint::SocketRead) {
        return LineOutcome::Close; // injected: the socket read failed
    }
    // Injected slow read: stall the completed line below, as if its
    // bytes had trickled in — the deadline clock is already running.
    let stall = fault::should_fire(FaultPoint::SlowRead);
    let mut line: Vec<u8> = Vec::new();
    let mut started: Option<Instant> = None;
    let mut discarding = false;
    let mut stop_polls = 0u32;
    loop {
        let (consumed, done) = match reader.fill_buf() {
            Ok([]) => return LineOutcome::Close,
            Ok(buf) => {
                if started.is_none() {
                    started = Some(Instant::now());
                }
                match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        if !discarding {
                            line.extend_from_slice(&buf[..pos]);
                        }
                        (pos + 1, true)
                    }
                    None => {
                        if !discarding {
                            line.extend_from_slice(buf);
                        }
                        (buf.len(), false)
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    if started.is_none() {
                        return LineOutcome::Stopped;
                    }
                    stop_polls += 1;
                    if stop_polls > STOP_GRACE_POLLS {
                        return LineOutcome::Close;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Close,
        };
        reader.consume(consumed);
        if done {
            if stall {
                std::thread::sleep(SLOW_READ_STALL);
            }
            if discarding {
                return LineOutcome::TooLarge;
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return LineOutcome::Line(line, started.unwrap_or_else(Instant::now));
        }
        if !discarding && line.len() > max_line {
            discarding = true;
            line = Vec::new(); // free the oversized prefix immediately
        }
    }
}

/// Writes one response line, honoring the injected socket-write faults:
/// `socket_write` fails before any byte leaves, `partial_write`
/// delivers a prefix then fails. Either way the caller drops the
/// connection — a torn response must never be followed by another.
fn write_response(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    if fault::should_fire(FaultPoint::SocketWrite) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "injected socket write error",
        ));
    }
    if fault::should_fire(FaultPoint::PartialWrite) {
        writer.write_all(&response.as_bytes()[..response.len() / 2])?;
        writer.flush()?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "injected partial write",
        ));
    }
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_line(&mut reader, &shared.stop, shared.max_request_bytes) {
            LineOutcome::Close | LineOutcome::Stopped => return,
            LineOutcome::TooLarge => {
                let response = shared.oversized_response();
                if write_response(&mut writer, &response).is_err() {
                    return;
                }
            }
            LineOutcome::Line(raw, received) => {
                if raw.iter().all(|b| b.is_ascii_whitespace()) {
                    continue; // tolerate blank lines (interactive use)
                }
                let (response, is_shutdown) = match std::str::from_utf8(&raw) {
                    Ok(line) => shared.respond_received(line, received),
                    Err(_) => (
                        Arc::new(err_response(&ProtocolError::new(
                            "bad_request",
                            "request line is not valid utf-8",
                        ))),
                        false,
                    ),
                };
                // Flip the stop flag *before* acknowledging: once the
                // client reads the response, `is_shutting_down()` must
                // already be true (clients assert exactly that).
                if is_shutdown {
                    shared.stop.store(true, Ordering::SeqCst);
                }
                if write_response(&mut writer, &response).is_err() {
                    return; // client went away mid-response
                }
                if is_shutdown {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_core::index::{DecompositionIndex, IndexConfig};
    use lhcds_graph::CsrGraph;

    fn served() -> ServedIndexes {
        let g = CsrGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let mut served = ServedIndexes {
            name: "unit".into(),
            n: g.n(),
            m: g.m(),
            original_ids: None,
            indexes: BTreeMap::new(),
            failed: BTreeMap::new(),
        };
        served.insert(DecompositionIndex::build(&g, 3, &IndexConfig::default()));
        served.insert(lhcds_patterns::build_pattern_index(
            &g,
            Pattern::Cycle4,
            &IndexConfig::default(),
        ));
        served
    }

    fn shared() -> Shared {
        shared_with_slow_ring(100, SLOW_RING_CAP)
    }

    fn shared_with_slow_ring(slow_query_ms: u64, cap: usize) -> Shared {
        shared_for(served(), slow_query_ms, cap)
    }

    fn shared_for(served: ServedIndexes, slow_query_ms: u64, cap: usize) -> Shared {
        Shared {
            served,
            stats: ServerStats::new(),
            lru: Mutex::new(Lru::new(4)),
            stop: AtomicBool::new(false),
            slow_query_ms,
            slow: Ring::new(cap),
            max_request_bytes: 64 * 1024,
            deadline: None,
            max_pending: 1024,
            pending: AtomicU64::new(0),
        }
    }

    #[test]
    fn respond_handles_every_op_and_never_panics() {
        let s = shared();
        for line in [
            r#"{"op":"ping"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"metrics"}"#,
            r#"{"op":"health"}"#,
            r#"{"op":"top_k","h":3,"k":2}"#,
            r#"{"op":"top_k","pattern":"4-loop","k":2}"#,
            r#"{"op":"top_k","pattern":"triangle","k":2}"#,
            r#"{"op":"density_of","h":3,"vertex":0}"#,
            r#"{"op":"density_of","pattern":"4-loop","vertex":0}"#,
            r#"{"op":"membership","h":3,"vertex":4}"#,
            r#"{"op":"membership","pattern":"4-loop","vertex":4}"#,
            "garbage",
            r#"{"op":"top_k","h":9,"k":2}"#,
            r#"{"op":"top_k","pattern":"diamond","k":2}"#,
            r#"{"op":"top_k","pattern":"no-such","k":2}"#,
            r#"{"op":"top_k","pattern":"4-loop","h":3,"k":2}"#,
            r#"{"op":"top_k","h":3,"k":0}"#,
            r#"{"op":"top_k","h":3,"k":100000}"#,
            r#"{"op":"density_of","h":3,"vertex":99}"#,
        ] {
            let (resp, is_shutdown) = s.respond(line);
            assert!(!is_shutdown);
            let v = Json::parse(resp.trim_end()).unwrap();
            assert!(v.get("ok").is_some(), "{line}");
        }
        let (_, is_shutdown) = s.respond(r#"{"op":"shutdown"}"#);
        assert!(is_shutdown);
    }

    #[test]
    fn lru_serves_repeats_from_cache() {
        let s = shared();
        let (a, _) = s.respond(r#"{"op":"top_k","h":3,"k":2}"#);
        let (b, _) = s.respond(r#"{"op":"top_k","h":3,"k":2}"#);
        assert_eq!(a, b);
        assert_eq!(s.stats.lru_misses.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.lru_hits.load(Ordering::Relaxed), 1);
        // errors are not cached
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":0}"#);
        assert_eq!(s.stats.lru_misses.load(Ordering::Relaxed), 1);
        // every spelling of the same index shares one cache entry
        let (c, _) = s.respond(r#"{"op":"top_k","pattern":"triangle","k":2}"#);
        let (d, _) = s.respond(r#"{"op":"top_k","pattern":"3-clique","k":2}"#);
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(s.stats.lru_misses.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.lru_hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pattern_resolution_maps_to_stable_error_codes() {
        let s = shared();
        let code_of = |line: &str| -> String {
            let (resp, _) = s.respond(line);
            let v = Json::parse(resp.trim_end()).unwrap();
            match v.get("error") {
                Some(e) => e.get("code").unwrap().as_str().unwrap().to_string(),
                None => "ok".into(),
            }
        };
        // served under clique.h3 + 4-loop (see `served()`)
        assert_eq!(code_of(r#"{"op":"top_k","h":3,"k":1}"#), "ok");
        assert_eq!(code_of(r#"{"op":"top_k","pattern":"4-loop","k":1}"#), "ok");
        // redundant-but-consistent h is accepted
        assert_eq!(
            code_of(r#"{"op":"top_k","pattern":"4-loop","h":4,"k":1}"#),
            "ok"
        );
        // a bare h keeps the pre-pattern bad_h contract
        assert_eq!(code_of(r#"{"op":"top_k","h":9,"k":1}"#), "bad_h");
        // known pattern, not served here
        assert_eq!(
            code_of(r#"{"op":"top_k","pattern":"diamond","k":1}"#),
            "bad_pattern"
        );
        // unknown pattern name
        assert_eq!(
            code_of(r#"{"op":"top_k","pattern":"frob","k":1}"#),
            "bad_pattern"
        );
        // contradictory h + pattern
        assert_eq!(
            code_of(r#"{"op":"top_k","pattern":"4-loop","h":3,"k":1}"#),
            "bad_pattern"
        );
    }

    #[test]
    fn per_op_counters_classify_requests_and_errors() {
        let s = shared();
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":2}"#);
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":0}"#); // bad_k error
        let _ = s.respond(r#"{"op":"ping"}"#);
        let _ = s.respond("garbage");
        let load = |arr: &[AtomicU64; OpKind::ALL.len()], op: OpKind| {
            arr[op.index()].load(Ordering::Relaxed)
        };
        assert_eq!(load(&s.stats.op_requests, OpKind::TopK), 2);
        assert_eq!(load(&s.stats.op_errors, OpKind::TopK), 1);
        assert_eq!(load(&s.stats.op_requests, OpKind::Ping), 1);
        assert_eq!(load(&s.stats.op_errors, OpKind::Ping), 0);
        assert_eq!(load(&s.stats.op_requests, OpKind::Invalid), 1);
        assert_eq!(load(&s.stats.op_errors, OpKind::Invalid), 1);
        assert_eq!(s.stats.requests.load(Ordering::Relaxed), 4);
        // every answered request lands in both histograms
        assert_eq!(s.stats.latency.count(), 4);
        assert_eq!(s.stats.op_latency[OpKind::TopK.index()].count(), 2);
    }

    #[test]
    fn slow_query_ring_respects_threshold_and_stays_bounded() {
        // a huge threshold retains nothing
        let s = shared_with_slow_ring(u64::MAX / 2_000, 4);
        for _ in 0..8 {
            let _ = s.respond(r#"{"op":"ping"}"#);
        }
        assert_eq!(s.slow.total(), 0);

        // threshold 0 retains everything, bounded by the ring capacity,
        // oldest evicted first
        let s = shared_with_slow_ring(0, 4);
        for k in 1..=8usize {
            let _ = s.respond(&format!(r#"{{"op":"top_k","h":3,"k":{k}}}"#));
        }
        let (seen, recent) = s.slow.snapshot();
        assert_eq!(seen, 8);
        assert_eq!(recent.len(), 4, "ring is bounded");
        // ordered: the survivors are the four most recent, oldest first
        let ks: Vec<String> = recent
            .iter()
            .map(|q| {
                q.request
                    .rsplit(':')
                    .next()
                    .unwrap()
                    .trim_end_matches('}')
                    .into()
            })
            .collect();
        assert_eq!(ks, ["5", "6", "7", "8"]);
        for q in &recent {
            assert_eq!(q.op, "top_k");
        }
    }

    #[test]
    fn stats_json_reports_ops_latency_and_slow_queries() {
        let s = shared_with_slow_ring(0, 4);
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":2}"#);
        let _ = s.respond(r#"{"op":"top_k","h":9,"k":2}"#); // bad_h
        let v = Json::parse(&s.stats_json().render()).unwrap();
        assert!(v.get("uptime_ms").unwrap().as_u64().is_some());
        let ops = v.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), OpKind::ALL.len());
        let topk = ops
            .iter()
            .find(|o| o.get("op").unwrap().as_str() == Some("top_k"))
            .unwrap();
        assert_eq!(topk.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(topk.get("errors").unwrap().as_u64(), Some(1));
        let lat = topk.get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        assert!(lat.get("p999_us").unwrap().as_u64().is_some());
        let slow = v.get("slow_queries").unwrap();
        assert_eq!(slow.get("threshold_ms").unwrap().as_u64(), Some(0));
        assert_eq!(slow.get("seen").unwrap().as_u64(), Some(2));
        assert_eq!(slow.get("recent").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn metrics_exposition_has_the_expected_shape() {
        let s = shared();
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":2}"#);
        let _ = s.respond(r#"{"op":"top_k","h":3,"k":0}"#);
        let (resp, _) = s.respond(r#"{"op":"metrics"}"#);
        let v = Json::parse(resp.trim_end()).unwrap();
        let text = v
            .get("result")
            .unwrap()
            .get("exposition")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        for needle in [
            "# TYPE lhcds_uptime_seconds gauge",
            "lhcds_requests_total{op=\"top_k\"} 2",
            "lhcds_errors_total{op=\"top_k\"} 1",
            "lhcds_request_duration_microseconds{op=\"top_k\",quantile=\"0.99\"}",
            "lhcds_request_duration_microseconds_count{op=\"top_k\"} 2",
            "lhcds_request_duration_microseconds{quantile=\"0.5\"}",
            // the metrics request itself is recorded only after its
            // response renders, so the overall count here is 2
            "lhcds_request_duration_microseconds_count 2",
            "lhcds_slow_queries_total",
            "lhcds_panics_total 0",
            "lhcds_shed_total 0",
            "lhcds_worker_respawns_total 0",
            "lhcds_lru_misses_total 1",
            "lhcds_index_subgraphs{pattern=\"clique.h3\"}",
            "lhcds_flow_max_flow_invocations_total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // every exposition line is comment or `name[{labels}] value`
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, val)| !name.is_empty() && !val.contains(' ')),
                "malformed line: {line:?}"
            );
        }
    }

    #[test]
    fn remapped_ids_translate_both_ways() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let idx = DecompositionIndex::build(&g, 3, &IndexConfig::default());
        let mut indexes = BTreeMap::new();
        indexes.insert(idx.pattern().to_string(), idx);
        let s = shared_for(
            ServedIndexes {
                name: "remap".into(),
                n: 3,
                m: 3,
                original_ids: Some(vec![100, 200, 300]),
                indexes,
                failed: BTreeMap::new(),
            },
            100,
            SLOW_RING_CAP,
        );
        let (resp, _) = s.respond(r#"{"op":"membership","h":3,"vertex":200}"#);
        let v = Json::parse(resp.trim_end()).unwrap();
        let sub = v.get("result").unwrap().get("subgraph").unwrap();
        let verts: Vec<u64> = sub
            .get("vertices")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(verts, vec![100, 200, 300]);
        // a compact rank is NOT a valid wire id when a remap exists
        let (resp, _) = s.respond(r#"{"op":"density_of","h":3,"vertex":0}"#);
        let v = Json::parse(resp.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn health_reports_ok_then_degraded_when_an_index_failed() {
        let s = shared();
        let (resp, _) = s.respond(r#"{"op":"health"}"#);
        let v = Json::parse(resp.trim_end()).unwrap();
        let r = v.get("result").unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(r.get("indexes_failed").unwrap().as_u64(), Some(0));
        let rows = r.get("indexes").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2); // clique.h3 + 4-loop (see served())
        assert!(rows
            .iter()
            .all(|row| row.get("ready").unwrap().as_bool() == Some(true)));

        let mut served = served();
        served
            .failed
            .insert("5-path".into(), "injected index-load failure".into());
        let s = shared_for(served, 100, SLOW_RING_CAP);
        let (resp, _) = s.respond(r#"{"op":"health"}"#);
        let v = Json::parse(resp.trim_end()).unwrap();
        let r = v.get("result").unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(r.get("indexes_failed").unwrap().as_u64(), Some(1));
        let rows = r.get("indexes").unwrap().as_array().unwrap();
        let failed = rows
            .iter()
            .find(|row| row.get("ready").unwrap().as_bool() == Some(false))
            .expect("a failed row");
        assert_eq!(failed.get("pattern").unwrap().as_str(), Some("5-path"));
        assert!(failed.get("error").unwrap().as_str().is_some());
        // the degraded daemon still answers queries for what it has
        let (resp, _) = s.respond(r#"{"op":"top_k","h":3,"k":1}"#);
        assert!(resp.starts_with("{\"ok\":true"));
    }

    #[test]
    fn deadline_replaces_late_ok_answers_with_the_typed_error() {
        let mut s = shared();
        s.deadline = Some(Duration::from_millis(5));
        // a receipt instant far in the past simulates a request whose
        // line trickled in slowly (or whose execution dawdled)
        let received = Instant::now() - Duration::from_millis(50);
        let (resp, _) = s.respond_received(r#"{"op":"ping"}"#, received);
        let v = Json::parse(resp.trim_end()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("deadline_exceeded")
        );
        // typed errors pass through untouched — never double-wrapped
        let (resp, _) = s.respond_received(r#"{"op":"top_k","h":9,"k":1}"#, received);
        let v = Json::parse(resp.trim_end()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_h")
        );
        // a fresh request is unaffected
        let (resp, _) = s.respond(r#"{"op":"ping"}"#);
        assert!(resp.starts_with("{\"ok\":true"));
    }
}
