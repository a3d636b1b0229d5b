//! The serve protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, over any byte stream
//! (the daemon speaks it over TCP; tests speak it over in-memory
//! buffers). Requests are objects with an `"op"` discriminator:
//!
//! ```text
//! {"op":"top_k","h":3,"k":5}
//! {"op":"top_k","pattern":"4-loop","k":5}
//! {"op":"density_of","h":3,"vertex":11}
//! {"op":"membership","pattern":"diamond","vertex":11}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"health"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Query ops name the served index either by clique size (`"h"`) or by
//! pattern name (`"pattern"`, see [`IndexRef`]); a daemon can host the
//! same graph under several patterns concurrently. Naming an unserved
//! or unknown pattern is the typed error `bad_pattern`. When both
//! fields are present they must agree (`h` = pattern arity).
//!
//! Responses are `{"ok":true,"result":…}` or
//! `{"ok":false,"error":{"code":…,"message":…}}`. Every malformed
//! request maps to an error *response* — a protocol error must never
//! tear down the connection, let alone the daemon.
//!
//! Vertex ids on the wire are always **original file ids** (the u64 ids
//! of the ingested edge list); the daemon translates to and from
//! compact ranks internally. Densities travel as the exact string
//! (`"13/6"`) plus integer numerator/denominator — never a float.
//!
//! The answer serializers here ([`topk_result`], [`subgraph_json`]) are
//! shared with the CLI's `--json` mode, so a batch `lhcds topk --json`
//! and a served `top_k` query produce *string-identical* result
//! objects; CI diffs the two.

use crate::json::Json;
use lhcds_core::index::{QueryError, SubgraphView};
use lhcds_core::{FlowStats, Ratio};
use lhcds_graph::VertexId;

/// How a query op names the served index: by clique size (`h`), by
/// pattern name (`pattern` — a built-in name like `4-loop` or a raw
/// served key like `custom.1a2b…`), or both, which must then agree.
/// A bare `h` is the pre-pattern wire form and means the h-clique
/// index, so old clients keep working unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexRef {
    /// Clique size / pattern arity, if given.
    pub h: Option<usize>,
    /// Pattern name, if given.
    pub pattern: Option<String>,
}

impl IndexRef {
    /// Refers to the h-clique index (the pre-pattern wire form).
    pub fn clique(h: usize) -> IndexRef {
        IndexRef {
            h: Some(h),
            pattern: None,
        }
    }

    /// Refers to a served pattern by name.
    pub fn pattern(name: impl Into<String>) -> IndexRef {
        IndexRef {
            h: None,
            pattern: Some(name.into()),
        }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The k densest LhCDSes/LhxPDSes of a served index.
    TopK {
        /// Which served index.
        index: IndexRef,
        /// How many subgraphs.
        k: usize,
    },
    /// Exact density of the LhCDS/LhxPDS containing a vertex.
    DensityOf {
        /// Which served index.
        index: IndexRef,
        /// Vertex, in original file ids.
        vertex: u64,
    },
    /// The LhCDS/LhxPDS containing a vertex (rank + members).
    Membership {
        /// Which served index.
        index: IndexRef,
        /// Vertex, in original file ids.
        vertex: u64,
    },
    /// Server and index statistics.
    Stats,
    /// Prometheus-style text exposition of the server's counters and
    /// latency histograms (the exposition travels as a JSON string
    /// field; the protocol stays one JSON line per response).
    Metrics,
    /// Liveness and readiness: overall `ok`/`degraded` status plus a
    /// per-index readiness row (an index that failed to load at startup
    /// is reported, not hidden — the daemon serves what it has).
    Health,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to stop accepting and drain in-flight work.
    Shutdown,
}

/// A protocol-level failure, rendered as an `ok:false` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable code. Request-shape errors:
    /// `bad_request`, `unknown_op`, `bad_h`, `bad_pattern`, `bad_k`,
    /// `bad_vertex`, `shutting_down`. Robustness errors: `too_large`
    /// (request line over the byte limit), `deadline_exceeded` (answer
    /// missed the per-request deadline), `overloaded` (admission shed —
    /// safe to retry), `internal` (request execution panicked; the
    /// worker survived).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error with the given code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl From<QueryError> for ProtocolError {
    fn from(e: QueryError) -> Self {
        let code = match e {
            QueryError::KOutOfRange { .. } | QueryError::KZero => "bad_k",
            QueryError::VertexOutOfRange { .. } => "bad_vertex",
        };
        ProtocolError::new(code, e.to_string())
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v = Json::parse(line).map_err(|e| ProtocolError::new("bad_request", e.to_string()))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new("bad_request", "missing string field 'op'"))?;
    let field = |name: &str| -> Result<u64, ProtocolError> {
        v.get(name).and_then(Json::as_u64).ok_or_else(|| {
            ProtocolError::new(
                "bad_request",
                format!("op '{op}' needs a non-negative integer field '{name}'"),
            )
        })
    };
    // `h` and `pattern` are each optional, but at least one must name
    // the index — and a present field must still have the right type.
    let index = || -> Result<IndexRef, ProtocolError> {
        let h = match v.get("h") {
            None => None,
            Some(j) => Some(j.as_u64().ok_or_else(|| {
                ProtocolError::new(
                    "bad_request",
                    format!("op '{op}': field 'h' must be a non-negative integer"),
                )
            })? as usize),
        };
        let pattern = match v.get("pattern") {
            None => None,
            Some(j) => Some(
                j.as_str()
                    .ok_or_else(|| {
                        ProtocolError::new(
                            "bad_request",
                            format!("op '{op}': field 'pattern' must be a string"),
                        )
                    })?
                    .to_string(),
            ),
        };
        if h.is_none() && pattern.is_none() {
            return Err(ProtocolError::new(
                "bad_request",
                format!("op '{op}' needs an integer field 'h' or a string field 'pattern'"),
            ));
        }
        Ok(IndexRef { h, pattern })
    };
    match op {
        "top_k" => Ok(Request::TopK {
            index: index()?,
            k: field("k")? as usize,
        }),
        "density_of" => Ok(Request::DensityOf {
            index: index()?,
            vertex: field("vertex")?,
        }),
        "membership" => Ok(Request::Membership {
            index: index()?,
            vertex: field("vertex")?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::new(
            "unknown_op",
            format!("unknown op '{other}' (try top_k | density_of | membership | stats | metrics | health | ping | shutdown)"),
        )),
    }
}

/// Serializes a request (the client side of [`parse_request`]).
pub fn request_json(req: &Request) -> Json {
    // `op`, then the index fields that are present, then the op's own
    // operands — a pattern-free request renders exactly as before the
    // pattern field existed.
    fn with_index(op: &'static str, index: &IndexRef, rest: (&'static str, Json)) -> Json {
        let mut fields = vec![("op", Json::Str(op.into()))];
        if let Some(h) = index.h {
            fields.push(("h", Json::Int(h as i128)));
        }
        if let Some(p) = &index.pattern {
            fields.push(("pattern", Json::Str(p.clone())));
        }
        fields.push(rest);
        Json::object(fields)
    }
    match req {
        Request::TopK { index, k } => with_index("top_k", index, ("k", Json::Int(*k as i128))),
        Request::DensityOf { index, vertex } => {
            with_index("density_of", index, ("vertex", Json::Int(*vertex as i128)))
        }
        Request::Membership { index, vertex } => {
            with_index("membership", index, ("vertex", Json::Int(*vertex as i128)))
        }
        Request::Stats => Json::object([("op", Json::Str("stats".into()))]),
        Request::Metrics => Json::object([("op", Json::Str("metrics".into()))]),
        Request::Health => Json::object([("op", Json::Str("health".into()))]),
        Request::Ping => Json::object([("op", Json::Str("ping".into()))]),
        Request::Shutdown => Json::object([("op", Json::Str("shutdown".into()))]),
    }
}

/// Wraps a result in the success envelope, newline-framed.
pub fn ok_response(result: Json) -> String {
    let mut line = Json::object([("ok", Json::Bool(true)), ("result", result)]).render();
    line.push('\n');
    line
}

/// Wraps an error in the failure envelope, newline-framed.
pub fn err_response(e: &ProtocolError) -> String {
    let mut line = Json::object([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::object([
                ("code", Json::Str(e.code.into())),
                ("message", Json::Str(e.message.clone())),
            ]),
        ),
    ])
    .render();
    line.push('\n');
    line
}

/// One answer row: an LhCDS as the serializers see it. Both the batch
/// CLI (`Lhcds` values) and the index-backed server ([`SubgraphView`])
/// convert into this.
#[derive(Debug, Clone)]
pub struct AnswerRow<'a> {
    /// Member vertices, compact ranks, ascending.
    pub vertices: &'a [VertexId],
    /// Exact h-clique density.
    pub density: Ratio,
    /// Number of h-cliques inside.
    pub clique_count: u64,
}

impl<'a> From<SubgraphView<'a>> for AnswerRow<'a> {
    fn from(v: SubgraphView<'a>) -> Self {
        AnswerRow {
            vertices: v.vertices,
            density: v.density,
            clique_count: v.clique_count,
        }
    }
}

/// Serializes one subgraph. `rank` is 1-based; `ids` maps compact ranks
/// to original file ids (identity for already-compact inputs).
pub fn subgraph_json(rank: usize, row: &AnswerRow<'_>, ids: &dyn Fn(VertexId) -> u64) -> Json {
    Json::object([
        ("rank", Json::Int(rank as i128)),
        ("density", Json::Str(row.density.to_string())),
        ("density_num", Json::Int(row.density.num())),
        ("density_den", Json::Int(row.density.den())),
        ("size", Json::Int(row.vertices.len() as i128)),
        ("instances", Json::Int(row.clique_count as i128)),
        (
            "vertices",
            Json::Array(
                row.vertices
                    .iter()
                    .map(|&v| Json::Int(ids(v) as i128))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes a full top-k answer — **the** shared shape between
/// `lhcds topk --json`, `lhcds query top-k`, and the daemon.
pub fn topk_result<'a>(
    h: usize,
    k: usize,
    rows: impl IntoIterator<Item = AnswerRow<'a>>,
    ids: &dyn Fn(VertexId) -> u64,
) -> Json {
    let subgraphs: Vec<Json> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| subgraph_json(i + 1, &row, ids))
        .collect();
    Json::object([
        ("h", Json::Int(h as i128)),
        ("k", Json::Int(k as i128)),
        ("found", Json::Int(subgraphs.len() as i128)),
        ("subgraphs", Json::Array(subgraphs)),
    ])
}

/// Serializes the flow-layer work counters — **the** shared shape
/// between `lhcds stats --json` and the daemon's `stats` op, so batch
/// and served telemetry stay string-identical. Counts only; the
/// warm-start hit rate is derived by consumers (this protocol carries
/// no floats). `cold_solves` is carried explicitly (the sum of
/// `first_build` and `infeasible_reset`) so pre-split consumers keep
/// working.
///
/// On the serving read path these are the process totals since start:
/// a healthy daemon shows `max_flow_invocations` frozen at its
/// index-build value — queries run zero flow.
pub fn flow_stats_json(stats: &FlowStats) -> Json {
    Json::object([
        ("networks_built", Json::Int(stats.networks_built as i128)),
        ("arcs_built", Json::Int(stats.arcs_built as i128)),
        (
            "max_flow_invocations",
            Json::Int(stats.max_flow_invocations as i128),
        ),
        ("warm_solves", Json::Int(stats.warm_solves as i128)),
        ("retract_solves", Json::Int(stats.retract_solves as i128)),
        ("cold_solves", Json::Int(stats.cold_solves() as i128)),
        ("first_build", Json::Int(stats.first_build as i128)),
        (
            "infeasible_reset",
            Json::Int(stats.infeasible_reset as i128),
        ),
        ("scale_fallbacks", Json::Int(stats.scale_fallbacks as i128)),
    ])
}

/// Serializes a latency histogram summary — **the** shared shape
/// between the daemon's `stats` op and `lhcds stats --json`. All
/// figures are integer microseconds (this protocol carries no floats);
/// percentiles are log-bucket upper bounds clamped to the observed
/// maximum, so they are exact to within the histogram's ~6% bucket
/// width.
pub fn latency_summary_json(h: &lhcds_obs::Histogram) -> Json {
    Json::object([
        ("count", Json::Int(h.count() as i128)),
        ("sum_us", Json::Int(h.sum() as i128)),
        ("min_us", Json::Int(h.min() as i128)),
        ("max_us", Json::Int(h.max() as i128)),
        ("p50_us", Json::Int(h.p50() as i128)),
        ("p99_us", Json::Int(h.p99() as i128)),
        ("p999_us", Json::Int(h.p999() as i128)),
    ])
}

/// Serializes a `density_of` answer (`null` density: vertex in no
/// LhCDS).
pub fn density_result(h: usize, vertex: u64, density: Option<Ratio>) -> Json {
    let (d, num, den) = match density {
        Some(r) => (
            Json::Str(r.to_string()),
            Json::Int(r.num()),
            Json::Int(r.den()),
        ),
        None => (Json::Null, Json::Null, Json::Null),
    };
    Json::object([
        ("h", Json::Int(h as i128)),
        ("vertex", Json::Int(vertex as i128)),
        ("density", d),
        ("density_num", num),
        ("density_den", den),
    ])
}

/// Serializes a `membership` answer (`null` subgraph: vertex in no
/// LhCDS).
pub fn membership_result(
    h: usize,
    vertex: u64,
    member_of: Option<(usize, AnswerRow<'_>)>,
    ids: &dyn Fn(VertexId) -> u64,
) -> Json {
    let subgraph = match member_of {
        Some((rank, row)) => subgraph_json(rank, &row, ids),
        None => Json::Null,
    };
    Json::object([
        ("h", Json::Int(h as i128)),
        ("vertex", Json::Int(vertex as i128)),
        ("subgraph", subgraph),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::TopK {
                index: IndexRef::clique(3),
                k: 5,
            },
            Request::TopK {
                index: IndexRef::pattern("4-loop"),
                k: 5,
            },
            Request::TopK {
                index: IndexRef {
                    h: Some(4),
                    pattern: Some("diamond".into()),
                },
                k: 1,
            },
            Request::DensityOf {
                index: IndexRef::clique(4),
                vertex: 7,
            },
            Request::Membership {
                index: IndexRef::pattern("3-star"),
                vertex: 0,
            },
            Request::Stats,
            Request::Health,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = request_json(&r).render();
            assert_eq!(parse_request(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn pattern_free_requests_render_the_pre_pattern_wire_form() {
        // old clients and old traffic captures must stay valid byte for
        // byte
        let line = request_json(&Request::TopK {
            index: IndexRef::clique(3),
            k: 5,
        })
        .render();
        assert_eq!(line, r#"{"op":"top_k","h":3,"k":5}"#);
        let line = request_json(&Request::TopK {
            index: IndexRef::pattern("4-loop"),
            k: 5,
        })
        .render();
        assert_eq!(line, r#"{"op":"top_k","pattern":"4-loop","k":5}"#);
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for (line, code) in [
            ("", "bad_request"),
            ("not json", "bad_request"),
            ("{}", "bad_request"),
            (r#"{"op":42}"#, "bad_request"),
            (r#"{"op":"frobnicate"}"#, "unknown_op"),
            (r#"{"op":"top_k"}"#, "bad_request"),
            (r#"{"op":"top_k","h":3}"#, "bad_request"),
            (r#"{"op":"top_k","h":3,"k":-1}"#, "bad_request"),
            (r#"{"op":"top_k","h":"three","k":1}"#, "bad_request"),
            (r#"{"op":"top_k","pattern":42,"k":1}"#, "bad_request"),
            (r#"{"op":"top_k","k":1}"#, "bad_request"),
            (r#"{"op":"density_of","h":3}"#, "bad_request"),
            (r#"{"op":"membership","pattern":"4-loop"}"#, "bad_request"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, code, "{line}");
        }
    }

    #[test]
    fn envelopes_are_parseable_one_liners() {
        let ok = ok_response(Json::Int(1));
        assert!(ok.ends_with('\n') && !ok.trim_end().contains('\n'));
        let v = Json::parse(ok.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        let err = err_response(&ProtocolError::new("bad_k", "k too big"));
        let v = Json::parse(err.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_k")
        );
    }

    #[test]
    fn topk_result_shape() {
        let vertices: Vec<u32> = vec![0, 1, 2];
        let rows = vec![AnswerRow {
            vertices: &vertices,
            density: Ratio::new(13, 6),
            clique_count: 13,
        }];
        let ids = |v: u32| u64::from(v) + 100; // a non-identity remap
        let out = topk_result(3, 2, rows, &ids).render();
        assert_eq!(
            out,
            r#"{"h":3,"k":2,"found":1,"subgraphs":[{"rank":1,"density":"13/6","density_num":13,"density_den":6,"size":3,"instances":13,"vertices":[100,101,102]}]}"#
        );
    }

    #[test]
    fn density_and_membership_nulls() {
        let out = density_result(3, 9, None).render();
        assert!(out.contains(r#""density":null"#), "{out}");
        let out = membership_result(3, 9, None, &|v| u64::from(v)).render();
        assert!(out.contains(r#""subgraph":null"#), "{out}");
        let out = density_result(3, 9, Some(Ratio::new(1, 3))).render();
        assert!(out.contains(r#""density":"1/3""#), "{out}");
    }

    #[test]
    fn flow_stats_json_shape_is_stable() {
        let stats = FlowStats {
            networks_built: 3,
            arcs_built: 120,
            max_flow_invocations: 9,
            warm_solves: 4,
            retract_solves: 2,
            first_build: 3,
            infeasible_reset: 2,
            scale_fallbacks: 0,
        };
        assert_eq!(
            flow_stats_json(&stats).render(),
            concat!(
                r#"{"networks_built":3,"arcs_built":120,"max_flow_invocations":9,"#,
                r#""warm_solves":4,"retract_solves":2,"cold_solves":5,"#,
                r#""first_build":3,"infeasible_reset":2,"scale_fallbacks":0}"#
            )
        );
    }

    #[test]
    fn query_errors_map_to_stable_codes() {
        let e: ProtocolError = QueryError::KZero.into();
        assert_eq!(e.code, "bad_k");
        let e: ProtocolError = QueryError::VertexOutOfRange { vertex: 9, n: 3 }.into();
        assert_eq!(e.code, "bad_vertex");
    }
}
