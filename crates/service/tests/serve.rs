//! Acceptance suite of the query-serving subsystem.
//!
//! Pins the contract of `ISSUE 4`:
//!
//! * index-served answers are **identical** to a fresh IPPV run, for
//!   every `(h, k)` in the index's configured range, on the paper's
//!   Figure 2 fixture and on proptest-generated graphs;
//! * serving answers is **flow-free**: the query path never invokes
//!   Dinic (checked with `lhcds_flow::max_flow_invocations`);
//! * the daemon survives ≥ 4 concurrent connections and every flavor
//!   of malformed request, and shuts down gracefully with in-flight
//!   requests answered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use lhcds_core::index::{DecompositionIndex, IndexConfig};
use lhcds_core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use lhcds_service::client;
use lhcds_service::json::Json;
use lhcds_service::protocol::{topk_result, AnswerRow, IndexRef, Request};
use lhcds_service::server::{ServeOptions, ServedIndexes, Server};
use proptest::prelude::*;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The max-flow counter is process-wide and sibling tests build indexes
/// (which run max-flow), so every test of this binary holds this lock:
/// the counter then moves only under the test that measures it.
static FLOW_COUNTER: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FLOW_COUNTER.lock().unwrap_or_else(|e| e.into_inner())
}

fn figure2() -> CsrGraph {
    lhcds_data::figure2_graph()
}

fn served_for(g: &CsrGraph, hs: &[usize], k_max: usize) -> ServedIndexes {
    let cfg = IndexConfig {
        k_max,
        ..IndexConfig::default()
    };
    let mut indexes = BTreeMap::new();
    for &h in hs {
        let idx = DecompositionIndex::build(g, h, &cfg);
        indexes.insert(idx.pattern().to_string(), idx);
    }
    ServedIndexes {
        name: "test".into(),
        n: g.n(),
        m: g.m(),
        original_ids: None,
        indexes,
        failed: BTreeMap::new(),
    }
}

/// Index answers == fresh pipeline answers, for every (h, k) in range.
fn assert_index_matches_fresh(g: &CsrGraph, hs: &[usize], k_max: usize) {
    for &h in hs {
        let idx = DecompositionIndex::build(
            g,
            h,
            &IndexConfig {
                k_max,
                ..IndexConfig::default()
            },
        );
        for k in 1..=k_max {
            let fresh = top_k_lhcds(g, h, k, &IppvConfig::default());
            let served = idx.top_k(k).expect("k in range");
            assert_eq!(served.len(), fresh.subgraphs.len(), "h={h} k={k}");
            for (a, b) in served.iter().zip(&fresh.subgraphs) {
                assert_eq!(a.vertices, &b.vertices[..], "h={h} k={k}");
                assert_eq!(a.density, b.density, "h={h} k={k}");
                assert_eq!(a.clique_count, b.clique_count, "h={h} k={k}");
            }
        }
        // membership agrees with the full decomposition
        let full = top_k_lhcds(g, h, usize::MAX, &IppvConfig::default());
        let mut expected: Vec<Option<usize>> = vec![None; g.n()];
        for (rank, s) in full.subgraphs.iter().enumerate() {
            for &v in &s.vertices {
                expected[v as usize] = Some(rank + 1);
            }
        }
        for v in 0..g.n() as VertexId {
            let got = idx.membership(v).map(|view| view.rank);
            assert_eq!(got, expected[v as usize], "h={h} vertex={v}");
        }
    }
}

#[test]
fn figure2_index_identical_to_fresh_runs_for_all_h_and_k() {
    let _serial = serial();
    assert_index_matches_fresh(&figure2(), &[2, 3, 4], 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn proptest_index_identical_to_fresh_runs(bits in prop::collection::vec(prop::bool::weighted(0.45), 45)) {
        let _serial = serial();
        // n = 10, 45 potential edges
        let mut b = GraphBuilder::new();
        b.ensure_vertex(9);
        let mut idx = 0;
        for u in 0..10u32 {
            for v in u + 1..10 {
                if bits[idx] {
                    b.add_edge(u, v);
                }
                idx += 1;
            }
        }
        let g = b.build();
        assert_index_matches_fresh(&g, &[2, 3], 4);
    }
}

#[test]
fn serving_is_flow_free_end_to_end() {
    let _serial = serial();
    let g = figure2();
    // Build everything (the only flow-using phase) first…
    let served = served_for(&g, &[2, 3], 8);
    let server = Server::bind("127.0.0.1:0", served, &ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    // …then snapshot the max-flow counter and hammer the server.
    let flow_before = lhcds_flow::max_flow_invocations();
    for h in [2usize, 3] {
        for k in 1..=8usize {
            let r = client::query(
                &addr,
                &Request::TopK {
                    index: IndexRef::clique(h),
                    k,
                },
                TIMEOUT,
            )
            .unwrap();
            assert!(r.get("found").unwrap().as_u64().unwrap() <= k as u64);
        }
        for v in 0..g.n() as u64 {
            client::query(
                &addr,
                &Request::DensityOf {
                    index: IndexRef::clique(h),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            client::query(
                &addr,
                &Request::Membership {
                    index: IndexRef::clique(h),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
        }
    }
    client::query(&addr, &Request::Stats, TIMEOUT).unwrap();
    assert_eq!(
        lhcds_flow::max_flow_invocations(),
        flow_before,
        "the query path must never touch the flow network"
    );

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn served_answers_match_batch_serializer_exactly() {
    let _serial = serial();
    // The served top_k result must be string-identical to what the
    // batch path (CLI --json) produces from a fresh pipeline run.
    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    for k in [1usize, 2, 3, 8] {
        let served = client::query(
            &addr,
            &Request::TopK {
                index: IndexRef::clique(3),
                k,
            },
            TIMEOUT,
        )
        .unwrap();
        let fresh = top_k_lhcds(&g, 3, k, &IppvConfig::default());
        let ids = |v: VertexId| u64::from(v);
        let batch = topk_result(
            3,
            k,
            fresh.subgraphs.iter().map(|s| AnswerRow {
                vertices: &s.vertices,
                density: s.density,
                clique_count: s.clique_count,
            }),
            &ids,
        );
        assert_eq!(served.render(), batch.render(), "k={k}");
    }
    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn four_concurrent_connections_are_served_correctly() {
    let _serial = serial();
    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let reference = client::query(
        &addr,
        &Request::TopK {
            index: IndexRef::clique(3),
            k: 2,
        },
        TIMEOUT,
    )
    .unwrap()
    .render();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 25;
    let barrier = std::sync::Barrier::new(CLIENTS);
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, reference, barrier, errors) = (&addr, &reference, &barrier, &errors);
            scope.spawn(move || {
                barrier.wait();
                // each client holds ONE persistent connection and
                // pipelines sequential requests over it
                for round in 0..ROUNDS {
                    let got = client::query(
                        addr,
                        &Request::TopK {
                            index: IndexRef::clique(3),
                            k: 2,
                        },
                        TIMEOUT,
                    );
                    match got {
                        Ok(v) if v.render() == *reference => {}
                        other => {
                            eprintln!("client {c} round {round}: {other:?}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    assert!(server.requests_served() >= (CLIENTS * ROUNDS) as u64);
    let (hits, misses) = server.lru_counters();
    assert_eq!(misses, 1, "one serialization, everything else cached");
    assert!(hits >= (CLIENTS * ROUNDS - 1) as u64);
    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn malformed_requests_never_kill_the_daemon() {
    let _serial = serial();
    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 4),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let expect_err = |line: &str, code: &str| {
        let raw = client::round_trip(&addr, line, TIMEOUT).unwrap();
        let v = Json::parse(&raw).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{line}");
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some(code),
            "{line}"
        );
    };
    expect_err("not json at all", "bad_request");
    expect_err("{}", "bad_request");
    expect_err(r#"{"op":"frobnicate"}"#, "unknown_op");
    expect_err(r#"{"op":"top_k","h":3}"#, "bad_request");
    expect_err(r#"{"op":"top_k","h":3,"k":0}"#, "bad_k");
    expect_err(r#"{"op":"top_k","h":3,"k":5}"#, "bad_k"); // beyond k_max=4
    expect_err(r#"{"op":"top_k","h":7,"k":1}"#, "bad_h");
    expect_err(r#"{"op":"density_of","h":3,"vertex":12345}"#, "bad_vertex");
    // non-utf8 bytes
    {
        use std::io::{BufRead, BufReader, Write};
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"\xff\xfe{bad utf8}\n").unwrap();
        s.flush().unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(line.contains("bad_request"), "{line}");
    }
    // an abruptly dropped connection is fine too
    drop(std::net::TcpStream::connect(&addr).unwrap());

    // after all that abuse, a good request still works
    let v = client::query(
        &addr,
        &Request::TopK {
            index: IndexRef::clique(3),
            k: 1,
        },
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(v.get("found").unwrap().as_u64(), Some(1));
    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_answers_in_flight_requests() {
    let _serial = serial();
    use std::io::{BufRead, BufReader, Write};

    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // open several persistent connections and park them idle
    let mut streams: Vec<std::net::TcpStream> = (0..3)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    // write a request on each, then immediately request shutdown: the
    // bytes are in flight — the daemon must still answer all of them
    for s in &mut streams {
        s.write_all(b"{\"op\":\"top_k\",\"h\":3,\"k\":1}\n")
            .unwrap();
        s.flush().unwrap();
    }
    let handle = server.shutdown_handle();
    handle.shutdown();
    assert!(handle.is_shutting_down());
    for s in streams {
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).expect("in-flight request answered");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }
    server.join(); // must return: all threads drain
}

#[test]
fn shutdown_does_not_hang_on_a_partial_request_line() {
    let _serial = serial();
    use std::io::Write;

    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // a half-written request with no terminating newline, held open
    let mut hog = std::net::TcpStream::connect(&addr).unwrap();
    hog.write_all(b"{\"op\":").unwrap();
    hog.flush().unwrap();
    // make sure the worker has picked the connection up and is parked
    // in its read loop before the stop arrives
    std::thread::sleep(Duration::from_millis(200));

    let t0 = std::time::Instant::now();
    server.shutdown_handle().shutdown();
    server.join(); // must return: the partial line gets a bounded grace
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join took {:?}",
        t0.elapsed()
    );
    drop(hog);
}

#[test]
fn protocol_shutdown_op_stops_the_server() {
    let _serial = serial();
    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let v = client::query(&addr, &Request::Shutdown, TIMEOUT).unwrap();
    assert_eq!(v.as_str(), Some("stopping"));
    assert!(server.is_shutting_down());
    server.join();
    // the port no longer accepts (give the OS a moment to tear down)
    std::thread::sleep(Duration::from_millis(50));
    let refused =
        std::net::TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(500));
    assert!(refused.is_err(), "listener must be closed after shutdown");
}

#[test]
fn stats_op_reports_shape_and_counters() {
    let _serial = serial();
    let g = figure2();
    let server = Server::bind(
        "127.0.0.1:0",
        served_for(&g, &[2, 3], 8),
        &ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    client::query(
        &addr,
        &Request::TopK {
            index: IndexRef::clique(3),
            k: 2,
        },
        TIMEOUT,
    )
    .unwrap();
    client::query(
        &addr,
        &Request::TopK {
            index: IndexRef::clique(3),
            k: 2,
        },
        TIMEOUT,
    )
    .unwrap();
    let stats = client::query(&addr, &Request::Stats, TIMEOUT).unwrap();
    assert_eq!(stats.get("n").unwrap().as_u64(), Some(20));
    assert_eq!(stats.get("m").unwrap().as_u64(), Some(39));
    assert_eq!(stats.get("h_values").unwrap().as_array().unwrap().len(), 2);
    let patterns: Vec<&str> = stats
        .get("patterns")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(patterns, ["clique.h2", "clique.h3"]);
    let lru = stats.get("lru").unwrap();
    assert_eq!(lru.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(lru.get("misses").unwrap().as_u64(), Some(1));
    // counters cover *completed* requests: the two top_k answers are
    // in, the stats request itself is still in flight while rendering
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 2);
    assert!(stats.get("uptime_ms").unwrap().as_u64().is_some());
    // per-op telemetry: one row per OpKind, top_k at 2 requests with
    // a fully populated integer-µs latency summary
    let ops = stats.get("ops").unwrap().as_array().unwrap();
    let topk = ops
        .iter()
        .find(|o| o.get("op").unwrap().as_str() == Some("top_k"))
        .unwrap();
    assert_eq!(topk.get("requests").unwrap().as_u64(), Some(2));
    assert_eq!(topk.get("errors").unwrap().as_u64(), Some(0));
    // the latency histogram is wired to exactly the completed requests
    assert_eq!(
        topk.get("latency").unwrap().get("count").unwrap().as_u64(),
        Some(2)
    );
    for key in [
        "count", "sum_us", "min_us", "max_us", "p50_us", "p99_us", "p999_us",
    ] {
        assert!(
            topk.get("latency")
                .unwrap()
                .get(key)
                .unwrap()
                .as_u64()
                .is_some(),
            "missing latency key {key}"
        );
        assert!(
            stats
                .get("latency")
                .unwrap()
                .get(key)
                .unwrap()
                .as_u64()
                .is_some(),
            "missing overall latency key {key}"
        );
    }
    let slow = stats.get("slow_queries").unwrap();
    assert_eq!(slow.get("threshold_ms").unwrap().as_u64(), Some(100));
    assert!(slow.get("recent").unwrap().as_array().is_some());
    // flow-layer telemetry rides along (shared serializer with the CLI)
    let flow = stats.get("flow").unwrap();
    for key in [
        "networks_built",
        "arcs_built",
        "max_flow_invocations",
        "warm_solves",
        "retract_solves",
        "cold_solves",
        "first_build",
        "infeasible_reset",
        "scale_fallbacks",
    ] {
        assert!(flow.get(key).unwrap().as_u64().is_some(), "missing {key}");
    }
    // index construction ran flow; serving these queries must not have
    // — pinned precisely by the flow-free test below, sanity here:
    assert!(flow.get("networks_built").unwrap().as_u64().unwrap() >= 1);
    server.shutdown_handle().shutdown();
    server.join();
}

/// PR 8 tentpole: one daemon, one graph, several patterns — every
/// pattern's answers are identical to a fresh `top_k_lhxpds` run, and
/// serving them is flow-free.
#[test]
fn daemon_hosts_one_graph_under_many_patterns() {
    let _serial = serial();
    use lhcds_patterns::{build_pattern_index, top_k_lhxpds, Pattern};

    let g = figure2();
    let cfg = IndexConfig {
        k_max: 8,
        ..IndexConfig::default()
    };
    let patterns = [Pattern::Triangle, Pattern::Cycle4, Pattern::Star3];

    // Build the served indexes AND the fresh reference answers first —
    // both run flow; the serving phase afterwards must not.
    let mut indexes = BTreeMap::new();
    for p in patterns {
        let idx = build_pattern_index(&g, p, &cfg);
        indexes.insert(idx.pattern().to_string(), idx);
    }
    let mut fresh_topk = Vec::new(); // (pattern, k) -> rendered batch json
    let mut fresh_full = Vec::new(); // pattern -> full decomposition
    for p in patterns {
        for k in 1..=8usize {
            let fresh = top_k_lhxpds(&g, p, k, &IppvConfig::default());
            let ids = |v: VertexId| u64::from(v);
            let batch = topk_result(
                p.arity(),
                k,
                fresh.subgraphs.iter().map(|s| AnswerRow {
                    vertices: &s.vertices,
                    density: s.density,
                    clique_count: s.clique_count,
                }),
                &ids,
            );
            fresh_topk.push((p, k, batch.render()));
        }
        fresh_full.push((p, top_k_lhxpds(&g, p, usize::MAX, &IppvConfig::default())));
    }

    let served = ServedIndexes {
        name: "multi".into(),
        n: g.n(),
        m: g.m(),
        original_ids: None,
        indexes,
        failed: BTreeMap::new(),
    };
    let server = Server::bind("127.0.0.1:0", served, &ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let flow_before = lhcds_flow::max_flow_invocations();

    for (p, k, expected) in &fresh_topk {
        let got = client::query(
            &addr,
            &Request::TopK {
                index: IndexRef::pattern(p.to_string()),
                k: *k,
            },
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(got.render(), *expected, "{p} k={k}");
    }
    for (p, full) in &fresh_full {
        let mut expected_rank: Vec<Option<usize>> = vec![None; g.n()];
        let mut expected_density: Vec<Option<String>> = vec![None; g.n()];
        for (rank, s) in full.subgraphs.iter().enumerate() {
            for &v in &s.vertices {
                expected_rank[v as usize] = Some(rank + 1);
                expected_density[v as usize] = Some(s.density.to_string());
            }
        }
        for v in 0..g.n() as u64 {
            let memb = client::query(
                &addr,
                &Request::Membership {
                    index: IndexRef::pattern(p.to_string()),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            let got_rank = memb
                .get("subgraph")
                .and_then(|s| s.get("rank"))
                .and_then(|r| r.as_u64())
                .map(|r| r as usize);
            assert_eq!(got_rank, expected_rank[v as usize], "{p} vertex={v}");
            let dens = client::query(
                &addr,
                &Request::DensityOf {
                    index: IndexRef::pattern(p.to_string()),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            let got_density = dens
                .get("density")
                .and_then(|d| d.as_str())
                .map(str::to_string);
            assert_eq!(got_density, expected_density[v as usize], "{p} vertex={v}");
        }
    }
    // the stats op lists every served pattern key
    let stats = client::query(&addr, &Request::Stats, TIMEOUT).unwrap();
    let keys: Vec<&str> = stats
        .get("patterns")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(keys, ["3-star", "4-loop", "clique.h3"]);

    assert_eq!(
        lhcds_flow::max_flow_invocations(),
        flow_before,
        "pattern serving must be flow-free"
    );
    server.shutdown_handle().shutdown();
    server.join();
}
