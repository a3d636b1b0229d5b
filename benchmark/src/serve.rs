//! The serving surface: the query daemon (`Server`) hosting a loaded
//! index, driven by one closed-loop client over one persistent
//! connection. Every response is compared byte for byte with the shared
//! serializers rendered from the same loaded index.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lhcds::core::index::DecompositionIndex;
use lhcds::graph::VertexId;
use lhcds::service::protocol::{
    density_result, membership_result, ok_response, topk_result, AnswerRow,
};
use lhcds::service::server::{ServeOptions, ServedIndexes, Server};

use crate::workload::{Ids, Loaded, SplitMix64};

/// Largest `k` in the request mix.
pub const K_MAX: usize = 10;

/// Requests per burst at least, so that fifty lie beyond its p95.
const BURST_MIN_REQUESTS: u64 = 1000;

/// The byte-exact response every request of the mix must receive.
pub struct Expected {
    /// `top_k` for k = 1..=K_MAX, at `k - 1`.
    top_k: Vec<String>,
    /// `density_of` per vertex rank.
    density: Vec<String>,
    /// `membership` per vertex rank.
    membership: Vec<String>,
}

impl Expected {
    /// Renders every response of the mix from `index` with the shared
    /// serializers (the same functions `lhcds topk --json` uses).
    pub fn render(index: &DecompositionIndex, ids: &Ids) -> Result<Expected, String> {
        let h = index.h();
        let id = |v: VertexId| ids.get(v);
        let top_k = (1..=K_MAX)
            .map(|k| {
                let views = index.top_k(k).map_err(|e| e.to_string())?;
                Ok(ok_response(topk_result(
                    h,
                    k,
                    views.into_iter().map(AnswerRow::from),
                    &id,
                )))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ranks = 0..index.n() as VertexId;
        let density = ranks
            .clone()
            .map(|v| ok_response(density_result(h, id(v), index.density_of(v))))
            .collect();
        let membership = ranks
            .map(|v| {
                let found = index
                    .membership(v)
                    .map(|view| (view.rank, AnswerRow::from(view)));
                ok_response(membership_result(h, id(v), found, &id))
            })
            .collect();
        Ok(Expected {
            top_k,
            density,
            membership,
        })
    }
}

/// The seeded request mix: half `top_k` with k uniform in 1..=K_MAX
/// (large answers the server's LRU caches), a quarter each
/// `density_of` and `membership` on uniform vertices (small answers
/// rendered per request).
pub struct Mix {
    rng: SplitMix64,
    h: usize,
    n: u64,
}

impl Mix {
    pub fn new(seed: u64, h: usize, n: usize) -> Mix {
        Mix {
            rng: SplitMix64::new(seed ^ 0x5EED_5E4F_0000_0000),
            h,
            n: n as u64,
        }
    }

    /// The next request line and its expected response.
    fn next<'e>(&mut self, ids: &Ids, expected: &'e Expected) -> (String, &'e str) {
        let r = self.rng.next_u64();
        let h = self.h;
        let v = ((r >> 8) % self.n) as usize;
        match r & 3 {
            0 | 1 => {
                let k = 1 + ((r >> 8) % K_MAX as u64) as usize;
                (
                    format!("{{\"op\":\"top_k\",\"h\":{h},\"k\":{k}}}\n"),
                    &expected.top_k[k - 1],
                )
            }
            2 => (
                format!(
                    "{{\"op\":\"density_of\",\"h\":{h},\"vertex\":{}}}\n",
                    ids.get(v as VertexId)
                ),
                &expected.density[v],
            ),
            _ => (
                format!(
                    "{{\"op\":\"membership\",\"h\":{h},\"vertex\":{}}}\n",
                    ids.get(v as VertexId)
                ),
                &expected.membership[v],
            ),
        }
    }
}

/// What the client saw over a run.
#[derive(Default)]
pub struct Tally {
    /// Round-trip latency of every request, µs.
    pub latency_us: Vec<f64>,
    /// Requests per second of each burst (requests over the summed
    /// round-trip time; the answer checks between requests are not
    /// timed).
    pub burst_qps: Vec<f64>,
    /// p95 round-trip latency of each burst, µs.
    pub burst_p95: Vec<f64>,
    pub response_bytes: u64,
    pub requests: u64,
    /// Responses that were not byte-identical to the expected line
    /// (typed errors included) or that never arrived.
    pub failed: u64,
}

/// A running daemon plus its one connected client. Dropping it stops
/// the daemon and joins its threads.
pub struct Daemon {
    /// `Some` until dropped.
    server: Option<Server>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Daemon {
    /// Binds the daemon on an ephemeral localhost port with one worker
    /// and connects the client: the daemon's cold start after its index
    /// is loaded.
    pub fn start(index: DecompositionIndex, loaded: &Loaded, name: &str) -> Result<Daemon, String> {
        let mut served = ServedIndexes {
            name: name.into(),
            n: loaded.graph.n(),
            m: loaded.graph.m(),
            original_ids: loaded.ids.table(),
            indexes: Default::default(),
            failed: Default::default(),
        };
        served.insert(index);
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", served, &opts).map_err(|e| e.to_string())?;
        let connect = TcpStream::connect(server.local_addr()).and_then(|s| {
            s.set_nodelay(true)?;
            Ok((s.try_clone()?, s))
        });
        match connect {
            Ok((writer, stream)) => Ok(Daemon {
                server: Some(server),
                writer,
                reader: BufReader::new(stream),
            }),
            Err(e) => {
                server.shutdown_handle().shutdown();
                server.join();
                Err(format!("connect: {e}"))
            }
        }
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("running until dropped")
    }

    /// Sends requests from `mix`, one at a time, for `budget` and at
    /// least [`BURST_MIN_REQUESTS`], checking each answer after its round
    /// trip is timed.
    pub fn burst(
        &mut self,
        budget: Duration,
        mix: &mut Mix,
        ids: &Ids,
        expected: &Expected,
        tally: &mut Tally,
    ) {
        let mut line = String::new();
        let mut busy = Duration::ZERO;
        let first = tally.latency_us.len();
        let mut sent = 0u64;
        let start = Instant::now();
        while sent < BURST_MIN_REQUESTS || start.elapsed() < budget {
            let (request, want) = mix.next(ids, expected);
            line.clear();
            let t = Instant::now();
            let ok = self.writer.write_all(request.as_bytes()).is_ok()
                && matches!(self.reader.read_line(&mut line), Ok(n) if n > 0);
            let rtt = t.elapsed();
            busy += rtt;
            sent += 1;
            tally.requests += 1;
            tally.latency_us.push(rtt.as_secs_f64() * 1e6);
            tally.response_bytes += line.len() as u64;
            if !ok || line != want {
                tally.failed += 1;
                if !ok {
                    break;
                }
            }
        }
        if sent > 0 && !busy.is_zero() {
            tally.burst_qps.push(sent as f64 / busy.as_secs_f64());
            tally
                .burst_p95
                .push(crate::stats::quantile(&tally.latency_us[first..], 0.95));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_handle().shutdown();
            server.join();
        }
    }
}
