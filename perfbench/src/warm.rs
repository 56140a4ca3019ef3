//! The `serve_warm` workload: a real `mr2-serve` on loopback, one
//! keep-alive client in a closed loop over a working set that set-up
//! has answered once cold.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mr2_scenario::RunnerConfig;
use mr2_serve::{api, serve, Json, ServeConfig, ServerHandle};

use crate::check;
use crate::gen::{self, Endpoint, Req, Sizes};
use crate::util::{median, process_cpu_ms, quantile, us, Digest, Mark, WINDOW_S};

/// One keep-alive HTTP/1.1 connection that sends a request and reads
/// its whole reply before sending the next.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Where the last reply sits in the client's buffer, and when its first
/// byte arrived.
pub struct Reply {
    pub status: u16,
    pub body: std::ops::Range<usize>,
    pub first_byte: Instant,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn body(&self, r: &Reply) -> &[u8] {
        &self.buf[r.body.clone()]
    }

    /// Send `http` and read the reply. Reconnects first when the
    /// service closed the connection after the previous reply.
    pub fn send(&mut self, http: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(http)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let mut first_byte = None;
        let (head_end, body_len) = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(std::io::Error::other)?;
                let len = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| std::io::Error::other("reply without Content-Length"))?;
                break (end + 4, len);
            }
        };
        while self.buf.len() < head_end + body_len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(std::io::Error::other)?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        if head.to_ascii_lowercase().contains("connection: close") {
            self.stream = Client::connect(self.addr)?.stream;
        }
        Ok(Reply {
            status,
            body: head_end..head_end + body_len,
            first_byte: first_byte.expect("read at least one byte"),
        })
    }
}

/// A started service with its working set answered once cold.
pub struct Warm {
    pub handle: ServerHandle,
    pub client: Client,
    pub reqs: Vec<Req>,
    /// The cold reply body of each working-set request.
    pub cold: Vec<Vec<u8>>,
    /// Requests whose cold reply failed its check ([`check_cold`]).
    pub bad: Vec<bool>,
}

/// The service configuration: one worker thread beside the event loop,
/// no access log, and no keep-alive cap, so the one client keeps its
/// connection for the whole run.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        keep_alive_requests: usize::MAX,
        access_log: false,
        runner: RunnerConfig { threads: 1 },
        ..ServeConfig::default()
    }
}

/// Start the service and answer working set `set` once cold — the
/// timed part of `serve_warm`'s set-up.
pub fn start(seed: u64, set: u64, sizes: &mut Sizes) -> Result<Warm, String> {
    let reqs = gen::working_set(seed, set, sizes);
    let handle = serve(config()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
    let mut cold = Vec::with_capacity(reqs.len());
    for r in &reqs {
        let reply = client
            .send(&r.http)
            .map_err(|e| format!("cold request: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "cold {} answered {}: {}",
                r.endpoint.path(),
                reply.status,
                String::from_utf8_lossy(client.body(&reply))
            ));
        }
        cold.push(client.body(&reply).to_vec());
    }
    Ok(Warm {
        handle,
        client,
        bad: vec![false; reqs.len()],
        reqs,
        cold,
    })
}

/// Check every cold reply: it parses as JSON, estimates equal a direct
/// model call on the decoded point, plans meet their SLO with one node
/// fewer missing it, and scenarios carry every point with positive
/// estimates. A request whose cold reply fails is marked bad: its warm
/// replies must equal the cold one, so each of them counts as failed.
/// Returns the failures.
pub fn check_cold(w: &mut Warm) -> Vec<String> {
    let verdicts: Vec<Result<(), String>> = w
        .reqs
        .iter()
        .zip(&w.cold)
        .map(|(r, b)| check_reply(r, b))
        .collect();
    w.bad = verdicts.iter().map(Result::is_err).collect();
    verdicts
        .into_iter()
        .zip(&w.reqs)
        .filter_map(|(v, r)| v.err().map(|e| format!("cold {}: {e}", r.endpoint.path())))
        .collect()
}

fn check_reply(r: &Req, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8")?;
    let reply = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    match r.endpoint {
        Endpoint::Estimate => {
            let req = api::parse_estimate_request(&r.body)?;
            check::estimate_matches(&reply, &req.point)?;
        }
        Endpoint::Plan => {
            let req = api::parse_plan_request(&r.body)?;
            check::plan_sound(&reply, &req.plan)?;
        }
        Endpoint::Scenario => {
            let req = api::parse_scenario_request(&r.body)?;
            let points = reply
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("scenario reply has no points")?;
            if points.len() != req.scenario.num_points() {
                return Err("scenario reply is missing points".into());
            }
            for p in points {
                let fj = p
                    .get("model")
                    .and_then(|m| m.get("fork_join"))
                    .and_then(Json::as_f64);
                if !fj.is_some_and(|v| v.is_finite() && v > 0.0) {
                    return Err("scenario point without a positive estimate".into());
                }
            }
        }
    }
    Ok(())
}

/// Requests per round: a run sends whole rounds.
pub const ROUND: usize = 100;

/// What the timed phase measured and found.
#[derive(Default)]
pub struct Outcome {
    pub requests: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per window of at least [`WINDOW_S`]: median and 99th-percentile
    /// latency and median time to the first reply byte, µs. Samples are
    /// kept per window only, so memory does not grow with the run.
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub first_byte_us: Vec<f64>,
    /// Sum of latencies (µs) and count of replies, per endpoint.
    pub by_endpoint: [(f64, u64); 3],
    pub wall: Duration,
    pub digest: Option<Digest>,
    /// Process CPU at the start, and progress at the end of each round.
    pub cpu0_ms: f64,
    pub marks: Vec<Mark>,
}

/// Send whole rounds of the seeded request order until `rounds` are
/// done or `budget` has passed. Every reply must be a 200 whose body is
/// byte-identical to the cold reply of the same request.
pub fn run(w: &mut Warm, seed: u64, budget: Option<Duration>, rounds: u64) -> Outcome {
    let order = gen::request_order(seed, 100 * ROUND);
    let mut out = Outcome {
        digest: Some(Digest::new()),
        ..Outcome::default()
    };
    out.cpu0_ms = process_cpu_ms();
    let start = Instant::now();
    let mut k = 0usize;
    let (mut lat, mut ttfb) = (Vec::new(), Vec::new());
    let mut window_start = start;
    for round in 0..rounds {
        for _ in 0..ROUND {
            let i = order[k % order.len()];
            k += 1;
            let t0 = Instant::now();
            let result = w.client.send(&w.reqs[i].http);
            let done = Instant::now();
            out.requests += 1;
            let verdict = match &result {
                _ if w.bad[i] => Err("the cold reply it must equal failed its check".to_string()),
                Ok(reply) if reply.status != 200 => Err(format!("status {}", reply.status)),
                Ok(reply) if w.client.body(reply) != w.cold[i].as_slice() => {
                    Err("warm reply differs from the cold reply".to_string())
                }
                Ok(reply) => {
                    lat.push(us(done - t0));
                    ttfb.push(us(reply.first_byte - t0));
                    let e = &mut out.by_endpoint[w.reqs[i].endpoint as usize];
                    e.0 += us(done - t0);
                    e.1 += 1;
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            };
            if let Err(e) = verdict {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors
                        .push(format!("{} request: {e}", w.reqs[i].endpoint.path()));
                }
                if result.is_err() {
                    if let Ok(c) = Client::connect(w.handle.addr) {
                        w.client = c;
                    }
                }
            }
            if let (Ok(reply), Some(d)) = (&result, out.digest.as_mut()) {
                d.bytes(w.client.body(reply));
            }
        }
        out.marks.push(Mark {
            ops: out.requests,
            at: start.elapsed().as_secs_f64(),
            cpu_ms: process_cpu_ms(),
        });
        let last = budget.is_some_and(|b| start.elapsed() >= b) || round + 1 == rounds;
        if (last || window_start.elapsed().as_secs_f64() >= WINDOW_S) && !lat.is_empty() {
            out.p50_us.push(median(&lat));
            out.p99_us.push(quantile(&lat, 0.99));
            out.first_byte_us.push(median(&ttfb));
            lat.clear();
            ttfb.clear();
            window_start = Instant::now();
        }
        if last {
            break;
        }
    }
    out.wall = start.elapsed();
    out
}
