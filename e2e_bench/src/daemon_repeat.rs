//! `daemon-repeat`: an in-process `daenerysd` at its shipped defaults,
//! re-sent the same small projects many times from two client
//! connections and four tenants, like an editor or CI re-checking
//! unchanged files.
//!
//! Projects are case studies and family programs from the F1 pool plus
//! generated corpora of 50–200 methods. Method names are kept exactly
//! as the generators make them (`m0…`, `bump_all`, `chain`), so
//! projects share store keys the way real traffic would.
//!
//! The untraced run lets both clients send as fast as their replies
//! come back. The traced run serializes the two clients in a fixed
//! turn order, so the shared store sees one request order and every
//! count repeats; it times each request's connect, encode, server wait
//! and decode in line, and replays each request through an in-process
//! mirror of the daemon's session host to split the server's time into
//! verification and waiting.

use crate::edit_replay::dir_bytes;
use crate::f1_cold::{check_verdicts, programs, F1Program};
use crate::pipeline::{
    front_end, outcome_result, request_config, traced_unit, Counts, StoreAt, UnitResult, VerdictKey,
};
use crate::report::Report;
use crate::trace::{Tracer, UNIT};
use crate::util::{deck, fresh_dir, median, ms_since, Rng};
use crate::{check_repeat, context, put_end_to_end, put_layers, Options, Size};
use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_idf::{Backend, Budget, SessionHost, VerdictStore, VerifierConfig};
use daenerys_obs::{parse_json, Json};
use daenerysd::{
    read_frame, write_frame, AdminRequest, Client, MetricsSnapshot, Request, Response, Server,
    ServerConfig, TenantPolicy,
};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Client connections (at most `nproc` on the reference machine).
pub const CLIENTS: usize = 2;
/// Tenants the requests are spread over.
pub const TENANTS: usize = 4;

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Method counts of the generated corpora.
    pub corpora: &'static [usize],
    /// Set-ups per run.
    pub setups: usize,
    /// Requests in each pass of the traced run.
    pub trace_units: usize,
}

impl Sizes {
    /// The sizes for `size`.
    pub fn of(size: Size) -> Sizes {
        match size {
            Size::Full => Sizes {
                corpora: &[50, 100, 150, 200],
                setups: 3,
                trace_units: 240,
            },
            Size::Tiny => Sizes {
                corpora: &[50],
                setups: 1,
                trace_units: 16,
            },
        }
    }
}

/// `chain` and `scaling` sizes and `diverging` widths of the F1
/// projects: small programs only. The largest members of the families
/// stay in `f1-cold`.
const FAMILY_SIZES: &[usize] = &[2, 4, 8, 16];
const DIVERGING_SIZES: &[usize] = &[4, 8];

/// The project set: the case studies and the small family programs,
/// then one corpus per size, each corpus shaped by `seed`. The set's
/// make-up does not depend on the seed, so runs of different seeds
/// carry the same mix of work.
pub fn projects(seed: u64, size: Size) -> Vec<F1Program> {
    let mut out = match size {
        Size::Full => programs(FAMILY_SIZES, FAMILY_SIZES, DIVERGING_SIZES),
        Size::Tiny => programs(
            &FAMILY_SIZES[..2],
            &FAMILY_SIZES[..2],
            &DIVERGING_SIZES[..1],
        ),
    };
    for &n in Sizes::of(size).corpora {
        let corpus = Corpus::generate(CorpusSpec {
            methods: n,
            seed: seed ^ (n as u64).wrapping_mul(0x9e37_79b9),
            ..CorpusSpec::default()
        });
        out.push(F1Program {
            name: format!("corpus-{}", n),
            src: corpus.source(None),
            should_verify: true,
            methods: (0..n).map(Corpus::method_name).collect(),
        });
    }
    out
}

/// Request `k` of the seeded stream: `(project, tenant)`. Each round of
/// the deck sends every project once, so about one request in eight
/// goes to a corpus.
pub fn draw(seed: u64, k: u64, projects: usize) -> (usize, usize) {
    (
        deck(seed, 0xdae3, k, projects),
        Rng::new(seed ^ 0x7e4a, k).below(TENANTS),
    )
}

fn request(seed: u64, k: u64, projects: &[F1Program]) -> (usize, Request) {
    let (p, t) = draw(seed, k, projects.len());
    (
        p,
        Request::new(k + 1, format!("tenant-{}", t), projects[p].src.clone()),
    )
}

/// Checks a daemon response against the project's oracle.
pub fn check_response(p: &F1Program, resp: &Response) -> Result<(), String> {
    match resp {
        Response::Ok { verdicts, .. } => {
            let res = UnitResult {
                verdicts: verdicts
                    .iter()
                    .map(|(n, v)| {
                        let kind = match v.kind.as_str() {
                            "verified" => "verified",
                            "failed" => "failed",
                            "unknown" => "unknown",
                            _ => "crashed",
                        };
                        (
                            n.clone(),
                            VerdictKey {
                                kind,
                                failures: 0,
                                stats: None,
                            },
                        )
                    })
                    .collect(),
                reverified: Vec::new(),
                counts: Counts::default(),
            };
            check_verdicts(p, &res)
        }
        other => Err(format!(
            "{}: not an ok response: {}",
            p.name,
            other.encode()
        )),
    }
}

/// A daemon serving on a background thread.
struct Daemon {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<MetricsSnapshot>,
    dir: PathBuf,
}

impl Daemon {
    /// Binds a daemon at the shipped defaults over a fresh store.
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let mut config = ServerConfig::default();
        config.base.cache_dir = Some(dir.clone());
        let server = Server::bind(config).map_err(|e| format!("bind: {}", e))?;
        let addr = server.local_addr().map_err(|e| format!("addr: {}", e))?;
        let flag = server.shutdown_flag();
        Ok(Daemon {
            addr,
            flag,
            handle: std::thread::spawn(move || server.run()),
            dir,
        })
    }

    /// Drains the daemon and returns its final counters.
    fn stop(self) -> Result<MetricsSnapshot, String> {
        self.flag.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())
    }

    fn admin(&self, req: &AdminRequest) -> Result<Json, String> {
        match Client::new(self.addr).admin_once(req) {
            Ok(Response::Admin { body, .. }) => parse_json(&body).map_err(|e| e.to_string()),
            Ok(other) => Err(format!("admin: unexpected {}", other.encode())),
            Err(e) => Err(format!("admin: {}", e)),
        }
    }

    /// Sums of the daemon's store counters: hits, misses, dirty.
    fn store_counters(&self) -> Result<[u64; 3], String> {
        let json = self.admin(&AdminRequest::Metrics { id: 0 })?;
        let mut out = [0u64; 3];
        let counters = json
            .as_obj()
            .and_then(|o| o.get("counters"))
            .and_then(Json::as_arr)
            .ok_or("metrics: no counters")?;
        for c in counters {
            let Some(o) = c.as_obj() else { continue };
            let name = o.get("name").and_then(Json::as_str).unwrap_or("");
            let value = o.get("value").and_then(Json::as_num).unwrap_or(0.0) as u64;
            match name {
                "daenerysd.store_hits" => out[0] += value,
                "daenerysd.store_misses" => out[1] += value,
                "daenerysd.store_dirty_transitive" => out[2] += value,
                _ => {}
            }
        }
        Ok(out)
    }

    /// `(admitted, refused, in_flight)` totals from the health frame.
    fn health(&self) -> Result<[u64; 3], String> {
        let json = self.admin(&AdminRequest::Health { id: 0 })?;
        let total = json
            .as_obj()
            .and_then(|o| o.get("total"))
            .and_then(Json::as_obj)
            .ok_or("health: no total")?;
        let num = |k: &str| total.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
        Ok([num("admitted"), num("refused"), num("in_flight")])
    }
}

/// Binds a daemon and sends every project once, in order.
fn set_up(opts: &Options, projects: &[F1Program], tag: &str) -> Result<(Daemon, f64), String> {
    let dir = fresh_dir(&opts.work_dir, tag);
    let t = Instant::now();
    let daemon = Daemon::start(dir)?;
    let client = Client::new(daemon.addr);
    for (i, p) in projects.iter().enumerate() {
        let req = Request::new(i as u64 + 1, "tenant-0", p.src.clone());
        let resp = client
            .request_once(&req, 0)
            .map_err(|e| format!("warm-up: {}", e))?;
        check_response(p, &resp).map_err(|e| format!("warm-up: {}", e))?;
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// Runs `daemon-repeat`.
pub fn run(opts: &Options) -> Report {
    let sizes = Sizes::of(opts.size);
    let projects = projects(opts.seed, opts.size);
    let mut r = Report {
        workload: "daemon-repeat",
        context: context(
            opts,
            &format!(
                "projects={} corpora={:?} clients={} tenants={} setups={} trace_units={} server=ServerConfig::default()",
                projects.len(),
                sizes.corpora,
                CLIENTS,
                TENANTS,
                sizes.setups,
                sizes.trace_units
            ),
        ),
        ..Report::default()
    };
    let outcome = if opts.trace {
        traced(opts, sizes, &projects, &mut r)
    } else {
        untraced(opts, sizes, &projects, &mut r)
    };
    if let Err(e) = outcome {
        r.problem(e);
    }
    r
}

fn untraced(
    opts: &Options,
    sizes: Sizes,
    projects: &[F1Program],
    r: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..sizes.setups.max(1) {
        if let Some(d) = daemon.take() {
            stop_checked(d, r)?;
        }
        let (d, s) = set_up(opts, projects, &format!("daemon-{}", rep))?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up ran");
    let next = AtomicU64::new(0);
    let window = Instant::now();
    let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let client = Client::new(daemon.addr);
                    let mut lat = Vec::new();
                    let mut errors = Vec::new();
                    while window.elapsed().as_secs_f64() < opts.seconds {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let (p, req) = request(opts.seed, k, projects);
                        let t = Instant::now();
                        let resp = client.request_once(&req, 0);
                        lat.push(ms_since(t));
                        let verdict = resp
                            .map_err(|e| format!("transport: {}", e))
                            .and_then(|resp| check_response(&projects[p], &resp));
                        if let Err(e) = verdict {
                            errors.push(format!("request {}: {}", k, e));
                        }
                    }
                    (lat, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    for (l, errors) in results {
        r.attempted += l.len() as u64;
        r.failed += errors.len() as u64;
        lat.extend(l);
        for e in errors {
            r.problem(e);
        }
    }
    stop_checked(daemon, r)?;
    put_end_to_end(r, &lat, window_s, &setups);
    Ok(())
}

fn stop_checked(daemon: Daemon, r: &mut Report) -> Result<MetricsSnapshot, String> {
    let snap = daemon.stop()?;
    if snap.leaked_sessions != 0 {
        r.problem(format!("daemon leaked {} sessions", snap.leaked_sessions));
    }
    Ok(snap)
}

/// Runs `body(k)` for `k` in `0..n` on [`CLIENTS`] threads, thread
/// `k % CLIENTS` taking request `k`, one request at a time in order.
fn in_turn<T: Send>(n: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let turn = Mutex::new(0usize);
    let cv = Condvar::new();
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (turn, cv, body) = (&turn, &cv, &body);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for k in (c..n).step_by(CLIENTS) {
                        let mut g = turn.lock().expect("turn lock");
                        while *g != k {
                            g = cv.wait(g).expect("turn lock");
                        }
                        drop(g);
                        mine.push((k, body(k)));
                        *turn.lock().expect("turn lock") += 1;
                        cv.notify_all();
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    out.sort_by_key(|(k, _)| *k);
    out.into_iter().map(|(_, t)| t).collect()
}

/// A mirror of the daemon's session host: same base configuration,
/// same per-request budget, its own store, fed the same requests in
/// the same order.
struct Mirror {
    host: SessionHost,
    budget: Budget,
    dir: PathBuf,
}

impl Mirror {
    fn new(dir: PathBuf, projects: &[F1Program]) -> Mirror {
        let host = SessionHost::new(
            Backend::Destabilized,
            VerifierConfig {
                cache_dir: Some(dir.clone()),
                ..VerifierConfig::default()
            },
        );
        let m = Mirror {
            host,
            budget: TenantPolicy::default().effective_budget(None, None),
            dir,
        };
        for p in projects {
            let _ = m.product(&p.src);
        }
        m
    }

    fn config(&self) -> VerifierConfig {
        VerifierConfig {
            budget: self.budget,
            ..request_config(&VerifierConfig::default())
        }
    }

    fn product(&self, src: &str) -> Result<UnitResult, String> {
        let program = front_end(src)?;
        let out = self
            .host
            .session()
            .verify_program_with(&program, Some(self.budget), None);
        Ok(outcome_result(src, out))
    }
}

/// One product-pass request: wall nanoseconds, the oracle's verdict on
/// the response, and the mirror's result for the same request.
type ProductRequest = (u128, Result<(), String>, Result<UnitResult, String>);

/// What one traced request measured.
struct Traced {
    errors: Vec<String>,
    counts: Counts,
    request_bytes: u64,
    response_bytes: u64,
    client: Tracer,
    server: Tracer,
}

fn traced(
    opts: &Options,
    sizes: Sizes,
    projects: &[F1Program],
    r: &mut Report,
) -> Result<(), String> {
    let n = sizes.trace_units;

    // Pass 1: the product client, untraced, in turn order.
    let (daemon, _) = set_up(opts, projects, "daemon-product")?;
    let mirror = Mirror::new(fresh_dir(&opts.work_dir, "mirror-product"), projects);
    let before = daemon.store_counters()?;
    let product: Vec<ProductRequest> = in_turn(n, |k| {
        let (p, req) = request(opts.seed, k as u64, projects);
        let t = Instant::now();
        let resp = Client::new(daemon.addr).request_once(&req, 0);
        let ns = t.elapsed().as_nanos();
        let checked = resp
            .map_err(|e| format!("transport: {}", e))
            .and_then(|resp| check_response(&projects[p], &resp));
        (ns, checked, mirror.product(&req.source))
    });
    let after = daemon.store_counters()?;
    let product_store = delta(after, before);
    let product_ns: u128 = product.iter().map(|(ns, _, _)| ns).sum();
    let snap = stop_checked(daemon, r)?;
    let product_sessions = snap.sessions_opened - projects.len() as u64 - snap.admin_frames;
    drop(mirror);

    // Pass 2: the same requests through the public protocol functions,
    // each call spanned, plus a concurrent health scraper.
    let (daemon, _) = set_up(opts, projects, "daemon-traced")?;
    let mirror = Mirror::new(fresh_dir(&opts.work_dir, "mirror-traced"), projects);
    let store = mirror.host.store().expect("the mirror has a store");
    let config = mirror.config();
    let before = daemon.store_counters()?;
    let health_before = daemon.health()?;
    let origin = Instant::now();
    let done = AtomicBool::new(false);
    let scrape = |d: &Daemon| -> (u64, u64) {
        let mut max_in_flight = 0;
        let mut scrapes = 0;
        while !done.load(Ordering::SeqCst) {
            if let Ok([_, _, in_flight]) = d.health() {
                max_in_flight = max_in_flight.max(in_flight);
            }
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        (max_in_flight, scrapes)
    };
    let (passes, (max_in_flight, _scrapes)) = std::thread::scope(|s| {
        let scraper = s.spawn(|| scrape(&daemon));
        let passes = in_turn(n, |k| {
            traced_request(
                opts.seed,
                k as u64,
                projects,
                daemon.addr,
                origin,
                &config,
                store,
            )
        });
        done.store(true, Ordering::SeqCst);
        (passes, scraper.join().expect("the scraper does not panic"))
    });
    let after = daemon.store_counters()?;
    let health_after = daemon.health()?;
    let traced_store = delta(after, before);

    let mut client = Tracer::new(origin);
    let mut server = Tracer::new(origin);
    let mut traced_counts = Counts::default();
    let mut product_counts = Counts::default();
    let (mut req_bytes, mut resp_bytes) = (0u64, 0u64);
    for (k, t) in passes.into_iter().enumerate() {
        r.attempted += 1;
        if !t.errors.is_empty() {
            r.failed += 1;
            for e in t.errors {
                r.problem(format!("request {}: {}", k, e));
            }
        }
        traced_counts.add(&t.counts);
        if let Err(e) = &product[k].1 {
            r.problem(format!("request {} (product pass): {}", k, e));
        }
        match &product[k].2 {
            Ok(p) => product_counts.add(&p.counts),
            Err(e) => r.problem(format!("request {}: mirror: {}", k, e)),
        }
        req_bytes += t.request_bytes;
        resp_bytes += t.response_bytes;
        client.absorb(t.client);
        server.absorb(t.server);
    }
    check_repeat(r, "daemon-repeat mirror", &product_counts, &traced_counts);
    let mirrored = [
        traced_counts.hits,
        traced_counts.misses,
        traced_counts.dirty_transitive,
    ];
    if traced_store != product_store || traced_store != mirrored {
        r.problem(format!(
            "daemon store counts do not repeat: product {:?}, traced {:?}, mirror {:?}",
            product_store, traced_store, mirrored
        ));
    }
    // Ground truth: every project was sent once during set-up and never
    // changed, so a re-send needs no re-verification at all.
    put_layers(r, &server, &traced_counts, 0);
    // The mirror's own remainder; the request-level one replaces
    // `unattributed_ms` below.
    let mirror_rest = r.get("unattributed_ms").unwrap_or(0.0);
    r.put("server.unattributed_ms", mirror_rest, "ms", n);
    let server_units = server.by_unit();
    let verify_ms: Vec<f64> = server_units
        .values()
        .map(|u| u.wall_ns as f64 / 1e6)
        .collect();

    let units = client.by_unit();
    if let Err(e) = client.validate() {
        r.problem(format!("client span tree: {}", e));
    }
    let nu = units.len().max(1) as f64;
    let mean_span = |name: &str| {
        units
            .values()
            .map(|u| u.span_ns.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / nu
    };
    let mut unattributed = 0u64;
    let mut wait_ms = 0.0;
    for (k, u) in &units {
        if u.reconciled_ns() != u.wall_ns {
            r.problem(format!("request {}: layers do not add up to wall time", k));
        }
        unattributed += u.self_ns.get(UNIT).copied().unwrap_or(0);
        let verify = server_units.get(k).map_or(0, |s| s.wall_ns);
        wait_ms += (u.span_ns.get("server").copied().unwrap_or(0) as f64 - verify as f64) / 1e6;
    }
    let traced_ns: u64 = units.values().map(|u| u.wall_ns).sum();
    r.put(
        "protocol.encode_us",
        mean_span("protocol.encode") / 1e3,
        "us",
        units.len(),
    );
    r.put(
        "protocol.decode_us",
        mean_span("protocol.decode") / 1e3,
        "us",
        units.len(),
    );
    r.put(
        "protocol.request_bytes",
        req_bytes as f64 / nu,
        "bytes",
        units.len(),
    );
    r.put(
        "protocol.response_bytes",
        resp_bytes as f64 / nu,
        "bytes",
        units.len(),
    );
    r.put(
        "client.connect_us",
        mean_span("client.connect") / 1e3,
        "us",
        units.len(),
    );
    let admitted = health_after[0] - health_before[0];
    let refused = health_after[1] - health_before[1];
    r.put(
        "admission.refused_ratio",
        refused as f64 / admitted.max(1) as f64,
        "ratio",
        admitted as usize,
    );
    r.put("admission.max_in_flight", max_in_flight as f64, "count", 1);
    r.put(
        "server.verify_ms",
        verify_ms.iter().sum::<f64>() / nu,
        "ms",
        verify_ms.len(),
    );
    r.put("server.wait_ms", wait_ms / nu, "ms", units.len());
    r.put(
        "unattributed_ms",
        unattributed as f64 / 1e6 / nu,
        "ms",
        units.len(),
    );
    r.put(
        "trace.wall_ms",
        traced_ns as f64 / 1e6 / nu,
        "ms",
        units.len(),
    );
    r.put(
        "trace.overhead_ratio",
        traced_ns as f64 / product_ns.max(1) as f64,
        "ratio",
        units.len(),
    );
    {
        let s = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        r.put("store.dead_records", s.dead_records() as f64, "count", 1);
    }
    r.put("store.bytes", dir_bytes(&mirror.dir) as f64, "bytes", 1);
    let daemon_dir = daemon.dir.clone();
    let snap = stop_checked(daemon, r)?;
    let traced_sessions = snap.sessions_opened - projects.len() as u64 - snap.admin_frames;
    if traced_sessions != product_sessions {
        r.problem(format!(
            "sessions do not repeat: {} vs {}",
            product_sessions, traced_sessions
        ));
    }
    r.put(
        "server.sessions_per_request",
        traced_sessions as f64 / n.max(1) as f64,
        "ratio",
        n,
    );
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(VerdictStore::open(&daemon_dir).len());
            ms_since(t)
        })
        .collect();
    r.put("store.open_ms", median(&opens), "ms", opens.len());
    let mut spans = client;
    spans.absorb(server);
    let _ = spans.write_jsonl(&opts.work_dir.join("spans.jsonl"));
    Ok(())
}

fn delta(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ]
}

/// One request, sent the way [`Client::request_once`] sends it, with
/// the connect, the encode and write, the wait for the reply and the
/// decode each spanned; then the same request through the mirror's
/// traced path.
fn traced_request(
    seed: u64,
    k: u64,
    projects: &[F1Program],
    addr: SocketAddr,
    origin: Instant,
    config: &VerifierConfig,
    store: &Mutex<VerdictStore>,
) -> Traced {
    let (p, req) = request(seed, k, projects);
    let mut client = Tracer::new(origin);
    let mut errors = Vec::new();
    let mut request_bytes = 0;
    let mut response_bytes = 0;
    let root = client.open(UNIT, k);
    let sent = client
        .time("client.connect", k, || {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            Ok::<_, std::io::Error>(stream)
        })
        .and_then(|stream| {
            client.time("protocol.encode", k, || {
                let payload = req.encode();
                request_bytes = payload.len() as u64;
                write_frame(&mut &stream, payload.as_bytes())
            })?;
            Ok(stream)
        });
    match sent {
        Err(e) => errors.push(format!("transport: {}", e)),
        Ok(mut stream) => {
            let payload = client.time("server", k, || read_frame(&mut stream, |_| true));
            match payload {
                Err(e) => errors.push(format!("frame: {}", e)),
                Ok(payload) => {
                    response_bytes = payload.len() as u64;
                    let resp = client.time("protocol.decode", k, || Response::decode(&payload));
                    match resp {
                        Ok(resp) => {
                            if let Err(e) = check_response(&projects[p], &resp) {
                                errors.push(e);
                            }
                        }
                        Err(e) => errors.push(format!("decode: {}", e)),
                    }
                }
            }
        }
    }
    client.close(root);

    let mut server = Tracer::new(origin);
    let root = server.open(UNIT, k);
    let got = traced_unit(
        &mut server,
        k,
        &req.source,
        Backend::Destabilized,
        config,
        StoreAt::Warm(store),
    );
    server.close(root);
    let counts = match got {
        Ok(res) => res.counts,
        Err(e) => {
            errors.push(format!("mirror: {}", e));
            Counts::default()
        }
    };
    Traced {
        errors,
        counts,
        request_bytes,
        response_bytes,
        client,
        server,
    }
}
