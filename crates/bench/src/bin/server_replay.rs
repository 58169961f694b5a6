//! Chaos replay: sends the F1 corpus to a running `daenerysd` daemon
//! at high concurrency, with and without the full wire-fault matrix,
//! and gates the result through its exit code.
//!
//!     server_replay --addr HOST:PORT [--requests N] [--concurrency N]
//!                   [--chaos-seed SEED]
//!
//! Two passes over the same request corpus:
//!
//! 1. **fault-free** — a clean wire, the reference verdicts;
//! 2. **chaos** — [`WireFaultPlan::full`] on the client send path
//!    (torn frames, garbage headers, mid-request disconnects,
//!    slow-loris), with retry + exponential backoff + deterministic
//!    jitter.
//!
//! Each pass also runs a **mid-run scraper**: a side thread polling the
//! `health` admin frame while the replay lanes hammer the daemon. Every
//! scrape must satisfy the admission conservation invariant
//! `admitted == completed + refused + in_flight`. After the lanes drain,
//! one final `metrics` + `health` scrape must answer.
//!
//! The run prints one summary line and exits 1 if any leg fails: a
//! request that did not complete in either pass, a completed chaos
//! verdict that is not bit-identical to the fault-free pass, a pass
//! with no successful scrape, a scrape that violated conservation, or a
//! final scrape that did not answer. Usage errors exit 2. Daemon-side
//! invariants (leaked sessions, contained panics, store integrity) are
//! checked by the caller from the daemon's `--metrics-out` snapshot, as
//! `scripts/server_smoke.sh` does.

use daenerys_idf::{chain_program, scaling_program};
use daenerys_obs::{parse_json, Json};
use daenerysd::chaos::WireFaultPlan;
use daenerysd::client::{Client, RetryPolicy};
use daenerysd::protocol::{AdminRequest, Request, Response};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

struct Opts {
    addr: SocketAddr,
    requests: u64,
    concurrency: usize,
    chaos_seed: u64,
}

fn parse_opts() -> Result<Opts, String> {
    let mut addr = None;
    let mut requests = 96;
    // The default admission policy allows 4 in-flight per tenant over
    // 4 tenants; 48 lanes is 3x that aggregate width.
    let mut concurrency = 48;
    let mut chaos_seed = 42;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{} needs a value", name));
        match flag.as_str() {
            "--addr" => {
                addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("--addr: {}", e))?,
                );
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests: not a number".to_string())?;
            }
            "--concurrency" => {
                concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency: not a number".to_string())?;
            }
            "--chaos-seed" => {
                chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|_| "--chaos-seed: not a number".to_string())?;
            }
            other => return Err(format!("unknown flag {:?}", other)),
        }
    }
    Ok(Opts {
        addr: addr.ok_or("--addr HOST:PORT is required")?,
        requests: u64::max(requests, 1),
        concurrency: usize::max(concurrency, 1),
        chaos_seed,
    })
}

/// The F1 corpus, cycled by request id: the scaling family (field
/// reads vs. object count) and the chain sweep (memoization depth).
fn source_for(id: u64) -> String {
    match id % 6 {
        0 => scaling_program(8),
        1 => scaling_program(2),
        2 => chain_program(8),
        3 => chain_program(16),
        4 => scaling_program(4),
        _ => chain_program(4),
    }
}

/// The comparable core of a response for the bit-identical gate.
fn comparable(resp: &Response) -> String {
    match resp {
        Response::Ok { verdicts, .. } => {
            let kinds: Vec<String> = verdicts
                .iter()
                .map(|(name, v)| format!("{}={}:{}", name, v.kind, v.detail))
                .collect();
            format!("ok[{}]", kinds.join(","))
        }
        Response::Refused { detail, .. } => format!("refused[{}]", detail),
        Response::Err { code, message, .. } => format!("err[{}:{}]", code.name(), message),
        Response::Admin { kind, .. } => format!("admin[{}]", kind),
    }
}

/// What the mid-run scraper and the final scrape observed of one
/// pass's server-side telemetry.
#[derive(Default)]
struct ServerObs {
    /// Successful `health` scrapes.
    scrapes: u64,
    /// Scrapes that failed at the transport/decode layer (tolerated —
    /// the daemon may briefly saturate its accept backlog).
    scrape_errors: u64,
    /// Scrapes whose ledger did **not** conserve (gate-fatal).
    conserved_failures: u64,
    /// Whether the final `metrics` and `health` scrapes both answered.
    final_answered: bool,
}

fn admin_body(client: &Client, req: &AdminRequest) -> Option<String> {
    match client.admin_once(req) {
        Ok(Response::Admin { body, .. }) => Some(body),
        _ => None,
    }
}

/// One health observation folded into `obs`.
fn observe_health(body: &str, obs: &mut ServerObs) {
    match parse_json(body).ok().as_ref().and_then(Json::as_obj) {
        Some(health) => {
            obs.scrapes += 1;
            if health.get("conserved") != Some(&Json::Bool(true)) {
                obs.conserved_failures += 1;
            }
        }
        None => obs.scrape_errors += 1,
    }
}

#[derive(Default)]
struct PassResult {
    /// id → comparable verdict string, for completed requests only.
    completed: BTreeMap<u64, String>,
    /// id → failure rendering, for exhausted requests.
    failed: BTreeMap<u64, String>,
    retries_total: u64,
}

fn run_pass(opts: &Opts, faults: WireFaultPlan) -> (PassResult, ServerObs) {
    let retry = RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 10,
        max_backoff_ms: 500,
        seed: opts.chaos_seed ^ 0x5eed,
    };
    let client = Client::new(opts.addr)
        .with_retry(retry)
        .with_faults(faults)
        .with_read_timeout(Duration::from_secs(60));
    // The scraper's client is chaos-free by construction (`admin_once`
    // never consults the fault plan): the observer must not perturb
    // what it observes.
    let scrape_client = Client::new(opts.addr).with_read_timeout(Duration::from_secs(10));
    let next = AtomicU64::new(1);
    let lanes_done = AtomicBool::new(false);
    let shared: Mutex<PassResult> = Mutex::new(PassResult::default());
    let mut obs = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut obs = ServerObs::default();
            while !lanes_done.load(Ordering::SeqCst) {
                match admin_body(&scrape_client, &AdminRequest::Health { id: 0 }) {
                    Some(body) => observe_health(&body, &mut obs),
                    None => obs.scrape_errors += 1,
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            obs
        });
        let lanes: Vec<_> = (0..opts.concurrency)
            .map(|_| {
                scope.spawn(|| loop {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    if id > opts.requests {
                        return;
                    }
                    let mut req = Request::new(id, format!("tenant-{}", id % 4), source_for(id));
                    req.deadline_ms = Some(10_000);
                    let outcome = client.request_with_retry(&req);
                    let mut result = shared.lock().unwrap();
                    match outcome {
                        Ok((resp, attempts)) => {
                            result.retries_total += u64::from(attempts - 1);
                            result.completed.insert(id, comparable(&resp));
                        }
                        Err(e) => {
                            result.failed.insert(id, e.to_string());
                        }
                    }
                })
            })
            .collect();
        for lane in lanes {
            let _ = lane.join();
        }
        lanes_done.store(true, Ordering::SeqCst);
        scraper.join().unwrap_or_default()
    });
    // The final observation: with the lanes drained, the plane must
    // still answer and the settled ledger must conserve.
    let metrics = admin_body(&scrape_client, &AdminRequest::Metrics { id: 0 });
    let health = admin_body(&scrape_client, &AdminRequest::Health { id: 0 });
    if let Some(body) = &health {
        observe_health(body, &mut obs);
    }
    obs.final_answered = metrics.is_some() && health.is_some();
    (shared.into_inner().unwrap(), obs)
}

/// The gate's conservation leg: at least one successful mid-run
/// observation, zero violating observations, and a final scrape that
/// answers.
fn check_obs(label: &str, obs: &ServerObs, gate_failures: &mut Vec<String>) {
    if obs.scrapes == 0 {
        gate_failures.push(format!(
            "{}: telemetry plane never answered a health scrape ({} error(s))",
            label, obs.scrape_errors
        ));
        return;
    }
    if obs.conserved_failures > 0 {
        gate_failures.push(format!(
            "{}: {} of {} health scrape(s) violated admitted == completed + refused + in_flight",
            label, obs.conserved_failures, obs.scrapes
        ));
    }
    if !obs.final_answered {
        gate_failures.push(format!("{}: final telemetry scrape failed", label));
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("server_replay: {}", msg);
            return ExitCode::from(2);
        }
    };
    let chaos_plan = WireFaultPlan::full(opts.chaos_seed);
    let mut gate_failures: Vec<String> = Vec::new();

    let (clean, clean_obs) = run_pass(&opts, WireFaultPlan::none());
    let (chaos, chaos_obs) = run_pass(&opts, chaos_plan);
    check_obs("fault_free", &clean_obs, &mut gate_failures);
    check_obs("chaos", &chaos_obs, &mut gate_failures);

    // Gate: both passes complete the whole corpus (retry absorbs every
    // injected fault), and completed chaos verdicts are bit-identical.
    for (label, pass) in [("fault-free", &clean), ("chaos", &chaos)] {
        if !pass.failed.is_empty() {
            gate_failures.push(format!(
                "{} pass failed {} request(s): {:?}",
                label,
                pass.failed.len(),
                pass.failed.iter().next()
            ));
        }
    }
    let diverged: Vec<(&u64, &String)> = chaos
        .completed
        .iter()
        .filter(|(id, verdict)| clean.completed.get(id).is_some_and(|r| r != *verdict))
        .collect();
    if let Some((id, verdict)) = diverged.first() {
        gate_failures.push(format!(
            "{} request(s) diverged under chaos; first: request {}: {} vs {}",
            diverged.len(),
            id,
            verdict,
            clean.completed[id]
        ));
    }

    let affected = (1..=opts.requests)
        .filter(|id| (0..8u64).any(|attempt| !chaos_plan.fault_for(*id, attempt).is_none()))
        .count();
    if gate_failures.is_empty() {
        println!(
            "server_replay: gate PASSED ({} requests, {} affected by chaos, {} retries absorbed, {} health scrapes conserved)",
            opts.requests,
            affected,
            chaos.retries_total,
            clean_obs.scrapes + chaos_obs.scrapes
        );
        ExitCode::SUCCESS
    } else {
        for failure in &gate_failures {
            eprintln!("server_replay: gate FAILED: {}", failure);
        }
        ExitCode::FAILURE
    }
}
