//! Solver-search regression gate over the diverging sweep.
//!
//! Replays `diverging_program(k)` for k ≤ 6 on the destabilized
//! backend and enforces two invariants the CDCL work must never lose:
//!
//! 1. **Learning pays for itself**: with clause learning on, the
//!    solver must never *search more* — decisions with learning on
//!    must not exceed decisions with learning off at any k (the
//!    counters are deterministic, so this gate cannot flake) — and at
//!    the largest k, where search dominates the fixed pipeline cost,
//!    wall clock (best of `--repeat` runs, noise-resistant) must not
//!    exceed the no-learn run either. Small k are excluded from the
//!    wall-clock gate on purpose: their search difference is
//!    microseconds against a ~2ms parse/translate floor, so a timing
//!    comparison there measures the scheduler, not the solver.
//! 2. **Search cost never creeps**: the deterministic `conflicts`
//!    counter must stay within 10% of the checked-in baseline in
//!    `BASELINE_solver.json` at the repo root.
//!
//! The counter is bit-deterministic (fixed VSIDS decay, smallest-
//! index tie-break, Luby restarts), so the 10% headroom is purely for
//! intentional heuristic tuning; run with `--write-baseline` after
//! such a change to re-pin the file, and commit it.
//!
//! Usage:
//!     solver_regression [--repeat N] [--baseline PATH] [--write-baseline]
//!
//! Exits 0 when every gate holds, 1 on a regression, 2 on usage error.

use daenerys_bench::run_backend_with;
use daenerys_idf::{diverging_program, Backend, VerifierConfig};
use daenerys_obs::parse_json;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Sweep sizes: kept ≤ 6 so the gate stays cheap enough for every CI
/// run while still covering the exponential no-learn blow-up.
const KS: [usize; 3] = [2, 4, 6];

/// Allowed headroom over the baseline counters.
const HEADROOM: f64 = 1.10;

struct Row {
    k: usize,
    learn_best: Duration,
    none_best: Duration,
    learn_decisions: usize,
    none_decisions: usize,
    conflicts: usize,
}

fn main() {
    let mut repeat = 5usize;
    let mut baseline_path = default_baseline_path();
    let mut write_baseline = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repeat" => {
                i += 1;
                repeat = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => usage("--repeat needs a positive integer"),
                };
            }
            "--baseline" => {
                i += 1;
                baseline_path = match args.get(i) {
                    Some(p) => PathBuf::from(p),
                    None => usage("--baseline needs a path"),
                };
            }
            "--write-baseline" => write_baseline = true,
            other => usage(&format!("unknown flag {}", other)),
        }
        i += 1;
    }

    let rows: Vec<Row> = KS.iter().map(|&k| measure(k, repeat)).collect();
    println!("solver regression sweep (best of {} runs)\n", repeat);
    println!("   k |  µs_lrn µs_none | dec_lrn dec_none |  confl");
    println!("  {}", "-".repeat(50));
    for r in &rows {
        println!(
            "  {:>2} | {:>7.1} {:>7.1} | {:>7} {:>8} | {:>6}",
            r.k,
            r.learn_best.as_secs_f64() * 1e6,
            r.none_best.as_secs_f64() * 1e6,
            r.learn_decisions,
            r.none_decisions,
            r.conflicts,
        );
    }

    if write_baseline {
        let body = render_baseline(&rows);
        std::fs::write(&baseline_path, body).expect("write baseline");
        println!("\nbaseline written to {}", baseline_path.display());
        return;
    }

    let mut failures = Vec::new();
    for r in &rows {
        if r.learn_decisions > r.none_decisions {
            failures.push(format!(
                "k={}: learning searches more than no-learn ({} > {} decisions)",
                r.k, r.learn_decisions, r.none_decisions,
            ));
        }
    }
    // Wall clock only where search dominates the fixed pipeline cost.
    if let Some(r) = rows.last() {
        if r.learn_best > r.none_best {
            failures.push(format!(
                "k={}: learning is slower than no-learn ({:.1}µs > {:.1}µs)",
                r.k,
                r.learn_best.as_secs_f64() * 1e6,
                r.none_best.as_secs_f64() * 1e6,
            ));
        }
    }
    match read_baseline(&baseline_path) {
        Some(baseline) => {
            for r in &rows {
                let Some((_, conflicts)) = baseline.iter().copied().find(|b| b.0 == r.k) else {
                    failures.push(format!("k={}: missing from the baseline file", r.k));
                    continue;
                };
                check_counter(&mut failures, r.k, "conflicts", r.conflicts, conflicts);
            }
        }
        None => failures.push(format!(
            "cannot read baseline {} (regenerate with --write-baseline)",
            baseline_path.display()
        )),
    }

    if failures.is_empty() {
        println!("\nall solver-regression gates hold");
    } else {
        eprintln!();
        for f in &failures {
            eprintln!("REGRESSION: {}", f);
        }
        exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("solver_regression: {}", msg);
    eprintln!("usage: solver_regression [--repeat N] [--baseline PATH] [--write-baseline]");
    exit(2);
}

/// The committed baseline lives next to `BENCH_verifier.json` at the
/// repo root, two levels above this crate.
fn default_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BASELINE_solver.json")
}

/// One sweep size: best-of-N wall clock for learn vs. no-learn, plus
/// the deterministic search counters (memo caches off so the counters
/// measure raw search).
fn measure(k: usize, repeat: usize) -> Row {
    let src = diverging_program(k);
    let learn_cfg = VerifierConfig {
        cache: false,
        ..VerifierConfig::default()
    };
    let none_cfg = VerifierConfig {
        learn: false,
        ..learn_cfg.clone()
    };
    let learn_best = best_of(&src, &learn_cfg, repeat);
    let none_best = best_of(&src, &none_cfg, repeat);
    let counted = run_backend_with(&src, Backend::Destabilized, learn_cfg);
    let no_learn = run_backend_with(&src, Backend::Destabilized, none_cfg);
    Row {
        k,
        learn_best,
        none_best,
        learn_decisions: counted.total(|s| s.solver_branches),
        none_decisions: no_learn.total(|s| s.solver_branches),
        conflicts: counted.total(|s| s.solver_conflicts),
    }
}

/// Minimum wall clock over `repeat` runs after one untimed warmup —
/// the minimum is the standard noise-resistant statistic for a
/// deterministic workload.
fn best_of(src: &str, cfg: &VerifierConfig, repeat: usize) -> Duration {
    let _ = run_backend_with(src, Backend::Destabilized, cfg.clone());
    (0..repeat)
        .map(|_| run_backend_with(src, Backend::Destabilized, cfg.clone()).time)
        .min()
        .expect("repeat > 0")
}

fn check_counter(failures: &mut Vec<String>, k: usize, name: &str, got: usize, base: usize) {
    let limit = (base as f64 * HEADROOM).floor() as usize;
    if got > limit {
        failures.push(format!(
            "k={}: {} regressed {} -> {} (>10% over baseline)",
            k, name, base, got
        ));
    }
}

fn render_baseline(rows: &[Row]) -> String {
    let cases: Vec<String> = rows
        .iter()
        .map(|r| format!("{{\"k\": {}, \"conflicts\": {}}}", r.k, r.conflicts))
        .collect();
    format!("{{\"cases\": [{}]}}\n", cases.join(", "))
}

/// Parses the baseline into `(k, conflicts)` pairs.
fn read_baseline(path: &std::path::Path) -> Option<Vec<(usize, usize)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = parse_json(text.trim()).ok()?;
    let cases = json.as_obj()?.get("cases")?.as_arr()?;
    let mut out = Vec::with_capacity(cases.len());
    for case in cases {
        let obj = case.as_obj()?;
        let num = |key: &str| -> Option<usize> { Some(obj.get(key)?.as_num()? as usize) };
        out.push((num("k")?, num("conflicts")?));
    }
    Some(out)
}
