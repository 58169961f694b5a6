//! Regenerates every table and figure of the evaluation (EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run -p daenerys-bench --bin tables [--t1] [--t2] [--t3] [--t4] \
//!     [--f1] [--f2] [--f3] [--threads N] [--timeout-ms N] [--fuel N] \
//!     [--trace-out PATH] [--incremental] [--cache-dir PATH] \
//!     [--expect-reverified N] [--deny-unstable] [--explain-stability]
//! cargo run -p daenerys-bench --bin tables store export <dir>
//! ```
//!
//! With no table/figure flags, every table and figure is printed. The
//! verifier rows (T1, F1) print work counts only: end-to-end timing
//! lives in the `e2e_bench` workspace and the Criterion benches.
//!
//! * `--threads N` pins the verification fan-out (cost only, never
//!   answers). The solver cache, intern-time canonicalization and
//!   clause learning always run; the answer-transparency of each layer
//!   is checked by the `daenerys-idf` unit tests.
//! * `--incremental` adds the F1 incremental section: each case is
//!   verified against the persistent verdict store under `--cache-dir`
//!   (default `target/ivc`), its restored verdicts are checked
//!   bit-identical against a from-scratch run, and the number of
//!   re-verified methods is reported. `--expect-reverified N` turns
//!   that report into a hard assertion (exit 1 on mismatch) for CI.
//! * `store export <dir>` (subcommand) prints the live entries of the
//!   verdict store under `<dir>` as JSONL on stdout, one object per
//!   line in key order. Export only: stores are never read from JSONL.
//! * `--timeout-ms N` sets a per-method wall-clock deadline and
//!   `--fuel N` a per-method solver-fuel budget (CDCL conflicts +
//!   propagations); a method that blows its budget degrades to
//!   `Unknown` (its counters drop out of the rows) instead of hanging
//!   the harness.
//! * `--trace-out PATH` streams the flight-recorder trace (spans,
//!   solver queries, budget gauges) of every verification as JSONL to
//!   `PATH`; validate it with the `trace_validate` binary.
//! * `--deny-unstable` makes every run fail methods whose contracts the
//!   static stability analyzer classifies unstable (answer-affecting,
//!   part of the incremental fingerprint); `--explain-stability`
//!   selects the analyzer's lint report for the examples corpus —
//!   classification, spans, and fix hints (a static pass, no
//!   verification runs).

use daenerys_bench::{micros, run_backend_with, BackendRun};
use daenerys_core::check::{catalog, corpus, ghost_catalog, verify_catalog};
use daenerys_core::{check_stable, stabilize_fast, Assert, CameraKind, Term, UniverseSpec};
use daenerys_heaplang::{explore, parse, Machine};
use daenerys_idf::{
    all_cases, analyze_program, chain_program, diverging_program, parse_program, positive_cases,
    scaling_program, Backend, StabilityClass, VerifierConfig,
};
use daenerys_obs::{ClockKind, JsonlSink, TraceHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const KNOWN_FLAGS: [&str; 16] = [
    "--t1",
    "--t2",
    "--t3",
    "--t4",
    "--f1",
    "--f2",
    "--f3",
    "--threads",
    "--timeout-ms",
    "--fuel",
    "--trace-out",
    "--incremental",
    "--cache-dir",
    "--expect-reverified",
    "--deny-unstable",
    "--explain-stability",
];

/// Parsed command line.
struct Opts {
    selected: Vec<String>,
    trace_out: Option<String>,
    /// Verdict-store root for the incremental section (`Some` when
    /// `--incremental` or `--cache-dir` is given). Kept out of
    /// `config` so the other rows always verify from scratch.
    cache_dir: Option<std::path::PathBuf>,
    /// Hard assertion on the incremental section's re-verified total.
    expect_reverified: Option<usize>,
    config: VerifierConfig,
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        selected: Vec::new(),
        trace_out: None,
        cache_dir: None,
        expect_reverified: None,
        config: VerifierConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--deny-unstable" => opts.config.deny_unstable = true,
            "--incremental" => {
                if opts.cache_dir.is_none() {
                    opts.cache_dir = Some(std::path::PathBuf::from("target/ivc"));
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.cache_dir = Some(std::path::PathBuf::from(path));
                    }
                    _ => {
                        eprintln!("tables: --cache-dir needs a directory path");
                        std::process::exit(2);
                    }
                }
            }
            "--expect-reverified" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => opts.expect_reverified = Some(n),
                    None => {
                        eprintln!("tables: --expect-reverified needs an integer");
                        std::process::exit(2);
                    }
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.trace_out = Some(path.clone());
                    }
                    _ => {
                        eprintln!("tables: --trace-out needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                i += 1;
                let n = args.get(i).and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => opts.config.threads = n,
                    _ => {
                        eprintln!("tables: --threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => {
                        opts.config.budget = opts.config.budget.with_deadline_ms(ms);
                    }
                    _ => {
                        eprintln!("tables: --timeout-ms needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--fuel" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(fuel) if fuel > 0 => {
                        opts.config.budget = opts.config.budget.with_solver_fuel(fuel);
                    }
                    _ => {
                        eprintln!("tables: --fuel needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            _ if KNOWN_FLAGS.contains(&a) => opts.selected.push(a.to_string()),
            _ => {
                eprintln!(
                    "tables: unknown flag {} (known: {})",
                    a,
                    KNOWN_FLAGS.join(", ")
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

/// The `store` subcommand: offline verdict-store inspection.
///
/// `tables store export <dir>` prints the live entries of the store
/// under `<dir>` as JSONL on stdout, one object per line in key order;
/// a one-line summary goes to stderr.
fn store_command(args: &[String]) -> ! {
    match args {
        [op, dir] if op == "export" => {
            let dir = std::path::Path::new(dir);
            if !dir.is_dir() {
                eprintln!("tables: store export: {} is not a directory", dir.display());
                std::process::exit(1);
            }
            let store = daenerys_idf::VerdictStore::open(dir);
            let mut out = std::io::stdout().lock();
            if let Err(e) = std::io::Write::write_all(&mut out, store.export_jsonl().as_bytes()) {
                eprintln!("tables: store export failed: {}", e);
                std::process::exit(1);
            }
            eprintln!(
                "exported {}: {} entries, {} corrupt records skipped",
                dir.display(),
                store.len(),
                store.corrupt_lines()
            );
            std::process::exit(0);
        }
        _ => {
            eprintln!("tables: usage: tables store export <dir>");
            std::process::exit(2);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("store") {
        store_command(&raw[1..]);
    }
    let mut opts = parse_args();
    if let Some(path) = &opts.trace_out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let sink = match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => Arc::new(sink),
            Err(e) => {
                eprintln!("tables: cannot open {}: {}", path, e);
                std::process::exit(1);
            }
        };
        opts.config.trace = TraceHandle::new(sink, ClockKind::Monotonic);
    }
    let all = opts.selected.is_empty();
    let want = |flag: &str| all || opts.selected.iter().any(|a| a == flag);
    if opts.expect_reverified.is_some() && (opts.cache_dir.is_none() || !want("--f1")) {
        eprintln!("tables: --expect-reverified requires --f1 and --incremental/--cache-dir");
        std::process::exit(2);
    }

    if opts.selected.iter().any(|a| a == "--explain-stability") {
        explain_stability(&opts);
    }
    if want("--t1") {
        table_t1(&opts);
    }
    if want("--t2") {
        table_t2();
    }
    if want("--t3") {
        table_t3();
    }
    if want("--t4") {
        table_t4();
    }
    if want("--f1") {
        figure_f1(&opts);
    }
    if want("--f2") {
        figure_f2();
    }
    if want("--f3") {
        figure_f3();
    }
    if let Some(path) = &opts.trace_out {
        opts.config.trace.flush();
        println!("\n    wrote {}", path);
    }
}

/// `--explain-stability`: prints the static stability analyzer's
/// verdict for every spec assertion of the examples corpus —
/// classification, provenance findings with spans, and fix hints —
/// then a summary count per class. Purely static: no verification runs.
fn explain_stability(opts: &Opts) {
    println!("\nStability lints: static classification of the examples corpus");
    println!("    (stable < framed-stable < unstable; see DESIGN.md §11)\n");
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut unstable = 0usize;
    for case in all_cases() {
        let prog = match parse_program(case.source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("tables: case {} does not parse: {}", case.name, e);
                std::process::exit(1);
            }
        };
        for v in analyze_program(&prog) {
            let class = match v.class {
                StabilityClass::Stable => "stable",
                StabilityClass::FramedStable => "framed-stable",
                StabilityClass::Unstable => "unstable",
            };
            *counts.entry(class).or_default() += 1;
            if v.class == StabilityClass::Unstable {
                unstable += 1;
            }
            // Findings only for the noisy classes: stable assertions
            // with no findings are summarized by the count line.
            if v.class != StabilityClass::Stable || !v.findings.is_empty() {
                for line in format!("[{}] {}", case.name, v.lint()).lines() {
                    println!("    {}", line);
                }
            }
        }
    }
    println!();
    for (class, n) in &counts {
        println!("    {:>14}: {}", class, n);
    }
    if opts.config.deny_unstable && unstable > 0 {
        println!(
            "    --deny-unstable: {} assertion(s) above would fail verification",
            unstable
        );
    }
}

/// T1: case studies — destabilized vs stable-baseline cost.
fn table_t1(opts: &Opts) {
    println!("\nT1. Case studies: destabilized vs. stable-baseline encodings");
    println!("    (obl = obligations, q = solver queries, wit = witnesses, reb = rebinds)\n");
    println!(
        "    {:<18} {:>5} {:>6} | {:>5} {:>6} {:>5} {:>5} | {:>7}",
        "case", "obl_D", "q_D", "obl_S", "q_S", "wit", "reb", "ratio"
    );
    println!("    {}", "-".repeat(72));
    let mut sum_d = 0usize;
    let mut sum_s = 0usize;
    for case in positive_cases() {
        let d = run_backend_with(case.source, Backend::Destabilized, opts.config.clone());
        let s = run_backend_with(case.source, Backend::StableBaseline, opts.config.clone());
        let (od, qd) = (d.total(|x| x.obligations), d.total(|x| x.solver_queries));
        let (os, qs) = (s.total(|x| x.obligations), s.total(|x| x.solver_queries));
        let wit = s.total(|x| x.witnesses);
        let reb = s.total(|x| x.rebinds);
        sum_d += od;
        sum_s += os + reb;
        println!(
            "    {:<18} {:>5} {:>6} | {:>5} {:>6} {:>5} {:>5} | {:>6.2}x",
            case.name,
            od,
            qd,
            os,
            qs,
            wit,
            reb,
            (os + reb) as f64 / od.max(1) as f64
        );
    }
    println!("    {}", "-".repeat(72));
    println!(
        "    {:<18} {:>5}        | {:>5}                      | {:>6.2}x",
        "TOTAL",
        sum_d,
        sum_s,
        sum_s as f64 / sum_d.max(1) as f64
    );
}

/// T2: kernel-rule soundness — every rule model-checked.
fn table_t2() {
    println!("\nT2. Proof-kernel rule soundness (model-checked over finite universes)\n");
    let uni = UniverseSpec::tiny().build();
    let derivations = catalog(&corpus());
    let reports = verify_catalog(&derivations, &uni, 1);
    println!(
        "    {:<28} {:>9} {:>9} {:>7}",
        "rule", "instances", "verified", "status"
    );
    println!("    {}", "-".repeat(58));
    let mut total = 0;
    let mut ok = 0;
    for r in &reports {
        total += r.instances;
        ok += r.verified;
        println!(
            "    {:<28} {:>9} {:>9} {:>7}",
            r.rule,
            r.instances,
            r.verified,
            if r.ok() { "ok" } else { "FAIL" }
        );
    }
    for kind in [CameraKind::ExclVal, CameraKind::Frac, CameraKind::AuthNat] {
        let guni = UniverseSpec::with_ghost(kind).build();
        for r in verify_catalog(&ghost_catalog(kind), &guni, 1) {
            total += r.instances;
            ok += r.verified;
            println!(
                "    {:<28} {:>9} {:>9} {:>7}   (ghost {:?})",
                r.rule,
                r.instances,
                r.verified,
                if r.ok() { "ok" } else { "FAIL" },
                kind
            );
        }
    }
    println!("    {}", "-".repeat(58));
    println!("    {:<28} {:>9} {:>9}", "TOTAL", total, ok);
}

/// T3: camera-law checks over enumerated universes.
fn table_t3() {
    use daenerys_algebra::{
        law_assoc, law_comm, law_core_id, law_core_idem, law_core_mono, law_included_op,
        law_valid_op, Agree, Auth, DFrac, Enumerable, Excl, Frac, GSet, MaxNat, Ra, SumNat,
    };
    println!("\nT3. Camera laws: exhaustive checks over enumerated carriers\n");
    println!(
        "    {:<16} {:>8} {:>10} {:>7}",
        "camera", "elements", "checks", "status"
    );
    println!("    {}", "-".repeat(46));

    fn battery<A: Ra + Enumerable>(name: &str, budget: usize) {
        let u = A::enumerate(budget);
        let mut checks = 0usize;
        let mut ok = true;
        for a in &u {
            ok &= law_core_id(a).ok() && law_core_idem(a).ok();
            checks += 2;
            for b in &u {
                ok &= law_comm(a, b).ok()
                    && law_valid_op(a, b).ok()
                    && law_core_mono(a, b).ok()
                    && law_included_op(a, b).ok();
                checks += 4;
                for c in &u {
                    ok &= law_assoc(a, b, c).ok();
                    checks += 1;
                }
            }
        }
        println!(
            "    {:<16} {:>8} {:>10} {:>7}",
            name,
            u.len(),
            checks,
            if ok { "ok" } else { "FAIL" }
        );
    }
    battery::<Frac>("Frac", 4);
    battery::<DFrac>("DFrac", 3);
    battery::<Excl<bool>>("Excl", 2);
    battery::<Agree<bool>>("Agree", 2);
    battery::<SumNat>("SumNat", 5);
    battery::<MaxNat>("MaxNat", 5);
    battery::<Option<Frac>>("Option<Frac>", 3);
    battery::<Auth<SumNat>>("Auth<SumNat>", 2);
    battery::<GSet<u64>>("GSet", 3);
}

/// T4: proof automation — kernel derivation sizes produced by the
/// chunk-entailment prover as the goal grows.
fn table_t4() {
    use daenerys_algebra::Frac;
    use daenerys_core::{auto_entails, Assert, GhostName, GhostVal};
    println!("\nT4. Proof automation: kernel steps per automated entailment\n");
    println!(
        "    {:>8} {:>14} {:>12}",
        "chunks", "kernel steps", "time µs"
    );
    println!("    {}", "-".repeat(40));
    for n in [2usize, 4, 8, 12] {
        let chunks: Vec<Assert> = (0..n as u64)
            .map(|i| {
                Assert::Own(
                    GhostName(i),
                    GhostVal::Frac(Frac::new(daenerys_algebra::Q::HALF)),
                )
            })
            .collect();
        let lhs = chunks
            .iter()
            .cloned()
            .reduce(Assert::sep)
            .expect("nonempty");
        let rhs = chunks
            .iter()
            .rev()
            .cloned()
            .reduce(Assert::sep)
            .expect("nonempty");
        let t0 = Instant::now();
        let d = auto_entails(&lhs, &rhs).expect("automation succeeds");
        let dt = t0.elapsed();
        println!("    {:>8} {:>14} {:>12}", n, d.steps(), micros(dt));
    }
}

/// Sizes of the F1 chain sweep.
const CHAIN_SIZES: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// F1: verifier scaling — work vs. program size, plus the chain sweep
/// (how much of the repeated branch work the solver cache absorbs) and
/// the diverging sweep (CDCL search counters). Timing for the same
/// families is the `verifier_scaling` Criterion bench.
fn figure_f1(opts: &Opts) {
    println!("\nF1. Verifier scaling (n objects updated; spec reads every field)\n");
    println!(
        "    {:>4} | {:>9} | {:>9} {:>7} | {:>7}",
        "n", "obl_D", "obl_S+reb", "wit_S", "ratio"
    );
    println!("    {}", "-".repeat(50));
    for n in [1usize, 2, 4, 8, 16, 24] {
        let src = scaling_program(n);
        let d = run_backend_with(&src, Backend::Destabilized, opts.config.clone());
        let s = run_backend_with(&src, Backend::StableBaseline, opts.config.clone());
        let od = d.total(|x| x.obligations);
        let os = s.total(|x| x.obligations) + s.total(|x| x.rebinds);
        println!(
            "    {:>4} | {:>9} | {:>9} {:>7} | {:>6.2}x",
            n,
            od,
            os,
            s.total(|x| x.witnesses),
            os as f64 / od.max(1) as f64
        );
    }

    println!("\nF1b. Chain sweep: memoized pipeline (destabilized)\n");
    println!("    {:>4} | {:>6} {:>6} {:>6}", "n", "q", "hits", "miss");
    println!("    {}", "-".repeat(31));
    for n in CHAIN_SIZES {
        let src = chain_program(n);
        let dm = run_backend_with(&src, Backend::Destabilized, opts.config.clone());
        // The stable baseline must verify the chain too (the harness
        // panics otherwise); only the destabilized counts are printed.
        run_backend_with(&src, Backend::StableBaseline, opts.config.clone());
        println!(
            "    {:>4} | {:>6} {:>6} {:>6}",
            n,
            dm.total(|x| x.solver_queries),
            dm.total(|x| x.cache_hits),
            dm.total(|x| x.cache_misses),
        );
    }

    // F1c: the exponential case — the CDCL search counters, comparable
    // release over release.
    println!("\nF1c. Diverging sweep: CDCL search (destabilized)\n");
    println!(
        "    {:>4} | {:>9} {:>6} {:>5} {:>6} {:>7}",
        "k", "decisions", "confl", "rst", "tprops", "learned"
    );
    println!("    {}", "-".repeat(45));
    for k in DIVERGING_SIZES {
        let d = run_backend_with(
            &diverging_program(k),
            Backend::Destabilized,
            opts.config.clone(),
        );
        println!(
            "    {:>4} | {:>9} {:>6} {:>5} {:>6} {:>7}",
            k,
            d.total(|x| x.solver_branches),
            d.total(|x| x.solver_conflicts),
            d.total(|x| x.solver_restarts),
            d.total(|x| x.theory_props),
            d.total(|x| x.learned_clauses),
        );
    }

    incremental_section(opts);
}

/// Sizes of the F1 diverging sweep (`2^k` raw DPLL branches each).
const DIVERGING_SIZES: [usize; 4] = [2, 4, 6, 8];

/// F1d (only with `--incremental`/`--cache-dir`): verifies each case
/// against a per-case persistent verdict store, checks the outcome
/// bit-identical to a from-scratch run, and reports how many methods
/// the store could not absorb. Exits nonzero when the total disagrees
/// with `--expect-reverified`.
fn incremental_section(opts: &Opts) {
    let Some(dir) = &opts.cache_dir else {
        return;
    };
    println!(
        "\nF1d. Incremental verification (verdict store under {})\n",
        dir.display()
    );
    println!("    {:<18} {:>7} {:>10}", "case", "methods", "reverified");
    println!("    {}", "-".repeat(38));
    let mut corpus: Vec<(String, String)> = positive_cases()
        .iter()
        .map(|c| (c.name.to_string(), c.source.to_string()))
        .collect();
    corpus.push(("chain_32".to_string(), chain_program(32)));
    corpus.push(("diverging_6".to_string(), diverging_program(6)));
    let mut total = 0usize;
    for (name, src) in &corpus {
        let config = VerifierConfig {
            cache_dir: Some(dir.join(name)),
            ..opts.config.clone()
        };
        let inc = run_backend_with(src, Backend::Destabilized, config);
        let direct = run_backend_with(src, Backend::Destabilized, opts.config.clone());
        let normalize = |run: &BackendRun| -> BTreeMap<String, _> {
            run.verdicts
                .iter()
                .map(|(m, v)| (m.clone(), v.normalized()))
                .collect()
        };
        assert_eq!(
            normalize(&inc),
            normalize(&direct),
            "incremental verdicts for {} are not bit-identical to a fresh run",
            name
        );
        let reverified = inc.reverified.expect("incremental run reports a count");
        total += reverified;
        println!(
            "    {:<18} {:>7} {:>10}",
            name,
            inc.verdicts.len(),
            reverified
        );
    }
    println!("    {}", "-".repeat(38));
    println!("    total methods re-verified: {}", total);
    if let Some(expect) = opts.expect_reverified {
        if total != expect {
            eprintln!(
                "tables: expected {} re-verified methods, got {}",
                expect, total
            );
            std::process::exit(1);
        }
        println!("    matches --expect-reverified {}", expect);
    }
}

/// F2: stabilization cost — semantic ⌊·⌋ vs. the syntactic stabilizer.
fn figure_f2() {
    println!("\nF2. Stabilization cost: semantic ⌊P⌋ vs. syntactic stabilizer\n");
    println!(
        "    {:>6} {:>10} | {:>12} {:>12}",
        "locs", "resources", "semantic µs", "syntactic µs"
    );
    println!("    {}", "-".repeat(50));
    for locs in [1usize, 2] {
        let spec = if locs == 1 {
            UniverseSpec::tiny()
        } else {
            UniverseSpec::two_locs()
        };
        let uni = spec.build();
        let read = Assert::read_eq(Term::loc(daenerys_heaplang::Loc(0)), Term::int(1));
        let stab = Assert::stabilize(read.clone());

        // Semantic: check stability of ⌊read⌋ (frame quantification).
        let t0 = Instant::now();
        let iters = 5;
        for _ in 0..iters {
            let _ = check_stable(&stab, &uni, 1);
        }
        let sem = t0.elapsed() / iters;

        // Syntactic: one-pass transformation plus its stability check
        // by the *syntactic* judgment.
        let t0 = Instant::now();
        for _ in 0..1000 {
            let s = stabilize_fast(&read);
            let _ = daenerys_core::syntactically_stable(&s);
        }
        let syn = t0.elapsed() / 1000;

        println!(
            "    {:>6} {:>10} | {:>12} {:>12}",
            locs,
            uni.resources.len(),
            micros(sem),
            micros(syn)
        );
    }
}

/// F3: adequacy throughput — exhaustive interleaving exploration.
fn figure_f3() {
    println!("\nF3. Adequacy testing: exhaustive schedule exploration\n");
    println!(
        "    {:>8} | {:>8} {:>10} {:>10} {:>11}",
        "threads", "states", "terminals", "time µs", "states/ms"
    );
    println!("    {}", "-".repeat(56));
    for threads in [1usize, 2, 3] {
        let mut src = String::from("let c = ref 0 in ");
        for _ in 0..threads.saturating_sub(1) {
            src.push_str("fork (faa(c, 1)); ");
        }
        src.push_str("faa(c, 1); !c");
        let prog = parse(&src).expect("parses");
        let t0 = Instant::now();
        let result = explore(Machine::new(prog), 1024);
        let dt = t0.elapsed();
        println!(
            "    {:>8} | {:>8} {:>10} {:>10} {:>11.0}",
            threads,
            result.states_visited,
            result.terminals.len(),
            micros(dt),
            result.states_visited as f64 / dt.as_secs_f64() / 1000.0
        );
    }
}
