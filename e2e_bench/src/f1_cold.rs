//! `f1-cold`: a seeded stream of the paper's case studies, each
//! verified cold on the default (destabilized) backend, as a first
//! `daenerys verify --cache-dir` on a fresh checkout would.
//!
//! A unit is one program: recovery parse → wf → a fresh
//! [`SessionHost`] over an empty store directory →
//! [`daenerys_idf::Session::verify_program`]. The oracle is
//! [`Case::should_verify`] for the case studies; every program of the
//! `chain`, `scaling` and `diverging` families must verify. A fresh
//! store re-verifies every method with a body.

use crate::edit_replay::dir_bytes;
use crate::pipeline::{
    front_end, outcome_result, request_config, traced_unit, Counts, StoreAt, UnitResult,
};
use crate::report::Report;
use crate::trace::{Tracer, UNIT};
use crate::util::{deck, fresh_dir, ms_since};
use crate::{check_repeat, context, put_end_to_end, put_layers, Options, Size};
use daenerys_idf::{
    all_cases, chain_program, diverging_program, scaling_program, Backend, SessionHost,
    VerifierConfig,
};
use std::path::Path;
use std::time::Instant;

/// One program of the F1 pool.
#[derive(Clone, Debug)]
pub struct F1Program {
    /// Case name, or family name and size.
    pub name: String,
    /// IDF source.
    pub src: String,
    /// The oracle: every method verifies (`true`), or at least one
    /// definitely fails (`false`).
    pub should_verify: bool,
    /// Methods with a body, in program order: what a fresh store
    /// re-verifies.
    pub methods: Vec<String>,
}

/// `chain` sizes, `scaling` sizes and `diverging` widths of the pool:
/// with the 20 case studies, 33 programs. `scaling` grows
/// super-linearly (about 6 ms at 16, 34 ms at 32, 270 ms at 64 on the
/// reference machine), so it stops at 16 and no single program
/// dominates the run.
const CHAIN_SIZES: &[usize] = &[2, 4, 8, 16, 32, 64];
const SCALING_SIZES: &[usize] = &[2, 4, 8, 16];
const DIVERGING_SIZES: &[usize] = &[4, 8, 10];

/// The `f1-cold` pool for `size`.
pub fn pool(size: Size) -> Vec<F1Program> {
    match size {
        Size::Full => programs(CHAIN_SIZES, SCALING_SIZES, DIVERGING_SIZES),
        Size::Tiny => programs(
            &CHAIN_SIZES[..2],
            &SCALING_SIZES[..2],
            &DIVERGING_SIZES[..2],
        ),
    }
}

/// Every case study, plus the `chain`, `scaling` and `diverging`
/// programs at the given sizes.
pub fn programs(chains: &[usize], scalings: &[usize], diverging: &[usize]) -> Vec<F1Program> {
    let mut out: Vec<F1Program> = all_cases()
        .into_iter()
        .map(|c| program(c.name.to_string(), c.source.to_string(), c.should_verify))
        .collect();
    for &n in chains {
        out.push(program(format!("chain-{}", n), chain_program(n), true));
    }
    for &n in scalings {
        out.push(program(format!("scaling-{}", n), scaling_program(n), true));
    }
    for &k in diverging {
        out.push(program(
            format!("diverging-{}", k),
            diverging_program(k),
            true,
        ));
    }
    out
}

fn program(name: String, src: String, should_verify: bool) -> F1Program {
    // The method list is read off the parsed program once, here, so
    // the oracle never consults the verifier.
    let methods = front_end(&src)
        .map(|p| {
            p.methods
                .iter()
                .filter(|m| m.body.is_some())
                .map(|m| m.name.clone())
                .collect()
        })
        .unwrap_or_default();
    F1Program {
        name,
        src,
        should_verify,
        methods,
    }
}

/// Checks a verdict set against the program's oracle.
pub fn check_verdicts(p: &F1Program, res: &UnitResult) -> Result<(), String> {
    let names: Vec<&String> = res.verdicts.keys().collect();
    let mut want: Vec<&String> = p.methods.iter().collect();
    want.sort();
    if names != want {
        return Err(format!("{}: verdicts for the wrong methods", p.name));
    }
    let ok = if p.should_verify {
        res.all_verified()
    } else {
        res.any_failed()
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: wrong verdict (should_verify = {})",
            p.name, p.should_verify
        ))
    }
}

fn check(p: &F1Program, got: &Result<UnitResult, String>) -> Result<(), String> {
    let res = got.as_ref().map_err(Clone::clone)?;
    check_verdicts(p, res)?;
    if res.reverified != p.methods {
        return Err(format!(
            "{}: a fresh store must re-verify every method",
            p.name
        ));
    }
    Ok(())
}

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Set-ups per run: one before the window, the rest spread through
    /// it.
    pub setups: usize,
    /// Units in each pass of the traced run.
    pub trace_units: usize,
}

impl Sizes {
    /// The sizes for `size`.
    pub fn of(size: Size) -> Sizes {
        match size {
            Size::Full => Sizes {
                setups: 21,
                trace_units: 400,
            },
            Size::Tiny => Sizes {
                setups: 2,
                trace_units: 20,
            },
        }
    }
}

/// The product path for one program over a fresh store in `dir`.
fn product_unit(src: &str, dir: &Path) -> Result<UnitResult, String> {
    let program = front_end(src)?;
    let config = VerifierConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let host = SessionHost::new(Backend::Destabilized, config);
    let out = host.session().verify_program(&program);
    Ok(outcome_result(src, out))
}

/// Set-up: build the pool and verify each program once, untimed by the
/// units, so lazy initialization is done before the window opens.
fn set_up(size: Size, dir: &Path) -> (Vec<F1Program>, f64) {
    let t = Instant::now();
    let pool = pool(size);
    for (i, p) in pool.iter().enumerate() {
        let d = dir.join(format!("warm-{}", i));
        let _ = product_unit(&p.src, &d);
        let _ = std::fs::remove_dir_all(&d);
    }
    (pool, t.elapsed().as_secs_f64())
}

/// Runs `f1-cold`.
pub fn run(opts: &Options) -> Report {
    let sizes = Sizes::of(opts.size);
    let mut r = Report {
        workload: "f1-cold",
        context: context(
            opts,
            &format!(
                "pool={} chain={:?} scaling={:?} diverging={:?} setups={} trace_units={}",
                pool(opts.size).len(),
                CHAIN_SIZES,
                SCALING_SIZES,
                DIVERGING_SIZES,
                sizes.setups,
                sizes.trace_units
            ),
        ),
        ..Report::default()
    };
    let dir = fresh_dir(&opts.work_dir, "f1");
    let (pool, first_setup) = set_up(opts.size, &dir);
    for p in &pool {
        if p.methods.is_empty() {
            r.problem(format!("{}: the program does not parse", p.name));
        }
    }
    let draw = |k: u64| deck(opts.seed, 0xf1, k, pool.len());
    if opts.trace {
        let plan: Vec<usize> = (0..sizes.trace_units as u64).map(draw).collect();
        traced(opts, &pool, &plan, &dir, &mut r);
    } else {
        // One set-up takes about 40 ms, so a burst of them samples a
        // single moment of a noisy machine. The rest are spread evenly
        // through the window, between units, like the units themselves.
        let mut setups = vec![first_setup];
        let spacing = opts.seconds / sizes.setups.max(1) as f64;
        let mut lat = Vec::new();
        let window = Instant::now();
        let mut k = 0u64;
        while window.elapsed().as_secs_f64() < opts.seconds {
            if setups.len() < sizes.setups
                && window.elapsed().as_secs_f64() >= spacing * setups.len() as f64
            {
                setups.push(set_up(opts.size, &dir).1);
                continue;
            }
            let p = &pool[draw(k)];
            let d = dir.join(format!("u{}", k));
            k += 1;
            let t = Instant::now();
            let got = product_unit(&p.src, &d);
            lat.push(ms_since(t));
            let _ = std::fs::remove_dir_all(&d);
            r.attempted += 1;
            if let Err(e) = check(p, &got) {
                r.failed += 1;
                r.problem(format!("unit {}: {}", k, e));
            }
        }
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        put_end_to_end(&mut r, &lat, busy_s, &setups);
    }
    r
}

fn traced(opts: &Options, pool: &[F1Program], plan: &[usize], dir: &Path, r: &mut Report) {
    let mut product = Vec::new();
    let mut product_ns = 0u128;
    for (k, &i) in plan.iter().enumerate() {
        let d = dir.join(format!("p{}", k));
        let t = Instant::now();
        product.push(product_unit(&pool[i].src, &d));
        product_ns += t.elapsed().as_nanos();
        let _ = std::fs::remove_dir_all(&d);
    }
    let config = request_config(&VerifierConfig::default());
    let mut tr = Tracer::new(Instant::now());
    let mut traced_counts = Counts::default();
    let mut product_counts = Counts::default();
    let mut truth = 0u64;
    let mut bytes = 0u64;
    for (k, &i) in plan.iter().enumerate() {
        let p = &pool[i];
        let d = dir.join(format!("t{}", k));
        let root = tr.open(UNIT, k as u64);
        let got = traced_unit(
            &mut tr,
            k as u64,
            &p.src,
            Backend::Destabilized,
            &config,
            StoreAt::Fresh(&d),
        );
        tr.close(root);
        bytes += dir_bytes(&d);
        let _ = std::fs::remove_dir_all(&d);
        r.attempted += 1;
        truth += p.methods.len() as u64;
        if let Err(e) = check(p, &got) {
            r.failed += 1;
            r.problem(format!("unit {}: {}", k, e));
        }
        match (&got, &product[k]) {
            (Ok(t), Ok(q)) => {
                traced_counts.add(&t.counts);
                product_counts.add(&q.counts);
                if t.verdicts != q.verdicts || t.reverified != q.reverified {
                    r.problem(format!("unit {}: traced and product paths disagree", k));
                }
            }
            _ => r.problem(format!("unit {}: a path failed", k)),
        }
    }
    check_repeat(r, "f1-cold", &product_counts, &traced_counts);
    put_layers(r, &tr, &traced_counts, truth);
    let traced_ns: u64 = tr.by_unit().values().map(|u| u.wall_ns).sum();
    r.put(
        "trace.overhead_ratio",
        traced_ns as f64 / product_ns.max(1) as f64,
        "ratio",
        plan.len(),
    );
    r.put(
        "store.bytes",
        bytes as f64 / plan.len().max(1) as f64,
        "bytes",
        plan.len(),
    );
    r.put("store.dead_records", 0.0, "count", plan.len());
    let _ = tr.write_jsonl(&opts.work_dir.join("spans.jsonl"));
}
