//! `edit-replay`: seeded edits to a generated monorepo-scale corpus,
//! each re-verified through one warm [`SessionHost`] with a store, as
//! `daenerys watch` runs it.
//!
//! A unit applies one edit (or reverts the previous one) and
//! re-verifies the whole corpus: recovery parse → wf →
//! [`daenerys_idf::Session::verify_program`]. Edits come in three
//! kinds over seeded random targets, and the generator's own
//! adjacency says which methods each must re-verify:
//!
//! * body-only — exactly the edited method;
//! * spec — the edited method's reverse-reachable cone;
//! * formatting-only — nothing.

use crate::pipeline::{request_config, session_unit, traced_unit, Counts, StoreAt, UnitResult};
use crate::report::Report;
use crate::trace::{Tracer, UNIT};
use crate::util::{deck, fresh_dir, median, ms_since, Rng};
use crate::{check_repeat, context, put_end_to_end, put_layers, Options, Size};
use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_idf::{
    config_fingerprint, method_fingerprint, Backend, DepGraph, Program, SessionHost, VerdictStore,
    VerifierConfig,
};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Corpus methods.
    pub methods: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Units in each pass of the traced run.
    pub trace_units: usize,
    /// Repetitions of the front-end scale measurement.
    pub scale_reps: usize,
}

impl Sizes {
    /// The sizes for `size`.
    pub fn of(size: Size) -> Sizes {
        match size {
            Size::Full => Sizes {
                methods: 5000,
                setups: 5,
                trace_units: 24,
                scale_reps: 5,
            },
            Size::Tiny => Sizes {
                methods: 120,
                setups: 2,
                trace_units: 12,
                scale_reps: 2,
            },
        }
    }
}

/// The kind of a seeded edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// A statement added to one method's body.
    Body,
    /// One method's postcondition strengthened.
    Spec,
    /// One method's contract reflowed, tokens unchanged.
    Format,
}

/// Renders `corpus` as IDF source with `edit` applied to one method —
/// byte-identical to [`Corpus::source`] when `edit` is `None`.
pub fn render(corpus: &Corpus, edit: Option<(EditKind, usize)>) -> String {
    let mut src = String::with_capacity(corpus.len() * 160);
    for i in 0..corpus.len() {
        let kind = edit.filter(|&(_, t)| t == i).map(|(k, _)| k);
        let ensures = if kind == Some(EditKind::Spec) {
            "ensures r >= n && r >= 0"
        } else {
            "ensures r >= n"
        };
        if kind == Some(EditKind::Format) {
            let _ = writeln!(
                src,
                "method m{}(n: Int) returns (r: Int)\n  requires  n >= 0 /* noop */\n  {}",
                i, ensures
            );
        } else {
            let _ = writeln!(
                src,
                "method m{}(n: Int) returns (r: Int) requires n >= 0 {}",
                i, ensures
            );
        }
        src.push_str("{ var t: Int := n;");
        for &j in corpus.callees(i) {
            let _ = write!(src, " call t := m{}(t);", j);
        }
        if kind == Some(EditKind::Body) {
            src.push_str(" var u: Int := 0; t := t + u;");
        }
        src.push_str(" r := t }\n");
    }
    src
}

/// Every method that can reach `target` along the generator's call
/// edges, `target` included, in index order.
pub fn cone(callers: &[Vec<usize>], target: usize) -> BTreeSet<usize> {
    let mut out = BTreeSet::from([target]);
    let mut queue = VecDeque::from([target]);
    while let Some(cur) = queue.pop_front() {
        for &c in &callers[cur] {
            if out.insert(c) {
                queue.push_back(c);
            }
        }
    }
    out
}

/// One unit: the source to verify and what must re-verify.
#[derive(Clone, Debug)]
pub struct Unit {
    /// `body`, `spec`, `format`, or `revert-` one of those.
    pub kind: &'static str,
    /// The corpus source after the unit's edit.
    pub src: String,
    /// Ground truth: the method names that must re-verify, in index
    /// order.
    pub expected: Vec<String>,
}

/// The seeded unit stream: an edit, then its revert, and so on.
#[derive(Debug)]
pub struct Units<'c> {
    corpus: &'c Corpus,
    callers: Vec<Vec<usize>>,
    base: String,
    rng: Rng,
    seed: u64,
    edits: u64,
    revert: Option<Unit>,
}

impl<'c> Units<'c> {
    /// The stream for `corpus` under `seed`; `base` is its unedited
    /// source.
    pub fn new(corpus: &'c Corpus, base: String, seed: u64) -> Units<'c> {
        let mut callers = vec![Vec::new(); corpus.len()];
        for i in 0..corpus.len() {
            for &j in corpus.callees(i) {
                callers[j].push(i);
            }
        }
        Units {
            corpus,
            callers,
            base,
            rng: Rng::new(seed, 0xed17),
            seed,
            edits: 0,
            revert: None,
        }
    }

    /// The next unit.
    pub fn next_unit(&mut self) -> Unit {
        if let Some(revert) = self.revert.take() {
            return revert;
        }
        let target = self.rng.below(self.corpus.len());
        let kind = deck(self.seed, 0xed17, self.edits, 3);
        self.edits += 1;
        let (kind, name, revert_name, expected) = match kind {
            0 => (
                EditKind::Body,
                "body",
                "revert-body",
                vec![Corpus::method_name(target)],
            ),
            1 => (
                EditKind::Spec,
                "spec",
                "revert-spec",
                cone(&self.callers, target)
                    .into_iter()
                    .map(Corpus::method_name)
                    .collect(),
            ),
            _ => (EditKind::Format, "format", "revert-format", Vec::new()),
        };
        self.revert = Some(Unit {
            kind: revert_name,
            src: self.base.clone(),
            expected: expected.clone(),
        });
        Unit {
            kind: name,
            src: render(self.corpus, Some((kind, target))),
            expected,
        }
    }
}

/// Checks one unit's result against its ground truth.
pub fn check(unit: &Unit, got: &Result<UnitResult, String>) -> Result<(), String> {
    let res = got.as_ref().map_err(Clone::clone)?;
    if !res.all_verified() {
        return Err(format!("{}: a generated method did not verify", unit.kind));
    }
    // Both lists are in program order, which is index order here.
    if res.reverified != unit.expected {
        return Err(format!(
            "{}: re-verified {} methods, ground truth says {}",
            unit.kind,
            res.reverified.len(),
            unit.expected.len()
        ));
    }
    Ok(())
}

/// A warm host over a freshly filled store.
struct Ready {
    host: SessionHost,
    setup_s: f64,
}

/// Set-up: generate the corpus, render it, and fill a fresh store with
/// one cold pass through the unit path.
fn set_up(spec: CorpusSpec, dir: &Path) -> Result<(Corpus, String, Ready), String> {
    let t = Instant::now();
    let corpus = Corpus::generate(spec);
    let base = render(&corpus, None);
    let config = VerifierConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let host = SessionHost::new(Backend::Destabilized, config);
    let cold = session_unit(&host.session(), &base)?;
    let setup_s = t.elapsed().as_secs_f64();
    if !cold.all_verified() || cold.reverified.len() != corpus.len() {
        return Err("cold fill: the corpus did not verify in full".to_string());
    }
    Ok((corpus, base, Ready { host, setup_s }))
}

/// Runs `edit-replay`.
pub fn run(opts: &Options) -> Report {
    let sizes = Sizes::of(opts.size);
    let spec = CorpusSpec {
        methods: sizes.methods,
        seed: opts.seed,
        ..CorpusSpec::default()
    };
    let mut r = Report {
        workload: "edit-replay",
        context: context(
            opts,
            &format!(
                "methods={} depth={} fan_out={} diamond_pct={} setups={} trace_units={}",
                spec.methods,
                spec.depth,
                spec.fan_out,
                spec.diamond_pct,
                sizes.setups,
                sizes.trace_units
            ),
        ),
        ..Report::default()
    };
    if opts.trace {
        traced(opts, sizes, spec, &mut r);
    } else {
        untraced(opts, sizes, spec, &mut r);
    }
    r
}

fn untraced(opts: &Options, sizes: Sizes, spec: CorpusSpec, r: &mut Report) {
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..sizes.setups.max(1) {
        // The previous host is dropped before the next set-up starts.
        drop(ready.take());
        let dir = fresh_dir(&opts.work_dir, &format!("store-{}", rep));
        match set_up(spec, &dir) {
            Ok(x) => {
                setups.push(x.2.setup_s);
                ready = Some(x);
            }
            Err(e) => return r.problem(e),
        }
    }
    let (corpus, base, ready) = ready.expect("at least one set-up ran");
    if base != corpus.source(None) {
        r.problem("the edit renderer disagrees with Corpus::source");
    }
    let session = ready.host.session();
    let mut units = Units::new(&corpus, base, opts.seed);
    let mut lat = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < opts.seconds {
        let unit = units.next_unit();
        let t = Instant::now();
        let got = session_unit(&session, &unit.src);
        lat.push(ms_since(t));
        r.attempted += 1;
        if let Err(e) = check(&unit, &got) {
            r.failed += 1;
            r.problem(format!("unit {}: {}", r.attempted, e));
        }
    }
    let busy_s = lat.iter().sum::<f64>() / 1e3;
    put_end_to_end(r, &lat, busy_s, &setups);
}

fn traced(opts: &Options, sizes: Sizes, spec: CorpusSpec, r: &mut Report) {
    // Pass 1: the product path, untraced.
    let dir_a = fresh_dir(&opts.work_dir, "store-product");
    let (corpus, base, ready) = match set_up(spec, &dir_a) {
        Ok(x) => x,
        Err(e) => return r.problem(e),
    };
    let mut units = Units::new(&corpus, base.clone(), opts.seed);
    let plan: Vec<Unit> = (0..sizes.trace_units).map(|_| units.next_unit()).collect();
    let session = ready.host.session();
    let mut product = Vec::new();
    let mut product_ns = 0u128;
    for unit in &plan {
        let t = Instant::now();
        let got = session_unit(&session, &unit.src);
        product_ns += t.elapsed().as_nanos();
        product.push(got);
    }
    drop(ready);

    // Pass 2: the same units through the layer entry points, traced.
    let dir_b = fresh_dir(&opts.work_dir, "store-traced");
    let ready = match set_up(spec, &dir_b) {
        Ok(x) => x.2,
        Err(e) => return r.problem(e),
    };
    let store = ready.host.store().expect("the host has a store");
    let config = request_config(&VerifierConfig::default());
    let mut tr = Tracer::new(Instant::now());
    let mut traced_counts = Counts::default();
    let mut product_counts = Counts::default();
    let mut truth = 0u64;
    for (k, unit) in plan.iter().enumerate() {
        let root = tr.open(UNIT, k as u64);
        let got = traced_unit(
            &mut tr,
            k as u64,
            &unit.src,
            Backend::Destabilized,
            &config,
            StoreAt::Warm(store),
        );
        tr.close(root);
        r.attempted += 1;
        truth += unit.expected.len() as u64;
        if let Err(e) = check(unit, &got) {
            r.failed += 1;
            r.problem(format!("unit {}: {}", k, e));
        }
        match (&got, &product[k]) {
            (Ok(t), Ok(p)) => {
                traced_counts.add(&t.counts);
                product_counts.add(&p.counts);
                if t.verdicts != p.verdicts || t.reverified != p.reverified {
                    r.problem(format!("unit {}: traced and product paths disagree", k));
                }
            }
            _ => r.problem(format!("unit {}: a path failed", k)),
        }
    }
    check_repeat(r, "edit-replay", &product_counts, &traced_counts);
    put_layers(r, &tr, &traced_counts, truth);
    let traced_ns: u64 = tr.by_unit().values().map(|u| u.wall_ns).sum();
    r.put(
        "trace.overhead_ratio",
        traced_ns as f64 / product_ns.max(1) as f64,
        "ratio",
        plan.len(),
    );
    {
        let s = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        r.put("store.dead_records", s.dead_records() as f64, "count", 1);
    }
    r.put("store.bytes", dir_bytes(&dir_b) as f64, "bytes", 1);
    let opens: Vec<f64> = (0..sizes.scale_reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let s = VerdictStore::open(&dir_b);
            let ms = ms_since(t);
            std::hint::black_box(s.len());
            ms
        })
        .collect();
    r.put("store.open_ms", median(&opens), "ms", opens.len());
    drop(ready);
    scale_ratios(sizes, spec, r);
    let _ = tr.write_jsonl(&opts.work_dir.join("spans.jsonl"));
}

/// Total bytes of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Median milliseconds of each front-end layer over `reps` runs on one
/// corpus: parse, wf, fingerprints, and dependency planning for a spec
/// edit of the middle method.
fn front_end_ms(corpus: &Corpus, reps: usize) -> [f64; 4] {
    let base = render(corpus, None);
    let target = corpus.len() / 2;
    let edited = render(corpus, Some((EditKind::Spec, target)));
    let prev = DepGraph::of_program(&parse(&base));
    let config = VerifierConfig::default();
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let program = parse(&edited);
        samples[0].push(ms_since(t));
        let t = Instant::now();
        let ok = daenerys_idf::check_program(&program).is_ok();
        samples[1].push(ms_since(t));
        assert!(ok, "generated corpora are well-formed");
        let t = Instant::now();
        let cfg = config_fingerprint(Backend::Destabilized, &config);
        let fps: Vec<_> = program
            .methods
            .iter()
            .map(|m| method_fingerprint(&program, m, Backend::Destabilized, &config))
            .collect();
        std::hint::black_box((cfg, fps));
        samples[2].push(ms_since(t));
        let t = Instant::now();
        let cur = DepGraph::of_program(&program);
        let roots = DepGraph::spec_dirty_roots(&prev, &cur);
        let dirty = cur.reverse_reachable(&roots);
        let names: Vec<String> = program.methods.iter().map(|m| m.name.clone()).collect();
        let pending: Vec<usize> = (0..names.len())
            .filter(|&i| dirty.contains(&names[i]))
            .collect();
        std::hint::black_box(cur.topo_order(&names, &pending));
        samples[3].push(ms_since(t));
    }
    samples.map(|s| median(&s))
}

fn parse(src: &str) -> Program {
    crate::pipeline::front_end(src).expect("generated corpora parse")
}

/// `t(n)/t(n/5)` for each front-end layer, on corpora of one seed.
fn scale_ratios(sizes: Sizes, spec: CorpusSpec, r: &mut Report) {
    let big = front_end_ms(&Corpus::generate(spec), sizes.scale_reps);
    let small_spec = CorpusSpec {
        methods: (spec.methods / 5).max(1),
        ..spec
    };
    let small = front_end_ms(&Corpus::generate(small_spec), sizes.scale_reps);
    let names = [
        "parser.scale_ratio",
        "wf.scale_ratio",
        "fingerprint.scale_ratio",
        "depgraph.scale_ratio",
    ];
    for (i, name) in names.into_iter().enumerate() {
        r.put(name, big[i] / small[i].max(1e-9), "ratio", sizes.scale_reps);
    }
}
