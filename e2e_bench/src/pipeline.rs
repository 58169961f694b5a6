//! One unit of verification, two ways.
//!
//! [`session_unit`] is the product path a user runs: recovery parse,
//! well-formedness, then [`Session::verify_program`] through a warm
//! [`SessionHost`]. [`traced_unit`] drives the same work through the
//! public layer entry points one at a time, in the order
//! `Verifier::run_all_with` uses them, with a span around each call.
//! Both return a [`UnitResult`]; the traced run checks that the two
//! agree on verdicts, the re-verified set and every work count.

use crate::trace::Tracer;
use daenerys_idf::{
    check_program, config_fingerprint, method_fingerprint, parse_program_with_recovery_capped,
    Backend, DepGraph, Program, Session, Verdict, VerdictStore, Verifier, VerifierConfig,
    VerifyOutcome, VerifyStats, DEFAULT_MAX_ERRORS,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Work counts of one unit. Every field is a count the verifier's
/// deterministic behaviour fixes, so two runs of one seed must agree
/// on all of them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Units counted.
    pub units: u64,
    /// Source bytes parsed.
    pub parse_bytes: u64,
    /// Methods with a body (one store lookup each).
    pub lookups: u64,
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups with no matching entry.
    pub misses: u64,
    /// Matching entries discarded by transitive spec dirtiness.
    pub dirty_transitive: u64,
    /// Verdicts appended to the store (one per re-verified method).
    pub appends: u64,
    /// Methods re-verified (the dirty cone).
    pub cone: u64,
    /// Proof obligations discharged by re-verified methods.
    pub obligations: u64,
    /// Solver queries.
    pub smt_queries: u64,
    /// Solver query-cache hits.
    pub smt_cache_hits: u64,
    /// Solver query-cache misses.
    pub smt_cache_misses: u64,
    /// CDCL decisions.
    pub smt_decisions: u64,
    /// CDCL conflicts.
    pub smt_conflicts: u64,
    /// Unit propagations.
    pub smt_propagations: u64,
    /// Theory propagations.
    pub smt_theory_props: u64,
    /// Learned clauses.
    pub smt_learned: u64,
    /// Interned terms.
    pub interned_terms: u64,
}

impl Counts {
    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counts) {
        self.units += o.units;
        self.parse_bytes += o.parse_bytes;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.misses += o.misses;
        self.dirty_transitive += o.dirty_transitive;
        self.appends += o.appends;
        self.cone += o.cone;
        self.obligations += o.obligations;
        self.smt_queries += o.smt_queries;
        self.smt_cache_hits += o.smt_cache_hits;
        self.smt_cache_misses += o.smt_cache_misses;
        self.smt_decisions += o.smt_decisions;
        self.smt_conflicts += o.smt_conflicts;
        self.smt_propagations += o.smt_propagations;
        self.smt_theory_props += o.smt_theory_props;
        self.smt_learned += o.smt_learned;
        self.interned_terms += o.interned_terms;
    }

    fn add_stats(&mut self, s: &VerifyStats) {
        self.obligations += s.obligations as u64;
        self.smt_queries += s.solver_queries as u64;
        self.smt_cache_hits += s.cache_hits as u64;
        self.smt_cache_misses += s.cache_misses as u64;
        self.smt_decisions += s.solver_branches as u64;
        self.smt_conflicts += s.solver_conflicts as u64;
        self.smt_propagations += s.solver_propagations as u64;
        self.smt_theory_props += s.theory_props as u64;
        self.smt_learned += s.learned_clauses as u64;
        self.interned_terms += s.interned_terms as u64;
    }
}

/// A verdict reduced to what must agree between two runs: its kind,
/// its failure count, and for `verified` the normalized statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictKey {
    /// `verified`, `failed`, `unknown` or `crashed`.
    pub kind: &'static str,
    /// Failed obligations (0 when verified).
    pub failures: usize,
    /// Normalized statistics of a verified method.
    pub stats: Option<VerifyStats>,
}

impl VerdictKey {
    /// Reduces `v`.
    pub fn of(v: &Verdict) -> VerdictKey {
        match v {
            Verdict::Verified(s) => VerdictKey {
                kind: "verified",
                failures: 0,
                stats: Some(s.normalized()),
            },
            Verdict::Failed { failures, .. } => VerdictKey {
                kind: "failed",
                failures: failures.len(),
                stats: None,
            },
            Verdict::Unknown { failures, .. } => VerdictKey {
                kind: "unknown",
                failures: failures.len(),
                stats: None,
            },
            Verdict::CrashedInternal { .. } => VerdictKey {
                kind: "crashed",
                failures: 0,
                stats: None,
            },
        }
    }
}

/// What one unit produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitResult {
    /// Per-method verdicts, by name.
    pub verdicts: BTreeMap<String, VerdictKey>,
    /// Re-verified methods, in program order.
    pub reverified: Vec<String>,
    /// Work counts.
    pub counts: Counts,
}

impl UnitResult {
    /// True when every method verified.
    pub fn all_verified(&self) -> bool {
        self.verdicts.values().all(|v| v.kind == "verified")
    }

    /// True when at least one method definitely failed.
    pub fn any_failed(&self) -> bool {
        self.verdicts.values().any(|v| v.kind == "failed")
    }
}

/// Parses `src` as the product does (recovery parser, default cap)
/// and checks well-formedness.
///
/// # Errors
///
/// The first parse or well-formedness diagnostic.
pub fn front_end(src: &str) -> Result<Program, String> {
    let program = parse_program_with_recovery_capped(src, DEFAULT_MAX_ERRORS)
        .map_err(|errs| format!("parse: {}", errs[0]))?;
    check_program(&program).map_err(|errs| format!("wf: {}", errs[0]))?;
    Ok(program)
}

/// The product path: front end, then [`Session::verify_program`]
/// through the session's warm store.
///
/// # Errors
///
/// A front-end diagnostic.
pub fn session_unit(session: &Session<'_>, src: &str) -> Result<UnitResult, String> {
    let program = front_end(src)?;
    Ok(outcome_result(src, session.verify_program(&program)))
}

/// Reduces a product [`VerifyOutcome`] for `src` to a [`UnitResult`].
pub fn outcome_result(src: &str, out: VerifyOutcome) -> UnitResult {
    let reverified = out.reverified_methods.unwrap_or_default();
    let mut counts = Counts {
        units: 1,
        parse_bytes: src.len() as u64,
        lookups: out.verdicts.len() as u64,
        hits: out.store_hits.unwrap_or(0) as u64,
        misses: out.store_misses.unwrap_or(0) as u64,
        dirty_transitive: out.store_dirty_transitive.unwrap_or(0) as u64,
        appends: reverified.len() as u64,
        cone: reverified.len() as u64,
        ..Counts::default()
    };
    // `out.stats` also folds in the stored statistics of restored
    // methods; the solver worked only for the re-verified ones.
    for name in &reverified {
        if let Some(Verdict::Verified(s)) = out.verdicts.get(name) {
            counts.add_stats(s);
        }
    }
    UnitResult {
        verdicts: out
            .verdicts
            .iter()
            .map(|(n, v)| (n.clone(), VerdictKey::of(v)))
            .collect(),
        reverified,
        counts,
    }
}

/// Where the traced path finds its store.
#[derive(Debug)]
pub enum StoreAt<'a> {
    /// A warm store shared the way a [`daenerys_idf::SessionHost`]
    /// shares it.
    Warm(&'a Mutex<VerdictStore>),
    /// A store opened in this directory after the front end, as a
    /// fresh host would open it.
    Fresh(&'a Path),
}

fn lock(store: &Mutex<VerdictStore>) -> std::sync::MutexGuard<'_, VerdictStore> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The traced path for unit `unit`: the calls `Session::verify` makes,
/// made one at a time from here with a span around each. `config` is
/// the per-request configuration a session derives (no `cache_dir`;
/// the store is passed in, shared as the host shares it).
///
/// Span names: `parser`, `wf`, `store.open` (fresh stores only),
/// `depgraph.of_program`,
/// `fingerprint`, `store.lookup`, `store.graph_snapshot`,
/// `depgraph.plan` (`spec_dirty_roots`, `reverse_reachable`,
/// `topo_order`), `store.absorb_graph`, `exec` (the fan-out over the
/// re-verified methods, solver included), `store.append` (`record_durable`) and
/// `store.persist_graph`. The caller owns the unit's root span.
///
/// # Errors
///
/// A front-end diagnostic.
pub fn traced_unit(
    tr: &mut Tracer,
    unit: u64,
    src: &str,
    backend: Backend,
    config: &VerifierConfig,
    at: StoreAt<'_>,
) -> Result<UnitResult, String> {
    let program = tr
        .time("parser", unit, || {
            parse_program_with_recovery_capped(src, DEFAULT_MAX_ERRORS)
        })
        .map_err(|errs| format!("parse: {}", errs[0]))?;
    tr.time("wf", unit, || check_program(&program))
        .map_err(|errs| format!("wf: {}", errs[0]))?;
    let opened;
    let store = match at {
        StoreAt::Warm(m) => m,
        StoreAt::Fresh(dir) => {
            opened = tr.time("store.open", unit, || Mutex::new(VerdictStore::open(dir)));
            &opened
        }
    };
    let names: Vec<String> = program
        .methods
        .iter()
        .filter(|m| m.body.is_some())
        .map(|m| m.name.clone())
        .collect();
    let cur = tr.time("depgraph.of_program", unit, || {
        DepGraph::of_program(&program)
    });
    let (keys, fps) = tr.time("fingerprint", unit, || {
        let cfg_fp = config_fingerprint(backend, config);
        let keys: Vec<String> = names.iter().map(|n| format!("{}@{}", n, cfg_fp)).collect();
        let fps: Vec<_> = names
            .iter()
            .map(|n| {
                let m = program.method(n).expect("named methods exist");
                method_fingerprint(&program, m, backend, config)
            })
            .collect();
        (keys, fps)
    });
    let mut restored: Vec<Option<Verdict>> = tr.time("store.lookup", unit, || {
        keys.iter()
            .zip(&fps)
            .map(|(k, fp)| lock(store).lookup(k, *fp).cloned())
            .collect()
    });
    let misses = restored.iter().filter(|r| r.is_none()).count();
    let prev = tr.time("store.graph_snapshot", unit, || lock(store).graph().clone());
    let (pending, dirty_transitive) = tr.time("depgraph.plan", unit, || {
        let roots = DepGraph::spec_dirty_roots(&prev, &cur);
        let mut dirty_transitive = 0;
        if !roots.is_empty() {
            let dirty = cur.reverse_reachable(&roots);
            for (i, name) in names.iter().enumerate() {
                if restored[i].is_some() && dirty.contains(name) {
                    restored[i] = None;
                    dirty_transitive += 1;
                }
            }
        }
        let pending: Vec<usize> = (0..names.len())
            .filter(|&i| restored[i].is_none())
            .collect();
        (cur.topo_order(&names, &pending), dirty_transitive)
    });
    tr.time("store.absorb_graph", unit, || {
        lock(store).absorb_graph(&cur)
    });

    let fresh: BTreeMap<usize, Verdict> = tr.time("exec", unit, || {
        fan_out(&program, backend, config, &names, &pending)
    });
    for (&i, v) in &fresh {
        tr.time("store.append", unit, || {
            // Best-effort, exactly as the product: an unwritable
            // store costs reuse, never correctness.
            let _ = lock(store).record_durable(&keys[i], fps[i], v);
        });
    }
    tr.time("store.persist_graph", unit, || {
        let _ = lock(store).persist_graph();
    });

    let mut counts = Counts {
        units: 1,
        parse_bytes: src.len() as u64,
        lookups: names.len() as u64,
        hits: (names.len() - pending.len()) as u64,
        misses: misses as u64,
        dirty_transitive: dirty_transitive as u64,
        appends: fresh.len() as u64,
        cone: pending.len() as u64,
        ..Counts::default()
    };
    let mut verdicts = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let v = match fresh.get(&i) {
            Some(v) => {
                if let Verdict::Verified(s) = v {
                    counts.add_stats(s);
                }
                v
            }
            None => restored[i]
                .as_ref()
                .expect("every method is restored or fresh"),
        };
        verdicts.insert(name.clone(), VerdictKey::of(v));
    }
    Ok(UnitResult {
        verdicts,
        reverified: fresh.keys().map(|&i| names[i].clone()).collect(),
        counts,
    })
}

/// Verifies `pending` (indices into `names`) the way the product
/// does: across `config.effective_threads()` scoped workers, method
/// `pending[slot]` on worker `slot % threads`, each method in a fresh
/// verifier behind `catch_unwind`.
fn fan_out(
    program: &Program,
    backend: Backend,
    config: &VerifierConfig,
    names: &[String],
    pending: &[usize],
) -> BTreeMap<usize, Verdict> {
    let threads = config.effective_threads().min(pending.len()).max(1);
    let work = |t: usize| -> Vec<(usize, Verdict)> {
        pending
            .iter()
            .enumerate()
            .filter(|(slot, _)| slot % threads == t)
            .map(|(_, &i)| (i, verify_isolated(program, backend, config, &names[i])))
            .collect()
    };
    if threads == 1 {
        return work(0).into_iter().collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || work(t))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification is unwind-contained"))
            .collect()
    })
}

/// One method in a fresh verifier, retrying a budget-exhausted run once
/// with the escalated budget — the product's per-method isolation.
fn verify_isolated(
    program: &Program,
    backend: Backend,
    config: &VerifierConfig,
    name: &str,
) -> Verdict {
    let run = |cfg: VerifierConfig| {
        catch_unwind(AssertUnwindSafe(|| {
            Verifier::with_config(program, backend, cfg).verify_method_verdict(name)
        }))
        .unwrap_or_else(|_| Verdict::CrashedInternal {
            message: "panic".to_string(),
        })
    };
    let first = run(config.clone());
    if !(config.retry_unknown && !config.budget.is_unlimited() && first.is_budget_exhausted()) {
        return first;
    }
    let mut escalated = config.clone();
    escalated.budget = escalated.budget.escalated();
    let mut second = run(escalated);
    if let Verdict::Verified(stats) = &mut second {
        stats.budget_exhausted += 1;
    }
    second
}

/// The per-request configuration a [`Session`] derives from its host's
/// base: the store is reached through the host, never reopened.
pub fn request_config(base: &VerifierConfig) -> VerifierConfig {
    VerifierConfig {
        cache_dir: None,
        ..base.clone()
    }
}
