//! Shared helpers for the Daenerys evaluation harness.
//!
//! The binary `tables` regenerates every table and figure of
//! `EXPERIMENTS.md`; the Criterion benches measure the timing studies.

#![warn(missing_docs)]

pub mod corpus;

use daenerys_idf::{
    parse_program, parse_program_traced, Backend, SessionHost, Verdict, VerifierConfig, VerifyStats,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregated per-backend counters for one program.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Per-method statistics (verified methods only).
    pub stats: BTreeMap<String, VerifyStats>,
    /// Per-method verdicts, including methods degraded to `Unknown`
    /// under a finite budget.
    pub verdicts: BTreeMap<String, Verdict>,
    /// How many methods were actually re-verified (`Some` only for
    /// incremental runs, i.e. when the config has a `cache_dir`; the
    /// rest were restored from the persistent verdict store).
    pub reverified: Option<usize>,
}

impl BackendRun {
    /// Sums a statistic across verified methods.
    pub fn total(&self, f: impl Fn(&VerifyStats) -> usize) -> usize {
        self.stats.values().map(f).sum()
    }

    /// Hard counter invariant: every solver query is answered either
    /// by the memo table or by a fresh decision, in *every* mode —
    /// single- or multi-threaded, incremental. A violation means a
    /// counting path regressed, so the harness refuses to emit numbers
    /// built on it.
    ///
    /// # Panics
    ///
    /// Panics when `cache_hits + cache_misses != solver_queries`.
    fn check_cache_accounting(&self) {
        let (hits, misses) = (self.total(|s| s.cache_hits), self.total(|s| s.cache_misses));
        let queries = self.total(|s| s.solver_queries);
        assert_eq!(
            hits + misses,
            queries,
            "cache accounting invariant broken: hits({}) + misses({}) != queries({})",
            hits,
            misses,
            queries
        );
    }
}

/// Verifies a program on one backend under an explicit pipeline
/// configuration (worker-thread count, budget, verdict store, trace).
///
/// # Panics
///
/// Panics when the program does not parse, when any method fails or
/// crashes, or when `cache_hits + cache_misses != solver_queries`.
/// Methods degraded to `Unknown` under a finite budget are tolerated
/// and reported through [`BackendRun::verdicts`].
pub fn run_backend_with(src: &str, backend: Backend, config: VerifierConfig) -> BackendRun {
    let program = if config.trace.is_enabled() {
        let mut collector = config.trace.collector();
        let program = parse_program_traced(src, &mut collector).expect("harness program parses");
        let (events, metrics) = collector.take();
        config.trace.emit(events);
        config.trace.merge_metrics(&metrics);
        program
    } else {
        parse_program(src).expect("harness program parses")
    };
    // The harness is a Session client like every other front end (the
    // CLI, the daemon): the host owns the warm store when the config
    // has a `cache_dir`.
    let host = SessionHost::new(backend, config);
    let outcome = host.session().verify_program(&program);
    let verdicts = outcome.verdicts;
    let reverified = outcome.reverified;
    let mut stats = BTreeMap::new();
    for (name, verdict) in &verdicts {
        match verdict {
            Verdict::Verified(s) => {
                stats.insert(name.clone(), s.clone());
            }
            Verdict::Unknown { .. } => {}
            other => panic!("harness program must verify: {} is {}", name, other),
        }
    }
    let run = BackendRun {
        stats,
        verdicts,
        reverified,
    };
    run.check_cache_accounting();
    run
}

/// Formats a duration in microseconds for table cells.
pub fn micros(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_idf::Budget;

    #[test]
    fn run_backend_measures_something() {
        let src = "field v: Int
                   method id(c: Ref) requires acc(c.v) ensures acc(c.v) { }";
        let run = run_backend_with(src, Backend::Destabilized, VerifierConfig::default());
        assert_eq!(run.stats.len(), 1);
        assert!(run.total(|s| s.obligations) >= 1);
        assert!(run.verdicts.values().all(Verdict::is_verified));
        assert_eq!(run.total(|s| s.budget_exhausted), 0);
    }

    #[test]
    fn budgeted_runs_report_unknowns_instead_of_panicking() {
        let src = daenerys_idf::diverging_program(10);
        let config = VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let run = run_backend_with(&src, Backend::Destabilized, config);
        let exhausted: Vec<&Verdict> = run.verdicts.values().filter(|v| !v.is_verified()).collect();
        assert_eq!(exhausted.len(), 1);
        assert!(exhausted[0].is_budget_exhausted());
        assert_eq!(run.stats.len(), 2, "siblings still measured");
    }

    #[test]
    fn traced_runs_profile_into_phases_and_hot_queries() {
        use daenerys_obs::{ClockKind, EventKind, MemorySink, TraceHandle};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new(4096));
        let config = VerifierConfig {
            trace: TraceHandle::new(sink.clone(), ClockKind::Logical),
            ..VerifierConfig::default()
        };
        let src = "field v: Int
                   method set(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == 7
                   { c.v := 7 }";
        let run = run_backend_with(src, Backend::Destabilized, config);
        assert_eq!(run.stats.len(), 1);

        let events = sink.events();
        let has =
            |kind: EventKind, name: &str| events.iter().any(|e| e.kind == kind && e.name == name);
        for span in ["parse", "exec:set", "post"] {
            assert!(
                has(EventKind::SpanStart, span) && has(EventKind::SpanEnd, span),
                "{} span recorded",
                span
            );
        }
        assert!(
            has(EventKind::Point, "solver.query"),
            "solver queries recorded"
        );
    }
}
