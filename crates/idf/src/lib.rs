//! # `daenerys-idf` — a Viper-style implicit-dynamic-frames verifier
//!
//! The automated-verifier side of the paper's bridge.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod budget;
pub mod cases;
pub mod compile;
pub mod cost;
pub mod depgraph;
pub mod diag;
pub mod exec;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod pretty;
#[cfg(test)]
mod prop_tests;
pub mod session;
pub mod smt;
pub mod stability;
pub mod store;
pub mod sym;
pub mod translate;
pub mod wf;

pub use ast::{Assertion, Expr, Method, Op, Program, Span, Stmt, Type};
pub use budget::{Budget, BudgetAxis, Fault, FaultKind, FaultPlan};
pub use cases::{
    all_cases, chain_program, diverging_program, negative_cases, pigeonhole_program,
    positive_cases, scaling_program, Case,
};
pub use compile::{
    alloc_object, compile_method, compile_program, run_and_check, spec_holds, ConcreteError,
    ConcreteObj, ConcreteVal,
};
pub use cost::{estimate_method, estimate_program, MethodCost, PATH_CAP};
pub use depgraph::{DepGraph, DepNode};
pub use diag::{pc_hash, FailureReport, QueryCost, StabilityLint, HOT_QUERY_LIMIT};
pub use exec::{
    Backend, Chunk, Obligation, UnknownReason, Verdict, Verifier, VerifierConfig, VerifyError,
    VerifyStats,
};
pub use fingerprint::{
    config_fingerprint, direct_callees, interface_fingerprint, method_fingerprint,
    normalized_interface, Fingerprint,
};
pub use parser::{
    parse_assertion, parse_program, parse_program_traced, parse_program_with_recovery,
    parse_program_with_recovery_capped, ParseError, DEFAULT_MAX_ERRORS,
};
pub use session::{Session, SessionError, SessionHost, VerifyOutcome, VerifyRequest};
pub use smt::{Answer, Solver};
pub use stability::{
    agrees_with_oracle, analyze_method, analyze_program, classify, Classification, Finding,
    FindingKind, SpecSite, SpecVerdict, StabilityClass,
};
pub use store::{StoredVerdict, VerdictStore};
pub use sym::{Sort, Sym, SymExpr, SymSupply, Term, TermArena, TermId, Witness};
pub use translate::{
    env_of, full_ownership, obj_of, strip_old, translate_assertion, translate_assertion_traced,
    translate_expr, TEnv, TranslateError,
};
pub use wf::{check_program, check_program_traced, WfError};

/// One-call pipeline: parse → well-formedness check → verify.
///
/// # Errors
///
/// Returns a rendered error string for parse errors, well-formedness
/// diagnoses, or failed proof obligations.
///
/// # Examples
///
/// ```
/// use daenerys_idf::{verify_source, Backend};
///
/// let stats = verify_source(
///     "field v: Int
///      method zero(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == 0
///      { c.v := 0 }",
///     Backend::Destabilized,
/// )?;
/// assert_eq!(stats.len(), 1);
/// # Ok::<(), String>(())
/// ```
pub fn verify_source(
    src: &str,
    backend: Backend,
) -> Result<std::collections::BTreeMap<String, VerifyStats>, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    check_program(&program).map_err(|es| {
        es.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    let mut verifier = Verifier::new(&program, backend);
    verifier.verify_all().map_err(|e| e.to_string())
}

/// [`verify_source`] with an explicit [`VerifierConfig`]. When the
/// config's [`daenerys_obs::TraceHandle`] is enabled, the front-end
/// phases (`parse`, `wf`) are spanned and emitted ahead of the
/// per-method `exec:<name>` spans the verifier produces.
///
/// # Errors
///
/// Same as [`verify_source`].
pub fn verify_source_with(
    src: &str,
    backend: Backend,
    config: VerifierConfig,
) -> Result<std::collections::BTreeMap<String, VerifyStats>, String> {
    let mut collector = config.trace.collector();
    let program = parse_program_traced(src, &mut collector).map_err(|e| e.to_string())?;
    check_program_traced(&program, &mut collector).map_err(|es| {
        es.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    let (events, metrics) = collector.take();
    config.trace.emit(events);
    config.trace.merge_metrics(&metrics);
    let mut verifier = Verifier::with_config(&program, backend, config);
    verifier.verify_all().map_err(|e| e.to_string())
}
