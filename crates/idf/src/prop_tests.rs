//! Property tests for the IDF front-end: printer/parser round-trips,
//! verifier robustness (no panics on arbitrary well-formed programs),
//! and program-level transparency of the solver cache and intern-time
//! canonicalization, which only the crate's own tests can switch off.

use crate::exec::Reference;
use crate::smt::oracle;
use crate::{
    parse_program, Assertion, Backend, Budget, BudgetAxis, Expr, FaultKind, FaultPlan, Method, Op,
    Program, Stmt, Type, Verdict, Verifier, VerifierConfig,
};
use daenerys_algebra::Q;
use daenerys_obs::{ClockKind, Event, MemorySink, TraceHandle};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Once};

/// Quiets the default panic hook for injected-fault payloads so the
/// chaos property below does not spray backtraces; real panics still
/// print.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let var = prop_oneof![Just("a"), Just("b"), Just("n")].prop_map(Expr::var);
    let leaf = prop_oneof![
        (-8i64..=8).prop_map(Expr::Int),
        any::<bool>().prop_map(Expr::Bool),
        var.clone(),
        var.clone().prop_map(|v| Expr::field(v, "v")),
        var.clone()
            .prop_map(|v| Expr::Old(Box::new(Expr::field(v, "v")), crate::Span::NONE)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(Op::Add),
                    Just(Op::Sub),
                    Just(Op::Mul),
                    Just(Op::Eq),
                    Just(Op::Ne),
                    Just(Op::Lt),
                    Just(Op::Le),
                    Just(Op::Gt),
                    Just(Op::Ge),
                    Just(Op::And),
                    Just(Op::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn arb_assertion() -> impl Strategy<Value = Assertion> {
    let acc = prop_oneof![Just("a"), Just("b")]
        .prop_map(|x| Assertion::Acc(Expr::var(x), "v".to_string(), Q::HALF));
    let leaf = prop_oneof![arb_expr().prop_map(Assertion::Expr), acc];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Assertion::and(a, b)),
            (arb_expr(), inner.clone()).prop_map(|(c, a)| Assertion::Implies(c, Box::new(a))),
        ]
    })
    // The printer round-trips canonical assertions (see
    // `Assertion::normalize`).
    .prop_map(|a| a.normalize())
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let target = prop_oneof![Just("t"), Just("r")];
    let recv = prop_oneof![Just("a"), Just("b")].prop_map(Expr::var);
    let leaf = prop_oneof![
        (target.clone(), arb_expr()).prop_map(|(x, e)| Stmt::Assign(x.to_string(), e)),
        (recv.clone(), arb_expr()).prop_map(|(r, e)| Stmt::FieldWrite(r, "v".to_string(), e)),
        arb_assertion().prop_map(Stmt::Inhale),
        arb_assertion().prop_map(Stmt::Exhale),
        arb_assertion().prop_map(Stmt::Assert),
        (target, arb_expr()).prop_map(|(x, e)| Stmt::VarDecl(x.to_string(), Type::Int, e)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                arb_expr(),
                proptest::collection::vec(inner.clone(), 1..3),
                proptest::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            (
                arb_expr(),
                arb_assertion(),
                proptest::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(c, i, b)| Stmt::While(c, i, b)),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_stmt(), 0..5),
        arb_assertion(),
        arb_assertion(),
    )
        .prop_map(|(body, requires, ensures)| {
            Program::new(
                vec![("v".to_string(), Type::Int)],
                vec![Method {
                    name: "m".to_string(),
                    params: vec![
                        ("a".to_string(), Type::Ref),
                        ("b".to_string(), Type::Ref),
                        ("n".to_string(), Type::Int),
                    ],
                    returns: vec![("r".to_string(), Type::Int)],
                    requires,
                    ensures,
                    body: Some(body),
                }],
            )
        })
}

/// An arbitrary fault aimed at the chaos target method.
fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (0usize..8).prop_map(FaultKind::SolverUnknownAfter),
        prop_oneof![
            Just(BudgetAxis::Deadline),
            Just(BudgetAxis::SolverFuel),
            Just(BudgetAxis::States),
            Just(BudgetAxis::Terms),
        ]
        .prop_map(FaultKind::ExhaustBudget),
        (0usize..4).prop_map(FaultKind::PanicAtState),
    ]
}

/// A fault plan of 1–3 faults, all aimed at method `b`.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(arb_fault_kind(), 1..4).prop_map(|kinds| {
        let mut plan = FaultPlan::none();
        for kind in kinds {
            plan.push("b", kind);
        }
        plan
    })
}

/// A per-method budget over the deterministic axes only (fuel, states,
/// terms — never the wall clock), each axis possibly unlimited.
fn arb_budget() -> impl Strategy<Value = Budget> {
    (
        proptest::option::of(1u64..64),
        proptest::option::of(1u64..16),
        proptest::option::of(1u64..256),
    )
        .prop_map(|(fuel, states, terms)| Budget {
            deadline_ms: None,
            solver_fuel: fuel,
            max_states: states,
            max_terms: terms,
        })
}

/// Verifies `p` with canonicalization on or off, projected to what must
/// be invariant: each method's definite verdict (`Some(true)` verified,
/// `Some(false)` failed, `None` indefinite) and its failed obligations.
/// Failure *reports* render arena terms (canonicalization legitimately
/// reshapes those spellings) and stats count branches and terms (which
/// canonicalization changes), so neither is compared.
fn toggled_verdicts(
    p: &Program,
    simplify: bool,
    threads: usize,
) -> Vec<(String, Option<bool>, Vec<crate::Obligation>)> {
    let mut v = Verifier::with_config(
        p,
        Backend::Destabilized,
        VerifierConfig {
            threads,
            reference: Reference {
                simplify,
                ..Reference::default()
            },
            ..VerifierConfig::default()
        },
    );
    v.verify_all_verdicts()
        .into_iter()
        .map(|(name, verdict)| {
            let definite = match &verdict {
                Verdict::Verified(_) => Some(true),
                Verdict::Failed { .. } => Some(false),
                _ => None,
            };
            let failures = match &verdict {
                Verdict::Failed { failures, .. } | Verdict::Unknown { failures, .. } => {
                    failures.clone()
                }
                _ => Vec::new(),
            };
            (name, definite, failures)
        })
        .collect()
}

/// On a program entirely inside the linear fragment — where every
/// canonical rewrite is a logical equivalence — canonicalization is
/// verdict-transparent at 1, 2, and 8 threads, including for a method
/// that definitely fails.
#[test]
fn toggle_matrix_is_verdict_transparent_on_linear_programs() {
    let p = parse_program(
        "field val: Int
         method ok(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 1 }
         method bad(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
         { c.val := 3 }
         method gap(x: Int, y: Int) returns (r: Int)
           requires x < y ensures r >= 1
         { if (x + 1 < y) { r := y - x } else { r := 1 } }",
    )
    .unwrap();
    let baseline = toggled_verdicts(&p, true, 1);
    assert!(
        baseline
            .iter()
            .any(|(name, _, failures)| name == "bad" && !failures.is_empty()),
        "the failing method must fail, or the matrix compares nothing"
    );
    for simplify in [true, false] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                baseline,
                toggled_verdicts(&p, simplify, threads),
                "verdicts diverge at simplify={}, threads={}",
                simplify,
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential (program level): on arbitrary programs, with
    /// canonicalization on or off, verdicts are exactly thread-
    /// transparent, and no query the single-threaded run poses gets a
    /// definite answer the reference DPLL contradicts. On nonlinear
    /// programs either search may leave `Unknown` what the other
    /// decides (the CDCL search decides opaque atoms the reference
    /// leaves open, and propagation skips theory-Unknown leaves the
    /// reference visits), and canonicalization may merge commuted
    /// opaque atoms, so bit-exact agreement is asserted only on the
    /// linear fragment (see `cdcl_matches_dpll_on_linear_program`,
    /// `canonicalization_is_answer_transparent` and
    /// `toggle_matrix_is_verdict_transparent_on_linear_programs`).
    #[test]
    fn toggles_are_thread_transparent_and_sound(
        simplify in any::<bool>(),
        p in arb_program(),
    ) {
        let (baseline, tally) = oracle::cross_checked(|| toggled_verdicts(&p, simplify, 1));
        prop_assert!(
            tally.contradictions == 0,
            "CDCL and the reference DPLL contradict each other (simplify={}) on:\n{}\n{}",
            simplify, p, tally.mismatches.join("\n")
        );
        for threads in [2usize, 8] {
            prop_assert_eq!(
                &baseline,
                &toggled_verdicts(&p, simplify, threads),
                "thread count changed verdicts (simplify={}, threads={}) on:\n{}",
                simplify, threads, p
            );
        }
    }

    /// Differential: whole-program verification is unaffected by the
    /// cache — same verdict, same obligations (descriptions and
    /// outcomes), same cache-independent statistics.
    #[test]
    fn verify_all_is_cache_transparent(p in arb_program()) {
        let run = |cache: bool| {
            let mut v = Verifier::with_config(
                &p,
                Backend::Destabilized,
                VerifierConfig {
                    threads: 1,
                    reference: Reference {
                        cache,
                        ..Reference::default()
                    },
                    ..VerifierConfig::default()
                },
            );
            let verdict = v.verify_all().map(|stats| {
                stats
                    .into_iter()
                    .map(|(name, s)| {
                        (name, s.obligations, s.solver_queries, s.symbols, s.states)
                    })
                    .collect::<Vec<_>>()
            });
            (verdict, v.obligations().to_vec())
        };
        prop_assert_eq!(run(true), run(false), "cache changed verification of:\n{}", p);
    }

    /// The pretty-printer emits source that parses back to the same AST.
    #[test]
    fn program_print_parse_roundtrip(p in arb_program()) {
        let printed = p.to_string();
        let reparsed = parse_program(&printed);
        prop_assert!(reparsed.is_ok(), "unparseable:\n{}", printed);
        prop_assert_eq!(reparsed.unwrap(), p, "roundtrip mismatch:\n{}", printed);
    }

    /// The verifier never panics on arbitrary well-formed programs, and
    /// both backends return the same verdict.
    #[test]
    fn verifier_is_total_and_backends_agree(p in arb_program()) {
        let rd = Verifier::new(&p, Backend::Destabilized).verify_all().is_ok();
        let rb = Verifier::new(&p, Backend::StableBaseline).verify_all().is_ok();
        prop_assert_eq!(rd, rb, "backends disagree on:\n{}", p);
    }

    /// Chaos isolation: a random fault plan aimed at one method, under
    /// a random finite budget, always terminates with a full verdict
    /// map and never changes a sibling's verdict — at one worker or
    /// many.
    #[test]
    fn fault_plans_never_change_sibling_verdicts(
        plan in arb_fault_plan(),
        budget in arb_budget(),
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        quiet_injected_panics();
        let program = parse_program(
            "field val: Int
             method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
             { c.val := 1 }
             method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
             { c.val := 1; c.val := c.val + 1 }
             method c(c: Ref) requires acc(c.val) ensures acc(c.val)
             { c.val := c.val + 0 }",
        ).unwrap();
        let run = |faults: FaultPlan, threads: usize| -> BTreeMap<String, Verdict> {
            let mut v = Verifier::with_config(
                &program,
                Backend::Destabilized,
                VerifierConfig {
                    threads,
                    budget,
                    faults,
                    retry_unknown: false,
                    ..VerifierConfig::default()
                },
            );
            v.verify_all_verdicts()
                .into_iter()
                .map(|(name, verdict)| (name, verdict.normalized()))
                .collect()
        };
        let clean = run(FaultPlan::none(), 1);
        let faulted = run(plan.clone(), threads);
        prop_assert_eq!(faulted.len(), 3, "verdict map incomplete under {:?}", &plan);
        for sibling in ["a", "c"] {
            prop_assert_eq!(
                &faulted[sibling],
                &clean[sibling],
                "fault plan {:?} (budget {:?}, {} threads) leaked into sibling {}",
                &plan, &budget, threads, sibling
            );
        }
    }

    /// Flight-recorder determinism: under the logical clock, the
    /// merged trace (after timestamp normalization) and the verdict
    /// map are identical at 1, 2, and 8 worker threads, with the
    /// solver cache on or off, even under injected faults and finite
    /// budgets. The merge path buffers per worker and replays in
    /// program order, so thread scheduling must never show through.
    #[test]
    fn traces_are_deterministic_across_threads_and_cache(
        plan in arb_fault_plan(),
        budget in arb_budget(),
        cache in any::<bool>(),
    ) {
        quiet_injected_panics();
        let program = parse_program(
            "field val: Int
             method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
             { c.val := 1 }
             method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
             { c.val := 1; c.val := c.val + 1 }
             method c(c: Ref) requires acc(c.val) ensures acc(c.val)
             { c.val := c.val + 0 }",
        ).unwrap();
        let run = |threads: usize| -> (BTreeMap<String, Verdict>, Vec<Event>) {
            let sink = Arc::new(MemorySink::new(1 << 14));
            let mut v = Verifier::with_config(
                &program,
                Backend::Destabilized,
                VerifierConfig {
                    threads,
                    budget,
                    faults: plan.clone(),
                    retry_unknown: false,
                    trace: TraceHandle::new(sink.clone(), ClockKind::Logical),
                    reference: Reference {
                        cache,
                        ..Reference::default()
                    },
                    ..VerifierConfig::default()
                },
            );
            let verdicts = v
                .verify_all_verdicts()
                .into_iter()
                .map(|(name, verdict)| (name, verdict.normalized()))
                .collect();
            let events = sink.events().iter().map(Event::normalized).collect();
            (verdicts, events)
        };
        let (verdicts_1, trace_1) = run(1);
        prop_assert!(!trace_1.is_empty(), "enabled trace produced no events");
        for threads in [2usize, 8] {
            let (verdicts_n, trace_n) = run(threads);
            prop_assert_eq!(
                &verdicts_1, &verdicts_n,
                "verdicts diverge at {} threads under {:?}", threads, &plan
            );
            prop_assert_eq!(
                &trace_1, &trace_n,
                "trace diverges at {} threads (cache={}, budget {:?}) under {:?}",
                threads, cache, &budget, &plan
            );
        }
    }
}

/// A bodiless method named `name` whose parameter count records its
/// declaration slot, so a lookup's answer is identifiable.
fn slot_method(name: &str, slot: usize) -> Method {
    Method {
        name: name.to_string(),
        params: vec![("x".to_string(), Type::Int); slot],
        returns: vec![],
        requires: Assertion::truth(),
        ensures: Assertion::truth(),
        body: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed `Program::method` answers exactly like the
    /// declaration-order scan: for every declared name, for duplicated
    /// names (first declaration wins), and for absent names.
    #[test]
    fn method_index_matches_declaration_scan(
        names in proptest::collection::vec(
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d"), Just("e"), Just("f")],
            0..24,
        ),
    ) {
        let methods = names.iter().enumerate().map(|(i, n)| slot_method(n, i)).collect();
        let p = Program::new(vec![], methods);
        for name in ["a", "b", "c", "d", "e", "f", "g", "", "aa"] {
            let want = p.methods.iter().find(|m| m.name == name);
            prop_assert_eq!(p.method(name).map(|m| m.params.len()), want.map(|m| m.params.len()));
            // Asking twice serves the built index, not the first scan.
            prop_assert_eq!(p.method(name), want);
        }
    }
}
