//! Resource budgets and deterministic fault injection for the verifier.
//!
//! A [`Budget`] bounds each axis of verification work — wall-clock
//! deadline, solver fuel (CDCL conflicts + propagated literals),
//! symbolic-execution states, and interned terms. Budgets are checked *cooperatively* at the
//! existing loop sites in `exec`/`smt`, so exhaustion prunes the run
//! and surfaces as a deterministic `Verdict::Unknown { reason }`
//! rather than a hang or a panic.
//!
//! A [`FaultPlan`] injects failures at deterministic points (solver
//! Unknowns after N queries, immediate budget exhaustion, a panic at
//! the Nth execution state) so the chaos test suite can prove the
//! pipeline degrades gracefully: one faulted method never perturbs its
//! siblings' verdicts, at any thread count.

use std::fmt;

/// One resource axis a [`Budget`] can bound (and a fault can exhaust).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BudgetAxis {
    /// Wall-clock deadline per method ([`Budget::deadline_ms`]).
    Deadline,
    /// Solver fuel per method ([`Budget::solver_fuel`]): CDCL
    /// conflicts + propagations.
    SolverFuel,
    /// Symbolic-execution states per method ([`Budget::max_states`]).
    States,
    /// Interned terms per method ([`Budget::max_terms`]).
    Terms,
}

impl BudgetAxis {
    /// Every axis, in declaration order — used when emitting one
    /// budget-consumption gauge per axis.
    pub const ALL: [BudgetAxis; 4] = [
        BudgetAxis::Deadline,
        BudgetAxis::SolverFuel,
        BudgetAxis::States,
        BudgetAxis::Terms,
    ];
}

impl fmt::Display for BudgetAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetAxis::Deadline => "deadline",
            BudgetAxis::SolverFuel => "solver fuel",
            BudgetAxis::States => "states",
            BudgetAxis::Terms => "terms",
        };
        f.write_str(s)
    }
}

/// Per-method resource limits for verification. Every axis is optional;
/// `None` means unlimited, and the default budget is unlimited on every
/// axis (so default-configured runs behave exactly as before).
///
/// All axes except the deadline are *deterministic*: whether and where
/// they exhaust depends only on the program, backend, and configuration
/// — never on wall-clock time, machine speed, or thread count (each
/// method is verified in an isolated arena/solver, so its resource
/// consumption is independent of its siblings). The deadline is the one
/// inherently nondeterministic axis; it exists to bound hangs, not to
/// produce reproducible verdicts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds per method.
    pub deadline_ms: Option<u64>,
    /// Solver fuel units the solver may spend per method: one unit
    /// per CDCL conflict and per propagated literal.
    pub solver_fuel: Option<u64>,
    /// Symbolic-execution states explored per method.
    pub max_states: Option<u64>,
    /// Terms interned per method.
    pub max_terms: Option<u64>,
}

impl Budget {
    /// The unlimited budget (every axis `None`) — the default.
    pub const UNLIMITED: Budget = Budget {
        deadline_ms: None,
        solver_fuel: None,
        max_states: None,
        max_terms: None,
    };

    /// Returns the unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::UNLIMITED
    }

    /// Sets the per-method wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Budget {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the per-method solver fuel (conflicts + propagations).
    pub fn with_solver_fuel(mut self, fuel: u64) -> Budget {
        self.solver_fuel = Some(fuel);
        self
    }

    /// Sets the per-method symbolic-execution state cap.
    pub fn with_max_states(mut self, states: u64) -> Budget {
        self.max_states = Some(states);
        self
    }

    /// Sets the per-method interned-term cap.
    pub fn with_max_terms(mut self, terms: u64) -> Budget {
        self.max_terms = Some(terms);
        self
    }

    /// The configured limit for one axis (`None` = unlimited) —
    /// uniform access for budget-consumption gauges.
    pub fn limit(&self, axis: BudgetAxis) -> Option<u64> {
        match axis {
            BudgetAxis::Deadline => self.deadline_ms,
            BudgetAxis::SolverFuel => self.solver_fuel,
            BudgetAxis::States => self.max_states,
            BudgetAxis::Terms => self.max_terms,
        }
    }

    /// True when no axis is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none()
            && self.solver_fuel.is_none()
            && self.max_states.is_none()
            && self.max_terms.is_none()
    }

    /// The budget with every finite axis doubled (the
    /// retry-once-with-escalated-budget policy). Zero-valued axes are
    /// first raised to 1 so escalation always grants strictly more
    /// room.
    pub fn escalated(&self) -> Budget {
        fn double(v: Option<u64>) -> Option<u64> {
            v.map(|v| v.max(1).saturating_mul(2))
        }
        Budget {
            deadline_ms: double(self.deadline_ms),
            solver_fuel: double(self.solver_fuel),
            max_states: double(self.max_states),
            max_terms: double(self.max_terms),
        }
    }
}

/// A deterministic fault to inject while verifying one method.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Degrade every solver answer after the method's first `n` queries
    /// to `Answer::Unknown` (bypassing the caches, so no wrong entry is
    /// ever memoized).
    SolverUnknownAfter(usize),
    /// Report the given budget axis as exhausted at the first
    /// cooperative check, regardless of the configured [`Budget`].
    ExhaustBudget(BudgetAxis),
    /// Panic when the method executes its `n`-th symbolic state
    /// (1-based), simulating an internal verifier error. The panic is
    /// contained by the per-method isolation in `verify_all` and
    /// surfaces as `Verdict::CrashedInternal`.
    PanicAtState(usize),
}

/// A [`FaultKind`] aimed at one method by name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// The method the fault applies to.
    pub method: String,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan: which faults to inject into
/// which methods. The empty plan (the default) injects nothing.
///
/// Faults fire at fixed, repeatable points — query counts and state
/// counts of the targeted method's own isolated run — so the same plan
/// produces byte-identical verdicts at any thread count.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault aimed at `method`, chainably.
    #[must_use]
    pub fn inject(mut self, method: &str, kind: FaultKind) -> FaultPlan {
        self.push(method, kind);
        self
    }

    /// Adds a fault aimed at `method`.
    pub fn push(&mut self, method: &str, kind: FaultKind) {
        self.faults.push(Fault {
            method: method.to_string(),
            kind,
        });
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults aimed at `method`, in plan order.
    pub fn for_method<'p>(&'p self, method: &'p str) -> impl Iterator<Item = FaultKind> + 'p {
        self.faults
            .iter()
            .filter(move |f| f.method == method)
            .map(|f| f.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        assert!(Budget::default().is_unlimited());
        assert_eq!(Budget::default(), Budget::UNLIMITED);
    }

    #[test]
    fn escalation_doubles_and_never_stalls_at_zero() {
        let b = Budget::unlimited().with_solver_fuel(0).with_max_states(7);
        let e = b.escalated();
        assert_eq!(e.solver_fuel, Some(2));
        assert_eq!(e.max_states, Some(14));
        assert_eq!(e.deadline_ms, None);
        assert!(Budget::unlimited().escalated().is_unlimited());
    }

    #[test]
    fn fault_plans_filter_by_method() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_empty());
        plan.push("a", FaultKind::PanicAtState(3));
        plan.push("b", FaultKind::SolverUnknownAfter(0));
        plan.push("a", FaultKind::ExhaustBudget(BudgetAxis::Terms));
        let for_a: Vec<_> = plan.for_method("a").collect();
        assert_eq!(
            for_a,
            vec![
                FaultKind::PanicAtState(3),
                FaultKind::ExhaustBudget(BudgetAxis::Terms)
            ]
        );
        assert_eq!(plan.for_method("c").count(), 0);
    }
}
