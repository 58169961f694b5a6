//! The library-level session API the verification daemon drives.
//!
//! `tables` (the bench CLI) owns a program for one process lifetime;
//! the daemon instead serves many programs from many tenants against
//! one warm process. [`SessionHost`] is that warm core — the base
//! [`VerifierConfig`] and the shared persistent [`VerdictStore`] —
//! and [`Session`] is one client's view of it: a per-session budget
//! envelope layered over the base, a capped recovery parser in front,
//! and every request verified through the host's shared store
//! ([`crate::exec::Verifier::verify_all_verdicts_shared`]) so
//! concurrent sessions reuse each other's definite verdicts without
//! reopening the file.
//!
//! The host is `Sync`: sessions on different threads verify
//! concurrently, serializing only the brief store lookups/appends.

use crate::budget::Budget;
use crate::exec::{Backend, Verdict, Verifier, VerifierConfig, VerifyStats};
use crate::parser::{parse_program_with_recovery_capped, ParseError, DEFAULT_MAX_ERRORS};
use crate::store::VerdictStore;
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;

/// Warm, process-wide verification state shared by every [`Session`].
#[derive(Debug)]
pub struct SessionHost {
    backend: Backend,
    base: VerifierConfig,
    store: Option<Mutex<VerdictStore>>,
    /// Undecodable store lines counted at open (see
    /// [`VerdictStore::corrupt_lines`]) — surfaced in the daemon's
    /// metrics snapshot.
    store_corrupt_lines: usize,
}

impl SessionHost {
    /// Builds a host for `backend` over `base`. When
    /// [`VerifierConfig::cache_dir`] is set, the persistent store is
    /// opened once here and shared (warm) across every session; the
    /// per-request config never reopens it.
    pub fn new(backend: Backend, base: VerifierConfig) -> SessionHost {
        let store = base.cache_dir.as_deref().map(VerdictStore::open);
        let store_corrupt_lines = store.as_ref().map_or(0, VerdictStore::corrupt_lines);
        SessionHost {
            backend,
            base,
            store: store.map(Mutex::new),
            store_corrupt_lines,
        }
    }

    /// The backend every session verifies under.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The warm shared store, when the host persists verdicts.
    pub fn store(&self) -> Option<&Mutex<VerdictStore>> {
        self.store.as_ref()
    }

    /// Undecodable lines skipped when the store was opened (0 without
    /// a store).
    pub fn store_corrupt_lines(&self) -> usize {
        self.store_corrupt_lines
    }

    /// Entries currently in the warm store (0 without a store).
    pub fn store_len(&self) -> usize {
        self.store.as_ref().map_or(0, |m| lock(m).len())
    }

    /// Compacts the store to disk — the graceful-shutdown flush. A
    /// no-op without a store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from [`VerdictStore::save`].
    pub fn flush_store(&self) -> io::Result<()> {
        match &self.store {
            None => Ok(()),
            Some(m) => lock(m).save(),
        }
    }

    /// A session inheriting the host's base budget.
    pub fn session(&self) -> Session<'_> {
        Session {
            host: self,
            budget: self.base.budget,
        }
    }

    /// A session under an explicit budget envelope (the tenant's).
    pub fn session_with_budget(&self, budget: Budget) -> Session<'_> {
        Session { host: self, budget }
    }
}

/// One client's verification context over a [`SessionHost`].
#[derive(Debug)]
pub struct Session<'h> {
    host: &'h SessionHost,
    budget: Budget,
}

/// One verification request's knobs, beyond the program source.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// The IDF program to verify.
    pub source: String,
    /// Overrides the session budget for this request (intersected by
    /// the daemon's admission layer before it gets here).
    pub budget: Option<Budget>,
    /// Diagnostic cap for recovery parsing (see
    /// [`parse_program_with_recovery_capped`]).
    pub max_errors: usize,
    /// Overrides the host's trace handle for this request — the
    /// daemon passes a context-stamped derivation
    /// ([`daenerys_obs::TraceHandle::with_context`]) so every event
    /// carries tenant/session/request attribution.
    pub trace: Option<daenerys_obs::TraceHandle>,
}

impl VerifyRequest {
    /// A request with the default diagnostic cap and no budget
    /// override.
    pub fn new(source: impl Into<String>) -> VerifyRequest {
        VerifyRequest {
            source: source.into(),
            budget: None,
            max_errors: DEFAULT_MAX_ERRORS,
            trace: None,
        }
    }
}

/// The outcome of one verification request.
#[derive(Clone, PartialEq, Debug)]
pub struct VerifyOutcome {
    /// Per-method verdicts, in method-name order.
    pub verdicts: BTreeMap<String, Verdict>,
    /// Methods actually re-verified (not restored from the warm
    /// store); `None` when the host has no store.
    pub reverified: Option<usize>,
    /// Names of the re-verified methods (the dirty cone), in program
    /// order; `None` when the host has no store. Watch-mode front ends
    /// print exactly this set.
    pub reverified_methods: Option<Vec<String>>,
    /// Methods served straight from the warm store (see
    /// [`crate::exec::Verifier::store_hits`]); `None` without a store.
    pub store_hits: Option<usize>,
    /// Methods with no matching store entry (see
    /// [`crate::exec::Verifier::store_misses`]); `None` without a
    /// store.
    pub store_misses: Option<usize>,
    /// Matching entries discarded because a transitive callee's spec
    /// changed (see [`crate::exec::Verifier::store_dirty_transitive`]);
    /// `None` without a store.
    pub store_dirty_transitive: Option<usize>,
    /// Request-wide aggregate of the per-method statistics (only
    /// [`Verdict::Verified`] carries stats, so failed/unknown methods
    /// contribute nothing) — the daemon's telemetry plane attributes
    /// fuel/cache/solver rates per tenant from this without reaching
    /// into individual verdicts.
    pub stats: VerifyStats,
}

/// Why a request produced no verdicts at all.
#[derive(Clone, PartialEq, Debug)]
pub enum SessionError {
    /// The source did not parse; every diagnostic collected (capped at
    /// the request's `max_errors` plus a sentinel).
    Parse(Vec<ParseError>),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(errs) => {
                write!(f, "{} parse error(s); first: {}", errs.len(), errs[0])
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl Session<'_> {
    /// Verifies `source` with the session's budget and default knobs.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] when the source does not parse.
    pub fn verify_source(&self, source: &str) -> Result<VerifyOutcome, SessionError> {
        self.verify(&VerifyRequest::new(source))
    }

    /// Verifies one request: capped recovery parse, then every method
    /// through the host's warm store. Per-method faults degrade that
    /// method's verdict (the `Verifier`'s isolation), never the
    /// session.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] when the source does not parse.
    pub fn verify(&self, req: &VerifyRequest) -> Result<VerifyOutcome, SessionError> {
        let program = parse_program_with_recovery_capped(&req.source, req.max_errors)
            .map_err(SessionError::Parse)?;
        Ok(self.verify_program_with(&program, req.budget, req.trace.clone()))
    }

    /// Verifies an already-parsed program with the session's budget and
    /// default knobs — the parse-free entry point for clients that own
    /// the front end (the `daenerys` CLI re-rendering parse diagnostics
    /// itself, the bench harness keeping parsing out of timed regions).
    ///
    /// Every method still flows through the host's warm store, so
    /// incremental counts ([`VerifyOutcome::reverified`] and friends)
    /// behave exactly as for [`Session::verify`].
    pub fn verify_program(&self, program: &crate::ast::Program) -> VerifyOutcome {
        self.verify_program_with(program, None, None)
    }

    /// [`Session::verify_program`] with an explicit budget override
    /// and/or a request-scoped trace handle (see
    /// [`VerifyRequest::budget`] and [`VerifyRequest::trace`]).
    pub fn verify_program_with(
        &self,
        program: &crate::ast::Program,
        budget: Option<Budget>,
        trace: Option<daenerys_obs::TraceHandle>,
    ) -> VerifyOutcome {
        let config = VerifierConfig {
            budget: budget.unwrap_or(self.budget),
            // The host's store is reached via the shared path below;
            // a per-request open would race the warm copy.
            cache_dir: None,
            trace: trace.unwrap_or_else(|| self.host.base.trace.clone()),
            ..self.host.base.clone()
        };
        let mut verifier = Verifier::with_config(program, self.host.backend, config);
        let verdicts = match self.host.store() {
            Some(store) => verifier.verify_all_verdicts_shared(store),
            None => verifier.verify_all_verdicts(),
        };
        let mut stats = VerifyStats::default();
        for v in verdicts.values() {
            if let Verdict::Verified(s) = v {
                stats.merge(s);
            }
        }
        VerifyOutcome {
            verdicts,
            reverified: verifier.methods_reverified(),
            reverified_methods: verifier.reverified_methods().map(<[String]>::to_vec),
            store_hits: verifier.store_hits(),
            store_misses: verifier.store_misses(),
            store_dirty_transitive: verifier.store_dirty_transitive(),
            stats,
        }
    }
}

fn lock(m: &Mutex<VerdictStore>) -> std::sync::MutexGuard<'_, VerdictStore> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("daenerys-session-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn storeless_host_verifies() {
        let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let out = host.session().verify_source(GOOD).unwrap();
        assert_eq!(out.verdicts.len(), 1);
        assert!(out.verdicts["set"].is_verified());
        assert_eq!(out.reverified, None);
        assert!(
            out.stats.obligations > 0,
            "the aggregate carries the verified method's stats"
        );
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let err = host.session().verify_source("method oops {").unwrap_err();
        let SessionError::Parse(errs) = err;
        assert!(!errs.is_empty());
    }

    #[test]
    fn warm_store_is_shared_across_sessions() {
        let dir = temp_dir("warm");
        let config = VerifierConfig {
            cache_dir: Some(dir.clone()),
            ..VerifierConfig::default()
        };
        let host = SessionHost::new(Backend::Destabilized, config);
        let first = host.session().verify_source(GOOD).unwrap();
        assert_eq!(first.reverified, Some(1), "cold store: everything runs");
        let second = host.session().verify_source(GOOD).unwrap();
        assert_eq!(
            second.reverified,
            Some(0),
            "warm store: the sibling session restores the verdict"
        );
        assert_eq!(first.store_misses, Some(1), "cold run misses everything");
        assert_eq!(second.store_hits, Some(1), "warm run is served from store");
        assert_eq!(second.store_misses, Some(0));
        assert_eq!(second.store_dirty_transitive, Some(0), "nothing was edited");
        assert_eq!(
            first.verdicts["set"].normalized(),
            second.verdicts["set"].normalized(),
            "restored verdicts match modulo environment-dependent stats"
        );
        assert_eq!(host.store_len(), 1);

        // The appends were durable: a fresh host restores without any
        // flush having happened.
        drop(host);
        let host2 = SessionHost::new(
            Backend::Destabilized,
            VerifierConfig {
                cache_dir: Some(dir.clone()),
                ..VerifierConfig::default()
            },
        );
        assert_eq!(host2.store_corrupt_lines(), 0);
        let third = host2.session().verify_source(GOOD).unwrap();
        assert_eq!(third.reverified, Some(0));
        host2.flush_store().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
