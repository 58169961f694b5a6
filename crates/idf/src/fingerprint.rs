//! Semantic fingerprints for incremental verification.
//!
//! A method's verdict is a pure function of (a) its own text — body and
//! contract, (b) the *contracts* of the methods it calls directly
//! (calls are verified against specs, never inlined, so callee bodies
//! are irrelevant), (c) the program's field declarations, and (d) the
//! answer-affecting [`VerifierConfig`]
//! knobs: backend, budget, the faults aimed at the method,
//! `retry_unknown`, and `deny_unstable`. The [`Fingerprint`] hashes
//! exactly those inputs, so a stored verdict may be reused iff the
//! fingerprint matches: editing one method's body invalidates that
//! method; editing a *spec* additionally invalidates the direct
//! callers; performance-only knobs (`threads`, tracing, `cache_dir`
//! itself) are deliberately excluded.

use crate::ast::{Method, Program, Stmt};
use crate::diag::splitmix64;
use crate::exec::{Backend, VerifierConfig};
use std::fmt;

/// A 128-bit semantic fingerprint (two independently seeded 64-bit
/// FNV-1a/splitmix rolling hashes, so an accidental collision must
/// defeat both streams at once).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint {
    /// First hash stream.
    pub hi: u64,
    /// Second (differently seeded) hash stream.
    pub lo: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SEED_HI: u64 = 0xcbf2_9ce4_8422_2325;
const SEED_LO: u64 = 0x6c62_272e_07bb_0142;

struct Hasher {
    hi: u64,
    lo: u64,
}

impl Hasher {
    fn new() -> Hasher {
        Hasher {
            hi: SEED_HI,
            lo: SEED_LO,
        }
    }

    fn write(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
        }
        // A field separator that no text byte can produce, so
        // ("ab", "c") and ("a", "bc") hash differently.
        self.hi = self.hi.wrapping_mul(FNV_PRIME) ^ 0xff;
        self.lo = self.lo.wrapping_mul(FNV_PRIME) ^ 0xfe;
    }

    fn finish(self) -> Fingerprint {
        Fingerprint {
            hi: splitmix64(self.hi),
            lo: splitmix64(self.lo ^ 0x9e37_79b9),
        }
    }
}

/// The names of the methods `method`'s body calls directly, sorted and
/// deduplicated (the call graph edge set that makes caller verdicts
/// spec-dependent).
pub fn direct_callees(method: &Method) -> Vec<String> {
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Call(_, callee, _) => out.push(callee.clone()),
                Stmt::If(_, t, e) => {
                    walk(t, out);
                    walk(e, out);
                }
                Stmt::While(_, _, body) => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    if let Some(body) = &method.body {
        walk(body, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The canonical, *normalized* interface of a method: its signature and
/// contract pretty-printed from the AST with the body dropped. Parsing
/// already discards whitespace and comments, so two spec texts that
/// differ only in formatting normalize to the same string — callers are
/// invalidated by what a spec *means*, never by how it was typed.
pub fn normalized_interface(method: &Method) -> String {
    crate::pretty::Interface(method).to_string()
}

/// Fingerprint of a method's [`normalized_interface`] alone — the value
/// the dependency graph ([`crate::depgraph`]) persists per node so a
/// later run can tell *which* specs changed (and dirty their transitive
/// callers) without rehashing caller bodies.
pub fn interface_fingerprint(method: &Method) -> Fingerprint {
    let mut h = Hasher::new();
    h.write("interface");
    h.write(&normalized_interface(method));
    h.finish()
}

/// The canonical text of the configuration knobs that can change
/// `method`'s verdict. Cost-only knobs (`threads`, tracing,
/// `cache_dir`) are excluded: they are property-tested to be
/// answer-transparent, so a verdict cached under one setting is valid
/// under any other.
///
/// The `simplify=true;learn=true` bytes are fixed: canonicalization
/// and clause learning always run, and the bytes keep fingerprints
/// (and so verdict stores) written by earlier builds valid.
pub fn config_text(backend: Backend, config: &VerifierConfig, method: &str) -> String {
    let faults: Vec<String> = config
        .faults
        .for_method(method)
        .map(|k| format!("{:?}", k))
        .collect();
    format!(
        "backend={:?};budget={:?};faults={:?};retry_unknown={};simplify=true;learn=true;deny_unstable={}",
        backend,
        config.budget,
        faults,
        config.retry_unknown,
        config.deny_unstable
    )
}

/// Fingerprint of the whole answer-affecting configuration for a run
/// (every knob in [`config_text`], with the full fault plan instead of
/// one method's slice). Two daemon tenants whose configs agree here can
/// share one verdict-store read side; two that disagree must not
/// thrash each other's entries.
pub fn config_fingerprint(backend: Backend, config: &VerifierConfig) -> Fingerprint {
    let mut h = Hasher::new();
    h.write("config");
    h.write(&config_text(backend, config, ""));
    h.write("faults");
    h.write(&format!("{:?}", config.faults));
    h.finish()
}

/// Computes `method`'s semantic fingerprint within `program`.
///
/// A callee with no declaration in `program` is hashed by name with an
/// explicit "missing" marker, so *adding* the declaration later changes
/// the fingerprint.
pub fn method_fingerprint(
    program: &Program,
    method: &Method,
    backend: Backend,
    config: &VerifierConfig,
) -> Fingerprint {
    let mut h = Hasher::new();
    h.write("method");
    h.write(&method.to_string());
    h.write("fields");
    for (name, ty) in &program.fields {
        h.write(&format!("{}:{}", name, ty));
    }
    h.write("callees");
    for callee in direct_callees(method) {
        match program.method(&callee) {
            Some(m) => {
                // The callee's *normalized interface*: its signature
                // and contract pretty-printed from the AST, never its
                // body (calls are verified against specs) and never the
                // raw source text (formatting-only spec edits must not
                // invalidate callers).
                h.write(&normalized_interface(m));
            }
            None => h.write(&format!("missing:{}", callee)),
        }
    }
    h.write("config");
    h.write(&config_text(backend, config, &method.name));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SRC: &str = "field val: Int
         method get(c: Ref) returns (r: Int)
           requires acc(c.val, 1/2)
           ensures acc(c.val, 1/2) && r == c.val
         { r := c.val }
         method double(c: Ref) returns (r: Int)
           requires acc(c.val, 1/2)
           ensures acc(c.val, 1/2)
         { var t: Int := 0; call t := get(c); r := t + t }
         method free(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= 0
         { r := n }";

    fn fp(src: &str, name: &str, config: &VerifierConfig) -> Fingerprint {
        let p = parse_program(src).unwrap();
        let m = p.method(name).unwrap();
        method_fingerprint(&p, m, Backend::Destabilized, config)
    }

    /// Exact values for [`SRC`] under the default config. A change here
    /// re-verifies every method of every warm store on upgrade, so it
    /// must be deliberate, never a side effect of a refactor.
    #[test]
    fn fingerprint_values_are_pinned() {
        let p = parse_program(SRC).unwrap();
        let cfg = VerifierConfig::default();
        let pins = [
            (
                "get",
                "6030714bf5051cf23091c95ee72fe50e",
                "92051454dfc0d6474978981ce9315447",
            ),
            (
                "double",
                "757395ea27873de13c70cb42d8febd64",
                "0fe548369b0f3b31ab27e60b0947ccbe",
            ),
            (
                "free",
                "acfd488449f27a25ea1550bbbeedd2ba",
                "27c7f89e1be2afa1a87cbeccd5e2fd44",
            ),
        ];
        for (name, method, interface) in pins {
            let m = p.method(name).unwrap();
            assert_eq!(
                method_fingerprint(&p, m, Backend::Destabilized, &cfg).to_string(),
                method,
                "method fingerprint of {}",
                name
            );
            assert_eq!(
                interface_fingerprint(m).to_string(),
                interface,
                "interface fingerprint of {}",
                name
            );
        }
        assert_eq!(
            config_fingerprint(Backend::Destabilized, &cfg).to_string(),
            "bf3591d5f4bad8fd2d4a88a722d4fe8f"
        );
        assert_eq!(
            config_fingerprint(Backend::StableBaseline, &cfg).to_string(),
            "3eb5442550287432e7c2f0366888a183"
        );
    }

    #[test]
    fn callee_extraction_is_sorted_and_deduped() {
        let p = parse_program(SRC).unwrap();
        assert_eq!(
            direct_callees(p.method("double").unwrap()),
            vec!["get".to_string()]
        );
        assert!(direct_callees(p.method("get").unwrap()).is_empty());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let cfg = VerifierConfig::default();
        let a = fp(SRC, "double", &cfg);
        assert_eq!(a, fp(SRC, "double", &cfg), "same inputs, same fingerprint");
        assert_ne!(a, fp(SRC, "get", &cfg), "different methods differ");
        assert_eq!(a.to_string().len(), 32);
        assert_eq!(Fingerprint::parse(&a.to_string()), Some(a));
        assert_eq!(Fingerprint::parse("zz"), None);
    }

    #[test]
    fn body_edit_invalidates_only_that_method() {
        let cfg = VerifierConfig::default();
        let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
        assert_ne!(fp(SRC, "free", &cfg), fp(&edited, "free", &cfg));
        assert_eq!(fp(SRC, "get", &cfg), fp(&edited, "get", &cfg));
        assert_eq!(fp(SRC, "double", &cfg), fp(&edited, "double", &cfg));
    }

    #[test]
    fn callee_spec_edit_invalidates_the_caller() {
        let cfg = VerifierConfig::default();
        // Strengthen get's postcondition: double (its caller) must be
        // re-verified; free (unrelated) must not.
        let edited = SRC.replace("r == c.val", "r == c.val && r >= 0");
        assert_ne!(fp(SRC, "get", &cfg), fp(&edited, "get", &cfg));
        assert_ne!(fp(SRC, "double", &cfg), fp(&edited, "double", &cfg));
        assert_eq!(fp(SRC, "free", &cfg), fp(&edited, "free", &cfg));
        // A callee *body* edit does not touch the caller.
        let body_only = SRC.replace("{ r := c.val }", "{ r := c.val + 0 }");
        assert_eq!(fp(SRC, "double", &cfg), fp(&body_only, "double", &cfg));
    }

    #[test]
    fn formatting_only_spec_edits_do_not_invalidate_anyone() {
        let cfg = VerifierConfig::default();
        // Same program with gratuitous whitespace and comments inside
        // the specs: parses to the same AST, so every fingerprint —
        // interface and full — is identical.
        let noisy = SRC
            .replace(
                "requires acc(c.val, 1/2)",
                "requires /* half */ acc( c.val ,\n 1/2 ) // read share",
            )
            .replace("ensures r >= 0", "ensures\n// comment\n   r  >=  0");
        let p = parse_program(SRC).unwrap();
        let q = parse_program(&noisy).unwrap();
        for name in ["get", "double", "free"] {
            assert_eq!(
                normalized_interface(p.method(name).unwrap()),
                normalized_interface(q.method(name).unwrap()),
                "normalized interface of {} ignores formatting",
                name
            );
            assert_eq!(
                interface_fingerprint(p.method(name).unwrap()),
                interface_fingerprint(q.method(name).unwrap()),
            );
            assert_eq!(fp(SRC, name, &cfg), fp(&noisy, name, &cfg));
        }
    }

    #[test]
    fn interface_fingerprint_tracks_specs_not_bodies() {
        let spec_edit = SRC.replace("r == c.val", "r == c.val && r >= 0");
        let body_edit = SRC.replace("{ r := c.val }", "{ r := c.val + 0 }");
        let p = parse_program(SRC).unwrap();
        let s = parse_program(&spec_edit).unwrap();
        let b = parse_program(&body_edit).unwrap();
        assert_ne!(
            interface_fingerprint(p.method("get").unwrap()),
            interface_fingerprint(s.method("get").unwrap()),
            "a contract edit changes the interface fingerprint"
        );
        assert_eq!(
            interface_fingerprint(p.method("get").unwrap()),
            interface_fingerprint(b.method("get").unwrap()),
            "a body edit leaves the interface fingerprint alone"
        );
    }

    #[test]
    fn config_fingerprint_covers_answer_affecting_knobs_only() {
        let base = VerifierConfig::default();
        let a = config_fingerprint(Backend::Destabilized, &base);
        assert_eq!(a, config_fingerprint(Backend::Destabilized, &base));
        assert_ne!(a, config_fingerprint(Backend::StableBaseline, &base));
        assert_ne!(
            a,
            config_fingerprint(
                Backend::Destabilized,
                &VerifierConfig {
                    budget: crate::budget::Budget::unlimited().with_solver_fuel(7),
                    ..base.clone()
                }
            )
        );
        assert_eq!(
            a,
            config_fingerprint(
                Backend::Destabilized,
                &VerifierConfig {
                    threads: 8,
                    ..base.clone()
                }
            ),
            "cost-only knobs do not split the shared store"
        );
    }

    #[test]
    fn answer_affecting_knobs_are_in_the_fingerprint() {
        let base = VerifierConfig::default();
        let a = fp(SRC, "get", &base);
        for cfg in [
            VerifierConfig {
                retry_unknown: false,
                ..base.clone()
            },
            VerifierConfig {
                budget: crate::budget::Budget::unlimited().with_solver_fuel(7),
                ..base.clone()
            },
            VerifierConfig {
                deny_unstable: true,
                ..base.clone()
            },
        ] {
            assert_ne!(a, fp(SRC, "get", &cfg));
        }
        // Cost-only knobs leave it unchanged.
        for cfg in [
            VerifierConfig {
                threads: 8,
                ..base.clone()
            },
            VerifierConfig {
                cache_dir: Some(std::path::PathBuf::from("/tmp/x")),
                ..base.clone()
            },
        ] {
            assert_eq!(a, fp(SRC, "get", &cfg));
        }
    }
}
