//! In-memory spans recorded by the benchmark around its calls into
//! each layer.
//!
//! A span has a name (`layer` or `layer.operation`), a start and end
//! on one shared clock, a parent, and the id of the unit it belongs
//! to. The root span of a unit is named [`UNIT`]; its self time — the
//! part of the unit that no layer span covers — is the unit's
//! unattributed time. Self times therefore add up to the unit's wall
//! time exactly, in integer nanoseconds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The root span name of one unit.
pub const UNIT: &str = "unit";

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer` or `layer.operation`.
    pub name: &'static str,
    /// The unit this span belongs to.
    pub unit: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Spans nest by call order: a span
/// opened while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (threads of one run
    /// share it so their spans merge on one time line).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, unit: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, unit);
        let out = f();
        self.close(id);
        out
    }

    /// Moves `other`'s spans into this tracer (unit ids are kept;
    /// parent links are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| {
                s.dur_ns()
                    .checked_sub(c)
                    .expect("children fit their parent")
            })
            .collect()
    }

    /// Checks the span tree: every child lies inside its parent and
    /// belongs to the parent's unit, siblings do not overlap, and every
    /// unit has exactly one root named [`UNIT`].
    ///
    /// # Errors
    ///
    /// The first violation, described.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_child_end: BTreeMap<usize, u64> = BTreeMap::new();
        let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                None => {
                    if s.name != UNIT {
                        return Err(format!("root span {} is not a unit", s.name));
                    }
                    *roots.entry(s.unit).or_default() += 1;
                }
                Some(p) => {
                    let ps = &self.spans[p];
                    if ps.unit != s.unit || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                        return Err(format!("span {} ({}) escapes its parent {}", i, s.name, p));
                    }
                    let prev = last_child_end.insert(p, s.end_ns).unwrap_or(0);
                    if s.start_ns < prev {
                        return Err(format!("span {} ({}) overlaps a sibling", i, s.name));
                    }
                }
            }
        }
        match roots.iter().find(|(_, &n)| n != 1) {
            Some((u, n)) => Err(format!("unit {} has {} root spans", u, n)),
            None => Ok(()),
        }
    }

    /// Per-unit wall time (the root span) and per-layer self time, ns.
    /// The root's own self time is reported under the layer
    /// [`UNIT`] — the unattributed remainder.
    pub fn by_unit(&self) -> BTreeMap<u64, UnitTimes> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<u64, UnitTimes> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let u = out.entry(s.unit).or_default();
            if s.parent.is_none() {
                u.wall_ns += s.dur_ns();
            }
            *u.self_ns.entry(s.layer()).or_default() += self_ns;
            *u.span_ns.entry(s.name).or_default() += s.dur_ns();
        }
        out
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"unit\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i, s.name, s.unit, parent, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// One unit's times, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct UnitTimes {
    /// Wall time of the unit's root span.
    pub wall_ns: u64,
    /// Self time per layer; [`UNIT`] holds the unattributed remainder.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per span name.
    pub span_ns: BTreeMap<&'static str, u64>,
}

impl UnitTimes {
    /// Sum of every layer's self time plus the unattributed remainder.
    pub fn reconciled_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_reconcile_with_wall() {
        let mut t = Tracer::new(Instant::now());
        for unit in 0..3 {
            let root = t.open(UNIT, unit);
            t.time("parser", unit, || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
            let s = t.open("store", unit);
            t.time("store.lookup", unit, || ());
            t.close(s);
            t.close(root);
        }
        t.validate().unwrap();
        let units = t.by_unit();
        assert_eq!(units.len(), 3);
        for u in units.values() {
            assert_eq!(u.reconciled_ns(), u.wall_ns);
            assert!(u.self_ns.contains_key(UNIT));
        }
    }

    #[test]
    fn validate_rejects_a_stray_root() {
        let mut t = Tracer::new(Instant::now());
        t.time("parser", 0, || ());
        assert!(t.validate().is_err());
    }
}
