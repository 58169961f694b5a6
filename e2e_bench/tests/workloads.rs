//! The benchmark's own tests: every workload runs end to end at a tiny
//! size with no failed unit, traced layers reconcile with the unit
//! wall time, work counts repeat across runs of one seed, and each
//! oracle rejects a planted wrong verdict.

use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_e2e_bench::daemon_repeat::{check_response, projects};
use daenerys_e2e_bench::edit_replay::{self, Units};
use daenerys_e2e_bench::f1_cold::{check_verdicts, pool};
use daenerys_e2e_bench::pipeline::{Counts, UnitResult, VerdictKey};
use daenerys_e2e_bench::report::Report;
use daenerys_e2e_bench::{run, Options, Size, END_TO_END, PER_LAYER, WORKLOADS};
use daenerysd::{Response, WireVerdict};
use std::path::PathBuf;

fn opts(workload: &str, seed: u64, trace: bool) -> Options {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("e2e-bench-tests")
        .join(format!("{}-{}-{}", workload, seed, trace));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).unwrap();
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        work_dir,
    }
}

fn assert_clean(r: &Report) {
    assert!(r.attempted > 0, "{}: no unit ran", r.workload);
    assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.problems);
    assert!(r.correct(), "{}: {:?}", r.workload, r.problems);
}

#[test]
fn every_workload_runs_clean_untraced() {
    for w in WORKLOADS {
        let r = run(&opts(w, 3, false));
        assert_clean(&r);
        assert_eq!(r.get("failed_ratio"), Some(0.0));
        for name in END_TO_END {
            let v = r
                .get(name)
                .unwrap_or_else(|| panic!("{}: {} missing", w, name));
            assert!(v > 0.0, "{}: {} = {}", w, name, v);
        }
    }
}

/// The layer figures of a traced run, as per-unit means, add up to the
/// traced unit wall time.
fn assert_reconciles(r: &Report) {
    let sum: f64 = [
        "parser.ms",
        "wf.ms",
        "fingerprint.ms",
        "depgraph.ms",
        "store.ms",
        "exec.ms",
    ]
    .iter()
    .map(|n| r.get(n).unwrap())
    .sum::<f64>();
    let wall = r.get("trace.wall_ms").unwrap();
    let (got, unattributed) = if r.workload == "daemon-repeat" {
        // Requests: the server span is the mirror's verify time plus
        // the wait; the mirror's layers add up to the verify time.
        let verify = r.get("server.verify_ms").unwrap();
        let sum = sum + r.get("server.unattributed_ms").unwrap();
        assert!(
            (sum - verify).abs() <= 1e-6 * verify.max(1.0),
            "mirror layers {} vs verify {}",
            sum,
            verify
        );
        let wire = r.get("client.connect_us").unwrap() / 1e3
            + r.get("protocol.encode_us").unwrap() / 1e3
            + r.get("protocol.decode_us").unwrap() / 1e3
            + verify
            + r.get("server.wait_ms").unwrap();
        (wire, r.get("unattributed_ms").unwrap())
    } else {
        (sum, r.get("unattributed_ms").unwrap())
    };
    assert!(unattributed >= 0.0);
    let total = got + unattributed;
    assert!(
        (total - wall).abs() <= 1e-6 * wall.max(1.0),
        "{}: layers {} + unattributed {} != wall {}",
        r.workload,
        got,
        unattributed,
        wall
    );
}

#[test]
fn traced_runs_reconcile_and_counts_repeat() {
    const COUNTS: &[&str] = &[
        "depgraph.cone_methods",
        "store.lookups",
        "store.appends",
        "store.hit_ratio",
        "exec.methods",
        "exec.obligations",
        "smt.queries",
        "smt.decisions",
        "smt.conflicts",
        "smt.propagations",
        "server.sessions_per_request",
    ];
    for w in WORKLOADS {
        let a = run(&opts(w, 5, true));
        assert_clean(&a);
        for name in PER_LAYER {
            assert!(a.get(name).is_some(), "{}: {} missing", w, name);
        }
        assert_reconciles(&a);
        assert!(a.get("trace.overhead_ratio").unwrap() > 0.0);
        let b = run(&opts(w, 5, true));
        assert_clean(&b);
        for name in COUNTS {
            assert_eq!(a.get(name), b.get(name), "{}: {} does not repeat", w, name);
        }
    }
    let er = run(&opts("edit-replay", 6, true));
    assert_eq!(er.get("depgraph.cone_precision"), Some(1.0));
    assert!(er.get("wf.scale_ratio").unwrap() > 0.0);
}

fn verified(names: &[String]) -> UnitResult {
    UnitResult {
        verdicts: names
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    VerdictKey {
                        kind: "verified",
                        failures: 0,
                        stats: None,
                    },
                )
            })
            .collect(),
        reverified: names.to_vec(),
        counts: Counts::default(),
    }
}

#[test]
fn oracles_catch_planted_wrong_verdicts() {
    // f1-cold: a negative case reported as verified.
    let negative = pool(Size::Tiny)
        .into_iter()
        .find(|p| !p.should_verify)
        .unwrap();
    assert!(check_verdicts(&negative, &verified(&negative.methods)).is_err());
    let positive = pool(Size::Tiny)
        .into_iter()
        .find(|p| p.should_verify)
        .unwrap();
    assert!(check_verdicts(&positive, &verified(&positive.methods)).is_ok());

    // edit-replay: a cone one method short of the ground truth.
    let corpus = Corpus::generate(CorpusSpec {
        methods: 80,
        ..CorpusSpec::default()
    });
    let base = edit_replay::render(&corpus, None);
    assert_eq!(base, corpus.source(None));
    let mut units = Units::new(&corpus, base, 1);
    let unit = (0..32)
        .map(|_| units.next_unit())
        .find(|u| u.kind == "spec" && u.expected.len() > 1)
        .expect("the stream holds a spec edit with callers");
    let mut planted = verified(&unit.expected);
    planted.reverified.pop();
    assert!(edit_replay::check(&unit, &Ok(planted)).is_err());
    assert!(edit_replay::check(&unit, &Ok(verified(&unit.expected))).is_ok());

    // daemon-repeat: a wire verdict flipped to verified.
    let p = projects(0, Size::Tiny)
        .into_iter()
        .find(|p| !p.should_verify)
        .unwrap_or_else(|| negative.clone());
    let all_verified = Response::Ok {
        id: 1,
        verdicts: p
            .methods
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    WireVerdict {
                        kind: "verified".into(),
                        detail: String::new(),
                    },
                )
            })
            .collect(),
        reverified: Some(0),
    };
    assert!(check_response(&p, &all_verified).is_err());
    let refused = Response::Refused {
        id: 1,
        detail: "busy".into(),
    };
    assert!(check_response(&p, &refused).is_err());
}

#[test]
fn the_generators_cone_matches_the_corpus_ground_truth() {
    let corpus = Corpus::generate(CorpusSpec {
        methods: 150,
        seed: 9,
        ..CorpusSpec::default()
    });
    let mut callers = vec![Vec::new(); corpus.len()];
    for i in 0..corpus.len() {
        for &j in corpus.callees(i) {
            callers[j].push(i);
        }
    }
    for t in [0, 17, 75, 149] {
        assert_eq!(edit_replay::cone(&callers, t), corpus.reverse_reachable(t));
    }
}
