//! Integration tests for incremental verification (`cache_dir`): the
//! persistent verdict store must skip exactly the methods whose
//! semantic fingerprint is unchanged, reproduce their verdicts
//! bit-identically, and never persist an indefinite outcome.

use daenerys_idf::{
    diverging_program, parse_program, Backend, Budget, Program, Verdict, VerdictStore, Verifier,
    VerifierConfig,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daenerys-ivc-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> VerifierConfig {
    VerifierConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    }
}

/// Runs one incremental pass; returns (normalized verdicts, reverified).
fn run(program: &Program, cfg: &VerifierConfig) -> (BTreeMap<String, Verdict>, usize) {
    let mut v = Verifier::with_config(program, Backend::Destabilized, cfg.clone());
    let verdicts = v
        .verify_all_verdicts()
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    let reverified = v
        .methods_reverified()
        .expect("incremental runs report a reverified count");
    (verdicts, reverified)
}

#[test]
fn second_run_reverifies_nothing_bit_identically() {
    let dir = temp_dir("warm");
    let program = parse_program(SRC).unwrap();
    let cfg = config(&dir);
    let (first, reverified_1) = run(&program, &cfg);
    assert_eq!(reverified_1, 3, "cold store re-verifies everything");
    assert!(first.values().all(Verdict::is_verified));
    let (second, reverified_2) = run(&program, &cfg);
    assert_eq!(reverified_2, 0, "warm store re-verifies nothing");
    assert_eq!(first, second, "restored verdicts are bit-identical");
    // Thread count must not perturb the restored run either.
    for threads in [2usize, 8] {
        let cfg_n = VerifierConfig {
            threads,
            ..cfg.clone()
        };
        let (again, reverified_n) = run(&program, &cfg_n);
        assert_eq!(reverified_n, 0);
        assert_eq!(first, again);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn body_edit_invalidates_exactly_that_method() {
    let dir = temp_dir("body-edit");
    let cfg = config(&dir);
    let (_, cold) = run(&parse_program(SRC).unwrap(), &cfg);
    assert_eq!(cold, 3);
    // A body-only edit of a leaf method: only that method re-verifies.
    let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
    let (verdicts, warm) = run(&parse_program(&edited).unwrap(), &cfg);
    assert_eq!(warm, 1, "only the edited method re-verifies");
    assert!(verdicts.values().all(Verdict::is_verified));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_edit_invalidates_the_method_and_its_callers() {
    let dir = temp_dir("spec-edit");
    let cfg = config(&dir);
    let (_, cold) = run(&parse_program(SRC).unwrap(), &cfg);
    assert_eq!(cold, 3);
    // Strengthening get's postcondition invalidates get AND double
    // (its direct caller), but not the unrelated free.
    let edited = SRC.replace("r == c.val", "r == c.val && r >= old(c.val)");
    let (_, warm) = run(&parse_program(&edited).unwrap(), &cfg);
    assert_eq!(warm, 2, "the edited method plus its caller re-verify");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_verdicts_are_restored_with_full_diagnostics() {
    let dir = temp_dir("failed");
    let cfg = config(&dir);
    let bad = "field val: Int
         method broken(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 2 }";
    let program = parse_program(bad).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 1);
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "a definite Failed verdict is restorable");
    assert_eq!(first, second);
    match &second["broken"] {
        Verdict::Failed { failures, report } => {
            assert!(!failures.is_empty());
            assert_eq!(report.method, "broken");
            assert!(!report.first_failure.is_empty());
        }
        other => panic!("expected Failed, got {:?}", other),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_verdicts_are_never_persisted() {
    let dir = temp_dir("unknown");
    let cfg = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(64),
        retry_unknown: false,
        ..config(&dir)
    };
    let program = parse_program(&diverging_program(10)).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    let unknowns = first
        .values()
        .filter(|v| matches!(v, Verdict::Unknown { .. }))
        .count();
    assert_eq!(unknowns, 1, "the diverging method exhausts its fuel");
    let (second, warm) = run(&program, &cfg);
    assert_eq!(
        warm, 1,
        "the Unknown method re-verifies; its definite siblings restore"
    );
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_costs_reverification_not_correctness() {
    // Stomp every DAES1 shard file with garbage.
    let dir = temp_dir("corrupt");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, _) = run(&program, &cfg);
    for i in 0..VerdictStore::SHARD_COUNT {
        let path = dir.join(VerdictStore::shard_file_name(i));
        if path.exists() {
            std::fs::write(&path, b"definitely not DAES1").unwrap();
        }
    }
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 3, "a damaged store re-verifies everything");
    assert_eq!(first, second);
    // And the rewritten store is warm again.
    let (_, again) = run(&program, &cfg);
    assert_eq!(again, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_jsonl_store_serves_no_verdict() {
    // A valid legacy `verdicts.jsonl` holding entries under the current
    // keys and fingerprints: were it read, every method would hit.
    let program = parse_program(SRC).unwrap();
    let source_dir = temp_dir("legacy-source");
    let (first, _) = run(&program, &config(&source_dir));
    let legacy = VerdictStore::open(&source_dir).export_jsonl();
    assert_eq!(legacy.lines().count(), 3);

    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let legacy_path = dir.join("verdicts.jsonl");
    std::fs::write(&legacy_path, &legacy).unwrap();
    let cfg = config(&dir);
    let (second, cold) = run(&program, &cfg);
    assert_eq!(cold, 3, "the legacy file serves no verdict");
    assert_eq!(first, second);
    assert_eq!(
        std::fs::read_to_string(&legacy_path).unwrap(),
        legacy,
        "the legacy file is left untouched"
    );
    let (_, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "the second run is warm from the DAES1 shards");
    assert!(
        (0..VerdictStore::SHARD_COUNT).any(|i| dir.join(VerdictStore::shard_file_name(i)).exists())
    );
    let _ = std::fs::remove_dir_all(&source_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_switch_invalidates_the_store() {
    // `deny_unstable` is answer-affecting for the fingerprint: verdicts
    // cached without it must never be replayed for a denying run (and
    // vice versa), even where both agree on every answer.
    let dir = temp_dir("config-switch");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    let denying = VerifierConfig {
        deny_unstable: true,
        ..cfg.clone()
    };
    let (second, switched) = run(&program, &denying);
    assert_eq!(switched, 3, "a config switch re-verifies everything");
    // Every contract here is stable, so the outcomes agree.
    assert!(
        second.values().all(Verdict::is_verified) && first.len() == second.len(),
        "both settings agree on every verdict"
    );
    // Store entries are keyed by the answer-affecting config
    // fingerprint, so the denying pass wrote entries *alongside* the
    // default ones instead of overwriting them: switching back is
    // warm.
    let (_, back) = run(&program, &cfg);
    assert_eq!(back, 0, "per-config entries coexist; no thrashing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_incremental_runs_report_no_reverified_count() {
    let program = parse_program(SRC).unwrap();
    let mut v = Verifier::new(&program, Backend::Destabilized);
    let _ = v.verify_all_verdicts();
    assert_eq!(v.methods_reverified(), None);
}
