//! Integration gates for the edit-replay sweep on generated call DAGs
//! (200 and 1000 methods), sized so they run on every `cargo test`:
//! cold, warm and scripted-edit runs re-verify exactly the generator's
//! ground truth, and warm restores are bit-identical at 1/2/8 threads.

use daenerys_bench::corpus::{Corpus, CorpusSpec, Edit};
use daenerys_idf::{parse_program, Backend, Verdict, VerdictStore, Verifier, VerifierConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "daenerys-store-replay-test-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(src: &str, dir: &Path, threads: usize) -> (BTreeMap<String, Verdict>, usize) {
    let program = parse_program(src).unwrap();
    let config = VerifierConfig {
        threads,
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let mut verifier = Verifier::with_config(&program, Backend::Destabilized, config);
    let verdicts = verifier
        .verify_all_verdicts()
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    (verdicts, verifier.methods_reverified().unwrap())
}

fn snapshot(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

/// Cold → warm → scripted-edit sweep over the corpus `spec` generates,
/// every phase gated against the generator's own ground truth. Returns
/// how many methods the hub-spec edit re-verified.
fn replay_sweep(spec: CorpusSpec) -> usize {
    let corpus = Corpus::generate(spec);
    let base = corpus.source(None);
    let root = temp_dir(&format!("daes1-{}", spec.methods));
    let cold_dir = root.join("cold");

    // Cold: everything verifies, and the store holds every method.
    let (cold, reverified) = run(&base, &cold_dir, 1);
    assert_eq!(reverified, corpus.len());
    assert!(cold.values().all(Verdict::is_verified));
    assert_eq!(VerdictStore::open(&cold_dir).len(), corpus.len());

    // Warm: nothing re-verifies, verdicts restore bit-identically —
    // at one, two, and eight worker threads.
    for threads in [1usize, 2, 8] {
        let dir = root.join(format!("warm-{}", threads));
        snapshot(&cold_dir, &dir);
        let (warm, reverified) = run(&base, &dir, threads);
        assert_eq!(reverified, 0, "warm no-edit run at {} threads", threads);
        assert_eq!(
            warm, cold,
            "restored verdicts differ at {} threads",
            threads
        );
    }

    // Scripted edits re-verify exactly what the generator's ground
    // truth says they must.
    let mut hub = 0;
    for edit in [Edit::TouchLeafBody, Edit::TouchHubSpec, Edit::TouchSpecNoop] {
        let dir = root.join(edit.name());
        snapshot(&cold_dir, &dir);
        let (verdicts, reverified) = run(&corpus.source(Some(edit)), &dir, 2);
        assert_eq!(
            reverified,
            corpus.expected_reverified(edit),
            "edit {:?}",
            edit
        );
        assert!(verdicts.values().all(Verdict::is_verified));
        if edit == Edit::TouchHubSpec {
            hub = reverified;
        }
    }

    let _ = std::fs::remove_dir_all(&root);
    hub
}

#[test]
fn daes1_sweep_replays_edits_against_ground_truth() {
    replay_sweep(CorpusSpec {
        methods: 200,
        depth: 8,
        ..CorpusSpec::default()
    });
}

/// The 1k-method DAG at seed 7: the hub-spec edit's cone is pinned to a
/// literal as well as to the generator's ground truth, so a generator
/// change that moves both shows up here.
#[test]
fn daes1_sweep_pins_the_hub_cone_on_the_1k_corpus() {
    let hub = replay_sweep(CorpusSpec {
        methods: 1000,
        depth: 10,
        seed: 7,
        ..CorpusSpec::default()
    });
    assert_eq!(hub, 70, "hub-spec edit cone on the 1k-method corpus");
}

/// The hub-edit cone is a real monorepo shape: strictly bigger than
/// the edited method alone, strictly smaller than the corpus.
#[test]
fn hub_cone_is_a_proper_subset() {
    let corpus = Corpus::generate(CorpusSpec {
        methods: 200,
        depth: 8,
        ..CorpusSpec::default()
    });
    let cone = corpus.expected_reverified(Edit::TouchHubSpec);
    assert!(cone > 1, "hub has transitive callers");
    assert!(cone < corpus.len(), "hub edit never dirties everything");
}

fn bin(path: &str, args: &[&str]) -> std::process::Output {
    std::process::Command::new(path)
        .args(args)
        .output()
        .expect("binary runs")
}

/// `tables store export` prints exactly what `export_jsonl` renders
/// for the store on disk, one line per verified method.
#[test]
fn tables_store_export_prints_the_live_entries() {
    let corpus = Corpus::generate(CorpusSpec {
        methods: 20,
        depth: 4,
        ..CorpusSpec::default()
    });
    let root = temp_dir("export");
    let dir = root.join("store");
    run(&corpus.source(None), &dir, 1);
    let dir_arg = dir.to_str().unwrap();

    let out = bin(env!("CARGO_BIN_EXE_tables"), &["store", "export", dir_arg]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text, VerdictStore::open(&dir).export_jsonl());
    assert_eq!(text.lines().count(), corpus.len());

    let missing = root.join("missing");
    let out = bin(
        env!("CARGO_BIN_EXE_tables"),
        &["store", "export", missing.to_str().unwrap()],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "a missing store directory fails"
    );
    let out = bin(
        env!("CARGO_BIN_EXE_tables"),
        &["store", "migrate", dir_arg, "jsonl"],
    );
    assert_eq!(out.status.code(), Some(2), "`store migrate` is gone");
    let _ = std::fs::remove_dir_all(&root);
}

/// Removed flags are unknown flags: usage errors that exit 2, naming
/// the flag, before any work. They selected the second solver core, the
/// JSONL store, the solver cache, canonicalization and learning
/// ablations, and the timing artifacts `tables` and `server_replay`
/// used to write.
#[test]
fn solver_and_store_format_flags_exit_2() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let server_replay = env!("CARGO_BIN_EXE_server_replay");
    for (path, args) in [
        (tables, &["--store-format", "jsonl"][..]),
        (tables, &["--solver", "dpll"][..]),
        (tables, &["--no-cache"][..]),
        (tables, &["--no-simplify"][..]),
        (tables, &["--no-learn"][..]),
        (tables, &["--json"][..]),
        (tables, &["--repeat", "5"][..]),
        (tables, &["--profile"][..]),
        (tables, &["--out-dir", "x"][..]),
        (server_replay, &["--out", "x"][..]),
        (server_replay, &["--keep-store"][..]),
    ] {
        let out = bin(path, args);
        assert_eq!(out.status.code(), Some(2), "{} {:?}", path, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag") && err.contains(args[0]),
            "{} {:?}: {}",
            path,
            args,
            err
        );
    }
}
