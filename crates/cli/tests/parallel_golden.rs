//! Thread-count independence golden: the parallel sweep must produce
//! byte-identical output at any pool size.
//!
//! The pool size is fixed per process (`WEBCACHE_THREADS` is read once at
//! first use), so each configuration runs as a child `webcache` process
//! and the outputs are compared byte-for-byte. Every grid point seeds its
//! own RNG from the experiment config, so scheduling order cannot leak
//! into results — this test is the proof.

use std::path::{Path, PathBuf};
use std::process::Command;

fn webcache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_webcache"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("webcache-parallel-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates two small proxy traces and returns their paths.
fn gen_traces(dir: &Path) -> Vec<String> {
    (0..2u64)
        .map(|p| {
            let path = dir.join(format!("trace{p}.bin")).to_string_lossy().into_owned();
            let out = webcache()
                .args([
                    "gen",
                    "--out",
                    &path,
                    "--requests",
                    "20000",
                    "--objects",
                    "2000",
                    "--clients",
                    "20",
                    "--seed",
                ])
                .arg((7_000 + p).to_string())
                .output()
                .expect("run webcache gen");
            assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
            path
        })
        .collect()
}

fn run_sweep(threads: &str, traces: &[String]) -> Vec<u8> {
    let out = webcache()
        .env("WEBCACHE_THREADS", threads)
        .args(["sweep", "--schemes", "nc,sc,hier-gd", "--fracs", "0.1,0.3", "--clients", "20"])
        .args(traces)
        .output()
        .expect("run webcache sweep");
    assert!(out.status.success(), "sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn sweep_output_is_byte_identical_at_any_thread_count() {
    let dir = tmp_dir("sweep");
    let traces = gen_traces(&dir);
    let serial = run_sweep("1", &traces);
    assert!(!serial.is_empty());
    for threads in ["2", "4", "8"] {
        let parallel = run_sweep(threads, &traces);
        assert_eq!(
            serial,
            parallel,
            "sweep output diverged at WEBCACHE_THREADS={threads}:\n--- serial ---\n{}\n--- parallel ---\n{}",
            String::from_utf8_lossy(&serial),
            String::from_utf8_lossy(&parallel)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
