//! Experiment E9 — crash-recovery cost.
//!
//! Measures `Connection::open` against a database directory in three
//! states: a clean WAL that must be replayed (cost linear in log
//! length), a just-checkpointed directory (snapshot read, empty log —
//! the payoff of checkpointing), and a torn WAL tail (replay plus the
//! atomic rewrite that truncates the tail). Recovery is the hot path of
//! the crash-consistency harness (`crates/db/tests/crash_consistency.rs`),
//! which runs it at every crash point; this bench prices it. Sizes run
//! to 10⁶ rows so a per-row cost that grows with the table shows up as
//! falling throughput; `PERFDMF_BENCH_QUICK` keeps only the smallest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_bench::sizes;
use perfdmf_db::{Connection, Value};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdmf_e9_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Create a database whose WAL holds `rows` single-row transactions
/// (insert + commit marker each). No checkpoint: reopen must replay.
fn populate(dir: &Path, rows: usize) {
    let conn = Connection::open(dir).expect("open");
    conn.execute(
        "CREATE TABLE trial (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            name TEXT NOT NULL,
            node_count INTEGER NOT NULL)",
        &[],
    )
    .expect("ddl");
    for i in 0..rows {
        conn.insert(
            "INSERT INTO trial (name, node_count) VALUES (?, ?)",
            &[
                Value::Text(format!("t{i}").into()),
                Value::Int((i % 1024) as i64),
            ],
        )
        .expect("insert");
    }
}

fn bench_reopen_wal_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_reopen_wal_replay");
    group.sample_size(20);
    for rows in sizes(&[100, 1_000, 10_000, 100_000, 1_000_000]) {
        let dir = fresh_dir(&format!("replay_{rows}"));
        populate(&dir, rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| Connection::open(&dir).expect("recover"));
        });
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    group.finish();
}

fn bench_reopen_after_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_reopen_after_checkpoint");
    group.sample_size(20);
    for rows in sizes(&[100, 1_000, 10_000, 100_000, 1_000_000]) {
        let dir = fresh_dir(&format!("ckpt_{rows}"));
        populate(&dir, rows);
        Connection::open(&dir)
            .expect("open")
            .checkpoint()
            .expect("checkpoint");
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| Connection::open(&dir).expect("recover"));
        });
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    group.finish();
}

fn bench_reopen_torn_tail(c: &mut Criterion) {
    let rows = 1_000usize;
    let dir = fresh_dir("torn");
    populate(&dir, rows);
    let wal = dir.join("wal.pdmf");
    c.bench_function("e9_reopen_torn_tail_1000", |b| {
        // Each iteration re-tears the tail (a few appended garbage
        // bytes — cheap next to the replay + rewrite being measured),
        // because recovery repairs the file it reopens.
        b.iter(|| {
            let mut f = OpenOptions::new().append(true).open(&wal).expect("wal");
            f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x99]).expect("tear");
            drop(f);
            Connection::open(&dir).expect("recover")
        });
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(
    benches,
    bench_reopen_wal_replay,
    bench_reopen_after_checkpoint,
    bench_reopen_torn_tail
);
criterion_main!(benches);
