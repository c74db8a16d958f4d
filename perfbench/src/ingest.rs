//! `ingest`: the paper's §3.1 write path.
//!
//! Set-up writes seeded profile files to disk: mostly TAU directories of
//! EVH1 trials, plus PerfSuite psrun XML, mpiP and gprof reports. It runs
//! again, timed apart, before every pass, so `setup_s` samples the machine
//! across the whole run. The timed part is one thread that, in passes,
//! imports every file set and stores it with
//! `DatabaseSession::store_profile` into a fresh on-disk archive (WAL
//! durability `Buffered`, the default: flushed to the OS on
//! every commit, never fsynced), then drops the connection and times
//! `Connection::open`, which replays the WAL. After each pass, untimed,
//! every trial is reloaded from the reopened archive and compared with
//! the imported profile, and the archive's row counts are compared with
//! the acknowledged writes.

use crate::layers::{self, Phase};
use crate::oracle::{profile_matches, Check, Tally};
use crate::report::{Pick, Report};
use crate::trace::Tracer;
use crate::{dir_bytes, Ctx};
use perfdmf_core::{load_trial, DatabaseSession};
use perfdmf_db::Connection;
use perfdmf_import::ProfileFormat;
use perfdmf_profile::{
    IntervalData, IntervalEvent, Metric, MetricId, Profile, ThreadId, UNDEFINED,
};
use perfdmf_workload::{
    gprof_report_text, mpip_report_text, psrun_xml_text, tau_file_text, Evh1Model, SppmModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Processor counts of the TAU trials of a pass. The seed decides their
/// data and the order files are imported in, never the sizes, so every
/// seed ingests the same amount of data.
const TAU_PROCS: [usize; 12] = [16, 24, 32, 32, 40, 40, 48, 48, 56, 56, 64, 64];
/// psrun XML, mpiP and gprof files per pass.
const XML_FILES: usize = 2;
const MPIP_FILES: usize = 2;
const GPROF_FILES: usize = 2;
/// MPI ranks and call sites of each mpiP report.
const MPIP_RANKS: usize = 32;
const MPIP_SITES: usize = 8;

/// Which import layer a file set exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tau,
    Xml,
    Text,
}

struct FileSet {
    path: PathBuf,
    format: ProfileFormat,
    kind: Kind,
    experiment: &'static str,
}

/// The files one pass imports, in the order it imports them.
struct Setup {
    files: Vec<FileSet>,
}

/// Write `bytes` over the file at `path`, in place. Every run writes the
/// same file names into the same input directory, so nothing is created
/// or deleted: on the ext4 disk the benchmark was built on (mounted with
/// `discard`), creating 576 files took 0.015 s, but 0.10–0.27 s for
/// seconds after ~4,000 files had been deleted, and that swung `setup_s`
/// between runs.
fn write_in_place(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

/// Write the seeded file sets under `dir`.
fn setup(seed: u64, dir: &Path) -> std::io::Result<Setup> {
    std::fs::create_dir_all(dir)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a6e57);
    let mut files = Vec::new();
    for (i, procs) in TAU_PROCS.into_iter().enumerate() {
        let profile = Evh1Model::default_mix(rng.gen()).generate(procs);
        let path = dir.join(format!("tau-{i}-p{procs}"));
        write_tau(&profile, &path)?;
        files.push(FileSet {
            path,
            format: ProfileFormat::Tau,
            kind: Kind::Tau,
            experiment: "tau-sweep",
        });
    }
    for i in 0..XML_FILES {
        let (profile, _) = SppmModel::default_classes(rng.gen()).generate(1, &[1.0, 0.0, 0.0]);
        let path = dir.join(format!("psrun-{i}.xml"));
        write_in_place(&path, psrun_xml_text(&profile, ThreadId::ZERO).as_bytes())?;
        files.push(FileSet {
            path,
            format: ProfileFormat::PerfSuite,
            kind: Kind::Xml,
            experiment: "psrun-counters",
        });
    }
    for i in 0..MPIP_FILES {
        let (profile, metric) = mpip_shaped(&mut rng);
        let path = dir.join(format!("mpip-{i}.txt"));
        write_in_place(&path, mpip_report_text(&profile, metric).as_bytes())?;
        files.push(FileSet {
            path,
            format: ProfileFormat::MpiP,
            kind: Kind::Text,
            experiment: "mpip-comm",
        });
    }
    for i in 0..GPROF_FILES {
        let profile = Evh1Model::default_mix(rng.gen()).generate(1);
        let metric = profile.find_metric("GET_TIME_OF_DAY").expect("EVH1 metric");
        let path = dir.join(format!("gprof-{i}.txt"));
        write_in_place(
            &path,
            gprof_report_text(&profile, metric, ThreadId::ZERO).as_bytes(),
        )?;
        files.push(FileSet {
            path,
            format: ProfileFormat::Gprof,
            kind: Kind::Text,
            experiment: "gprof-serial",
        });
    }
    // Interleave the formats in a fixed order: the seed varies the data,
    // never how big the archive is when each file arrives.
    let small = files.split_off(TAU_PROCS.len());
    let (small_formats, per_tau) = (small.len(), TAU_PROCS.len().div_ceil(small.len().max(1)));
    let mut small = small.into_iter();
    let mut order = Vec::with_capacity(files.len() + small_formats);
    for (i, tau) in files.into_iter().enumerate() {
        order.push(tau);
        if i % per_tau == 0 {
            order.extend(small.next());
        }
    }
    order.extend(small);
    Ok(Setup { files: order })
}

/// Write a single-metric profile as a TAU directory, one
/// `profile.n.c.t` file per thread, from this thread: the workload
/// crate's `write_tau_directory` fans the files out over the worker pool,
/// whose per-call thread start-up made set-up time swing with the
/// machine's state.
fn write_tau(profile: &Profile, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for &t in profile.threads() {
        let text = tau_file_text(profile, MetricId(0), t, true);
        let name = format!("profile.{}.{}.{}", t.node, t.context, t.thread);
        write_in_place(&dir.join(name), text.as_bytes())?;
    }
    Ok(())
}

/// An mpiP-shaped profile: one `Application` event holding each rank's
/// total time plus MPI call sites.
fn mpip_shaped(rng: &mut StdRng) -> (Profile, MetricId) {
    let mut p = Profile::new("mpip");
    let m = p.add_metric(Metric::measured("MPIP_TIME"));
    let app = p.add_event(IntervalEvent::new("Application", "MPIP_APP"));
    let ops = ["Send", "Recv", "Allreduce", "Barrier"];
    let sites: Vec<_> = (1..=MPIP_SITES)
        .map(|s| {
            let op = ops[s % ops.len()];
            p.add_event(IntervalEvent::new(format!("MPI_{op}() site {s}"), "MPI"))
        })
        .collect();
    p.add_threads((0..MPIP_RANKS as u32).map(|n| ThreadId::new(n, 0, 0)));
    for &t in p.threads().to_vec().iter() {
        let total = 20.0 + rng.gen_range(0.0..10.0);
        p.set_interval(
            app,
            t,
            m,
            IntervalData::new(total, UNDEFINED, 1.0, UNDEFINED),
        );
        for &site in &sites {
            let calls = rng.gen_range(16..512) as f64;
            let excl = rng.gen_range(1.0f64..900.0).round() / 1000.0;
            p.set_interval(site, t, m, IntervalData::new(excl, excl, calls, 0.0));
        }
    }
    (p, m)
}

/// What one pass measured.
struct Pass {
    points: usize,
    trial_ms: Vec<f64>,
    ingest_s: f64,
    reopen_s: f64,
    rows: usize,
    archive_bytes: u64,
    wal_bytes: u64,
}

/// Import and store every file set into a fresh archive at `db_dir`,
/// reopen it, then check it.
fn pass(setup: &Setup, db_dir: &Path, tracer: &Tracer, tally: &mut Tally) -> Result<Pass, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let _ = std::fs::remove_dir_all(db_dir);
    let conn = Connection::open(db_dir).map_err(|e| err("create archive", &e))?;
    let mut session = DatabaseSession::new(conn).map_err(|e| err("create schema", &e))?;
    let mut stored: Vec<(i64, Profile)> = Vec::new();
    let mut trial_ms = Vec::with_capacity(setup.files.len());
    let mut points = 0usize;
    for fs in &setup.files {
        let op = tracer.next_op();
        let root = tracer.span("op.ingest_trial", None, op);
        let started = Instant::now();
        let imported = {
            let name = match fs.kind {
                Kind::Tau => "import.tau",
                Kind::Xml => "import.xml",
                Kind::Text => "import.text",
            };
            let _s = tracer.span(name, Some(&root), op);
            fs.format.load(&fs.path)
        };
        let result = imported.map_err(|e| e.to_string()).and_then(|profile| {
            let _s = tracer.span("core.store", Some(&root), op);
            session
                .store_profile("ingest", fs.experiment, &profile)
                .map(|id| (id, profile))
                .map_err(|e| e.to_string())
        });
        drop(root);
        match result {
            Ok((id, profile)) => {
                trial_ms.push(started.elapsed().as_secs_f64() * 1e3);
                points += profile.data_point_count();
                stored.push((id, profile));
            }
            Err(e) => tally.record("ingest trial", Err(e)),
        }
    }
    let ingest_s = trial_ms.iter().sum::<f64>() / 1e3;
    drop(session);

    let op = tracer.next_op();
    let reopen_started = Instant::now();
    let conn = {
        let root = tracer.span("op.reopen", None, op);
        let _s = tracer.span("db.open", Some(&root), op);
        Connection::open(db_dir).map_err(|e| err("reopen", &e))?
    };
    let reopen_s = reopen_started.elapsed().as_secs_f64();

    let rows = conn
        .row_count("interval_location_profile")
        .map_err(|e| err("row count", &e))?;
    tally.record("reopen", row_counts_match(&conn, &stored, rows));
    for (id, profile) in &stored {
        let check = load_trial(&conn, *id)
            .map_err(|e| e.to_string())
            .and_then(|back| profile_matches(profile, &back, None));
        tally.record("ingest trial", check);
    }
    drop(conn);
    let archive_bytes = dir_bytes(db_dir);
    let wal_bytes = std::fs::metadata(db_dir.join("wal.pdmf")).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(db_dir);
    Ok(Pass {
        points,
        trial_ms,
        ingest_s,
        reopen_s,
        rows,
        archive_bytes,
        wal_bytes,
    })
}

/// Row counts after reopen must equal the acknowledged writes.
fn row_counts_match(conn: &Connection, stored: &[(i64, Profile)], rows: usize) -> Check {
    let want_rows: usize = stored.iter().map(|(_, p)| p.data_point_count()).sum();
    let trials = conn.row_count("trial").map_err(|e| e.to_string())?;
    if trials != stored.len() || rows != want_rows {
        return Err(format!(
            "after reopen: {trials} trials / {rows} rows, acknowledged {} / {want_rows}",
            stored.len()
        ));
    }
    Ok(())
}

/// Everything a phase of passes measured.
#[derive(Default)]
struct Passes {
    files: usize,
    points_per_s: Vec<f64>,
    trial_ms: Vec<f64>,
    reopen_s: Vec<f64>,
    bytes_per_point: Vec<f64>,
    wal_bytes_per_point: Vec<f64>,
    reopen_us_per_row: Vec<f64>,
    ingest_s: Vec<f64>,
    points: usize,
}

/// Run passes until `budget` is spent (at least `min_passes`), each on
/// input files that [`setup`] writes again, timed, just before it. With
/// two tracers, passes alternate between them; the result holds the
/// passes of each tracer separately, in the same order, and every
/// set-up's time.
fn passes(
    ctx: &Ctx,
    inputs: &Path,
    scratch: &Path,
    min_passes: usize,
    tracers: &[&Tracer],
    tally: &mut Tally,
) -> Result<(Vec<Passes>, Vec<f64>), String> {
    let started = Instant::now();
    let mut out: Vec<Passes> = tracers.iter().map(|_| Passes::default()).collect();
    let mut setup_s = Vec::new();
    let mut k = 0;
    while k < min_passes || started.elapsed() < ctx.budget {
        let which = k % tracers.len();
        let set_up = Instant::now();
        let files = setup(ctx.seed, inputs).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(set_up.elapsed().as_secs_f64());
        let p = pass(
            &files,
            &scratch.join(format!("db-{k}")),
            tracers[which],
            tally,
        )?;
        let o = &mut out[which];
        o.files = files.files.len();
        o.points_per_s.push(p.points as f64 / p.ingest_s);
        o.trial_ms.extend(p.trial_ms);
        o.reopen_s.push(p.reopen_s);
        o.bytes_per_point
            .push(p.archive_bytes as f64 / p.points as f64);
        o.wal_bytes_per_point
            .push(p.wal_bytes as f64 / p.points as f64);
        o.reopen_us_per_row
            .push(p.reopen_s * 1e6 / p.rows.max(1) as f64);
        o.ingest_s.push(p.ingest_s);
        o.points = p.points;
        k += 1;
    }
    Ok((out, setup_s))
}

/// The timed part, untraced: end-to-end metrics. Input files go to
/// `inputs`, archives to `scratch`; returns the set-up times.
pub fn run(
    ctx: &Ctx,
    inputs: &Path,
    scratch: &Path,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let (mut p, setup_s) = passes(ctx, inputs, scratch, 3, &[&Tracer::new(false)], tally)?;
    let p = p.remove(0);
    report.samples("throughput_per_s", "1/s", &p.points_per_s, Pick::Q3);
    report.alias("ingest_points_per_s", "throughput_per_s");
    report.samples("p50_ms", "ms", &p.trial_ms, Pick::Median);
    report.samples("tail_ms", "ms", &p.trial_ms, Pick::Tail);
    report.alias("ingest_trial_p99_ms", "tail_ms");
    report.samples("reopen_s", "s", &p.reopen_s, Pick::Median);
    report.samples(
        "archive_bytes_per_point",
        "B",
        &p.bytes_per_point,
        Pick::Median,
    );
    report.samples("ingest_s", "s", &p.ingest_s, Pick::Median);
    report.note(format!(
        "ingest: {} file sets, {} data points per pass, {} passes; reopen/ingest time ratio {:.2}",
        p.files,
        p.points,
        p.reopen_s.len(),
        crate::stats::median(&p.reopen_s) / crate::stats::median(&p.ingest_s)
    ));
    Ok(setup_s)
}

/// The traced run: passes alternate between traced and untraced.
pub fn run_traced(
    ctx: &Ctx,
    inputs: &Path,
    scratch: &Path,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let tracer = Tracer::new(true);
    let phase = Phase::begin();
    let (mut both, setup_s) = passes(
        ctx,
        inputs,
        scratch,
        4,
        &[&Tracer::new(false), &tracer],
        tally,
    )?;
    let (on, off) = (both.remove(1), both.remove(0));
    let counters = phase.end();
    // Counters cover both halves; each half stored the same trials.
    let trials = on.trial_ms.len() + off.trial_ms.len();
    layers::report(report, &tracer.spans(), &counters, trials);
    report.value(
        "db.reopen_us_per_row",
        "us",
        crate::stats::median(&on.reopen_us_per_row),
    );
    report.value(
        "db.wal_bytes_per_point",
        "B",
        crate::stats::median(&on.wal_bytes_per_point),
    );
    report.value(
        "db.archive_bytes_per_point",
        "B",
        crate::stats::median(&on.bytes_per_point),
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.value(
        "trace.overhead_frac",
        "ratio",
        mean(&on.trial_ms) / mean(&off.trial_ms) - 1.0,
    );
    ctx.save_spans(&tracer);
    Ok(setup_s)
}
