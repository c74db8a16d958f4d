//! PerfDMF benchmark: the `ingest`, `query` and `serve` paths, end to
//! end and layer by layer.
//!
//! ```text
//! perfbench --workload <ingest|query|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark generates its inputs from
//! the seed, sets up several times (the median is `setup_s`), measures
//! for the given seconds, checks every answer, prints a table of every
//! metric with its unit, spread and sample count, and ends with one JSON
//! line. With `--trace 0` that line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run, whose
//! spans are also written to `.perfbench/spans-<workload>-<seed>.json`.
//! See `perfbench/README.md` for what each metric means.

mod ingest;
mod layers;
mod mix;
mod oracle;
mod query;
mod report;
mod serve;
mod stats;
mod trace;

use oracle::Tally;
use report::{Pick, Report};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Latencies are in the printed table but not here: across seeds on a
/// shared 2-vCPU machine the `query` median and the `serve` tail spread
/// too widely to gate on. `reopen_s` is not here because only `ingest`
/// measures it.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("import.self_ms_per_op", "ms"),
    ("import.self_share", "ratio"),
    ("core.self_ms_per_op", "ms"),
    ("core.self_share", "ratio"),
    ("db.self_ms_per_op", "ms"),
    ("db.self_share", "ratio"),
    ("analysis.self_ms_per_op", "ms"),
    ("analysis.self_share", "ratio"),
    ("explorer.self_ms_per_op", "ms"),
    ("explorer.self_share", "ratio"),
    ("server.self_ms_per_op", "ms"),
    ("server.self_share", "ratio"),
    ("import.tau_ms", "ms"),
    ("import.xml_ms", "ms"),
    ("import.text_ms", "ms"),
    ("import.busy_share", "ratio"),
    ("core.store_ms", "ms"),
    ("core.store_busy_share", "ratio"),
    ("db.reopen_us_per_row", "us"),
    ("db.wal_bytes_per_point", "B"),
    ("db.archive_bytes_per_point", "B"),
    ("db.fsyncs_per_trial", "count"),
    ("db.wal_batches_per_trial", "count"),
    ("core.event_aggregates_ms", "ms"),
    ("db.colcache_hit_ratio", "ratio"),
    ("pool.serial_share", "ratio"),
    ("core.load_trial_ms", "ms"),
    ("core.load_filtered_ms", "ms"),
    ("analysis.speedup_ms", "ms"),
    ("analysis.load_share", "ratio"),
    ("explorer.request_ms.ping", "ms"),
    ("explorer.request_ms.fetch", "ms"),
    ("explorer.request_ms.correlate", "ms"),
    ("server.connect_ms", "ms"),
    ("server.hop_us.ping", "us"),
    ("server.hop_us.fetch", "us"),
    ("server.hop_us.correlate", "us"),
    ("serve.late_ms", "ms"),
    ("serve.backlog", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// `query` and `serve` set up this many times before the timed part and
/// again after it; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 4;

/// Output directory, relative to the repository root.
const OUT_DIR: &str = ".perfbench";

/// One run's parameters.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed part measures.
    pub budget: Duration,
}

impl Ctx {
    /// Write a traced run's spans next to the other outputs.
    pub fn save_spans(&self, tracer: &trace::Tracer) {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.json", self.workload, self.seed));
        if let Err(e) = tracer.write_chrome_trace(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Set up [`SETUP_REPEATS`] times, each in its own directory, and run
/// `timed` on the last set-up; then set up as often again, tearing each
/// down at once. Sampling both ends of the run keeps a slow stretch of a
/// shared machine from deciding `setup_s`. Returns the set-up times.
fn around_setups<T>(
    work: &Path,
    mut make: impl FnMut(&Path) -> Result<T, String>,
    mut discard: impl FnMut(T),
    timed: impl FnOnce(T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut setup_at = |i: usize| -> Result<T, String> {
        let started = Instant::now();
        let made = make(&work.join(format!("setup-{i}")))?;
        times.push(started.elapsed().as_secs_f64());
        Ok(made)
    };
    let mut kept = setup_at(0)?;
    for i in 1..SETUP_REPEATS {
        discard(std::mem::replace(&mut kept, setup_at(i)?));
    }
    timed(kept)?;
    for i in SETUP_REPEATS..2 * SETUP_REPEATS {
        discard(setup_at(i)?);
    }
    Ok(times)
}

fn run(args: &Args, work: &Path, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
    };
    let setup_times = match args.workload.as_str() {
        "ingest" => {
            // Inputs go to one directory shared by every run and
            // overwritten in place before every pass (see `ingest`).
            let inputs = Path::new(OUT_DIR).join("ingest-inputs");
            if args.trace {
                ingest::run_traced(&ctx, &inputs, work, report, tally)?
            } else {
                ingest::run(&ctx, &inputs, work, report, tally)?
            }
        }
        "query" => around_setups(
            work,
            |dir| query::setup(ctx.seed, dir),
            drop,
            |mut setup| {
                if args.trace {
                    query::run_traced(&ctx, &mut setup, report, tally)
                } else {
                    query::run(&ctx, &mut setup, report, tally)
                }
            },
        )?,
        "serve" => {
            let cpu = serve::pin_to_one_cpu()?;
            report.note(format!("serve: process pinned to CPU {cpu}"));
            around_setups(
                work,
                |dir| serve::setup(ctx.seed, dir),
                serve::Setup::teardown,
                |setup| {
                    if args.trace {
                        serve::run_traced(&ctx, setup, report, tally)
                    } else {
                        serve::run(&ctx, setup, report, tally)
                    }
                },
            )?
        }
        other => return Err(format!("unknown workload {other} (ingest, query, serve)")),
    };
    report.samples("setup_s", "s", &setup_times, Pick::Median);
    report.value("peak_rss_mb", "MB", peak_rss_mb());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work: PathBuf =
        Path::new(OUT_DIR).join(format!("work-{}-{}", args.workload, std::process::id()));
    let mut report = Report::default();
    let mut tally = Tally::default();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &mut report, &mut tally));
    let _ = std::fs::remove_dir_all(&work);
    let line = result.and_then(|()| {
        let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        report.json(&tally, names)
    });
    match line {
        Ok(line) => {
            println!(
                "perfbench {} seed {} seconds {} trace {}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            print!("{}", report.render(&tally));
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let (e2e, layers) = text.split_at(text.find("\"per_layer\"").expect("per_layer"));
        let listed = |section: &str| section.matches("\"unit\"").count();
        assert_eq!(listed(e2e), END_TO_END.len());
        assert_eq!(listed(layers), PER_LAYER.len());
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(e2e.contains(&entry), "end_to_end lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(layers.contains(&entry), "per_layer lacks {entry}");
        }
    }
}
