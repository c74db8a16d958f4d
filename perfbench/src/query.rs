//! `query`: the paper's §4/§5.2 read path.
//!
//! Set-up stores several experiments, each an EVH1 processor sweep, into
//! an on-disk archive and computes every expected answer in memory. One
//! client then runs a closed loop over a seeded mix of operations, each
//! checked against those answers:
//!
//! * `event_aggregates` — the two-join GROUP BY with MIN/MAX/AVG/STDDEV,
//!   checked against `Profile::event_stats`;
//! * `load_trial` and `load_trial_filtered` (one node), checked against
//!   the stored profile;
//! * a speedup study — load every trial of one experiment, then
//!   `SpeedupAnalysis` — checked against the analyzer run on the
//!   generated profiles;
//! * metadata lists (`trial_list`, `metric_list`);
//! * an archive summary — one single-table aggregate over the whole fact
//!   table, straight through `perfdmf-db` — checked against totals of
//!   the generated profiles. It is the operation of the mix the columnar
//!   kernels and the column-chunk cache serve today; `event_aggregates`
//!   (grouped, two joins) runs on the row path.
//!
//! The column-chunk cache is warmed before timing.

use crate::layers::{self, Phase};
use crate::mix::Deck;
use crate::oracle::{
    aggregates_match, close, expected_aggregates, profile_matches, speedup_matches, Check,
    ExpectedAggregate, Tally,
};
use crate::report::{Pick, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::{dir_bytes, Ctx};
use perfdmf_analysis::{ApplicationScaling, RoutineSpeedup, SpeedupAnalysis};
use perfdmf_core::{load_trial, load_trial_filtered, DatabaseSession, LoadFilter};
use perfdmf_db::{Connection, Value};
use perfdmf_profile::Profile;
use perfdmf_workload::Evh1Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Experiments in the archive, each one processor sweep.
const EXPERIMENTS: usize = 4;
/// Processor counts of every sweep.
const SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const METRIC: &str = "GET_TIME_OF_DAY";

/// Operation kinds and their weights in the mix: assumed traffic, not
/// measured use; `README.md` says what rests on them.
const MIX: [(Op, u32); 7] = [
    (Op::Aggregates, 25),
    (Op::LoadTrial, 20),
    (Op::LoadFiltered, 15),
    (Op::Speedup, 10),
    (Op::Summary, 10),
    (Op::TrialList, 10),
    (Op::MetricList, 10),
];

/// Operations in one deal of [`MIX`].
const MIX_BLOCK: usize = 100;

/// The archive summary: whole fact table, no index applies.
const SUMMARY_SQL: &str = "SELECT COUNT(*), MIN(exclusive), MAX(exclusive), AVG(exclusive), \
     SUM(num_calls) FROM interval_location_profile";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Aggregates,
    LoadTrial,
    LoadFiltered,
    Speedup,
    Summary,
    TrialList,
    MetricList,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Aggregates => "event_aggregates",
            Op::LoadTrial => "load_trial",
            Op::LoadFiltered => "load_trial_filtered",
            Op::Speedup => "speedup",
            Op::Summary => "archive_summary",
            Op::TrialList => "trial_list",
            Op::MetricList => "metric_list",
        }
    }
}

type SpeedupAnswer = (Vec<RoutineSpeedup>, Option<ApplicationScaling>);

struct TrialTruth {
    id: i64,
    profile: Profile,
    aggregates: Vec<ExpectedAggregate>,
}

struct ExperimentTruth {
    id: i64,
    trials: Vec<usize>,
    speedup: SpeedupAnswer,
}

/// COUNT, MIN, MAX, AVG of `exclusive` and SUM of `num_calls` over every
/// data point in the archive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Totals {
    count: i64,
    min: f64,
    max: f64,
    mean: f64,
    calls: f64,
}

impl Totals {
    fn of(profiles: &[&Profile]) -> Totals {
        let (mut count, mut min, mut max, mut sum, mut calls) =
            (0i64, f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0);
        for p in profiles {
            for mi in 0..p.metrics().len() {
                for (_, _, d) in p.iter_metric(perfdmf_profile::MetricId(mi)) {
                    let x = d.exclusive().expect("generated data is complete");
                    count += 1;
                    min = min.min(x);
                    max = max.max(x);
                    sum += x;
                    calls += d.calls().expect("generated data is complete");
                }
            }
        }
        Totals {
            count,
            min,
            max,
            mean: sum / count as f64,
            calls,
        }
    }

    fn check(&self, rs: &perfdmf_db::ResultSet) -> Check {
        let row = rs.rows.first().ok_or("no summary row")?;
        let f = |i: usize| row.get(i).and_then(Value::as_float);
        let same = row.first().and_then(Value::as_int) == Some(self.count)
            && f(1) == Some(self.min)
            && f(2) == Some(self.max)
            && f(3).is_some_and(|x| close(x, self.mean))
            && f(4).is_some_and(|x| close(x, self.calls));
        if same {
            Ok(())
        } else {
            Err(format!("archive summary: want {self:?} got {row:?}"))
        }
    }
}

/// The archive and every expected answer.
pub struct Setup {
    session: DatabaseSession,
    trials: Vec<TrialTruth>,
    experiments: Vec<ExperimentTruth>,
    totals: Totals,
    dir: PathBuf,
    points: usize,
}

fn speedup_of<'a>(profiles: impl Iterator<Item = &'a Profile>) -> SpeedupAnswer {
    let mut analysis = SpeedupAnalysis::new(METRIC);
    for p in profiles {
        analysis.add_trial(p.threads().len(), p.clone());
    }
    (analysis.routine_speedups(), analysis.application_scaling())
}

/// Build the archive under `dir`, compute the answers, warm the cache.
pub fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let e = |e: perfdmf_db::DbError| e.to_string();
    let conn = Connection::open(dir).map_err(e)?;
    let mut session = DatabaseSession::new(conn.clone()).map_err(e)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9ee7);
    let mut trials = Vec::new();
    let mut experiments = Vec::new();
    let mut points = 0;
    for x in 0..EXPERIMENTS {
        let model = Evh1Model::default_mix(rng.gen());
        let name = format!("sweep-{x}");
        let mut members = Vec::new();
        for procs in SWEEP {
            let profile = model.generate(procs);
            let id = session.store_profile("evh1", &name, &profile).map_err(e)?;
            points += profile.data_point_count();
            members.push(trials.len());
            trials.push(TrialTruth {
                id,
                aggregates: expected_aggregates(&profile, METRIC),
                profile,
            });
        }
        let id = conn
            .query_scalar(
                "SELECT id FROM experiment WHERE name = ?",
                &[Value::Text(name.as_str().into())],
            )
            .map_err(e)?
            .as_int()
            .ok_or("experiment id")?;
        experiments.push(ExperimentTruth {
            id,
            speedup: speedup_of(members.iter().map(|&i| &trials[i].profile)),
            trials: members,
        });
    }
    // Warm the column-chunk cache and the parse cache.
    for t in &trials {
        session.set_trial(t.id);
        session.event_aggregates(METRIC).map_err(e)?;
        load_trial(&conn, t.id).map_err(e)?;
    }
    conn.query(SUMMARY_SQL, &[]).map_err(e)?;
    let totals = Totals::of(&trials.iter().map(|t| &t.profile).collect::<Vec<_>>());
    Ok(Setup {
        session,
        trials,
        experiments,
        totals,
        dir: dir.to_path_buf(),
        points,
    })
}

impl Setup {
    /// Archive size on disk per stored data point.
    fn bytes_per_point(&self) -> f64 {
        dir_bytes(&self.dir) as f64 / self.points as f64
    }
}

/// One operation's latency, kind and target.
struct Sample {
    op: Op,
    /// The trial or experiment it ran on; 0 for the archive summary.
    target: usize,
    ms: f64,
}

/// What an operation returned, checked after its timing stops. One lives
/// at a time, so the size of the profile variant does not matter.
#[allow(clippy::large_enum_variant)]
enum Answer {
    Aggregates(perfdmf_db::Result<Vec<perfdmf_core::EventAggregate>>),
    Profile(perfdmf_db::Result<Profile>, Option<u32>),
    Speedup(Result<SpeedupAnswer, String>),
    Summary(perfdmf_db::Result<perfdmf_db::ResultSet>),
    TrialIds(perfdmf_db::Result<Vec<Option<i64>>>),
    Metrics(perfdmf_db::Result<Vec<String>>),
}

/// One drawn operation: its kind and targets.
#[derive(Debug, Clone, Copy)]
struct Draw {
    op: Op,
    trial: usize,
    experiment: usize,
    node: u32,
}

/// The seeded operation sequence. Kinds, trials and experiments are
/// each dealt from a deck, so every trial size is loaded equally often
/// whatever the seed.
struct Ops {
    kinds: Deck<Op>,
    trials: Deck<usize>,
    experiments: Deck<usize>,
    rng: StdRng,
}

impl Ops {
    fn new(seed: u64, setup: &Setup) -> Ops {
        let each = |n: usize| Deck::new(&(0..n).map(|i| (i, 1)).collect::<Vec<_>>());
        Ops {
            kinds: Deck::new(&MIX),
            trials: each(setup.trials.len()),
            experiments: each(setup.experiments.len()),
            rng: StdRng::seed_from_u64(seed ^ 0x0c105ed),
        }
    }

    fn draw(&mut self, setup: &Setup) -> Draw {
        let op = self.kinds.deal(&mut self.rng);
        let trial = self.trials.deal(&mut self.rng);
        Draw {
            op,
            trial,
            experiment: self.experiments.deal(&mut self.rng),
            node: self
                .rng
                .gen_range(0..setup.trials[trial].profile.threads().len() as u32),
        }
    }
}

/// Run one operation, timed, then check its answer.
fn one(setup: &mut Setup, d: Draw, tracer: &Tracer, tally: &mut Tally) -> Sample {
    let Draw { op, node, .. } = d;
    let t = &setup.trials[d.trial];
    let x = &setup.experiments[d.experiment];
    let session = &mut setup.session;
    let conn = session.connection().clone();

    let op_id = tracer.next_op();
    let started = Instant::now();
    let root = tracer.span(root_name(op), None, op_id);
    let span = |name| tracer.span(name, Some(&root), op_id);
    let answer = match op {
        Op::Aggregates => {
            session.set_trial(t.id);
            let _s = span("core.event_aggregates");
            Answer::Aggregates(session.event_aggregates(METRIC))
        }
        Op::LoadTrial => {
            let _s = span("core.load_trial");
            Answer::Profile(load_trial(&conn, t.id), None)
        }
        Op::LoadFiltered => {
            let filter = LoadFilter {
                node: Some(node),
                ..LoadFilter::default()
            };
            let _s = span("core.load_filtered");
            Answer::Profile(load_trial_filtered(&conn, t.id, &filter), Some(node))
        }
        Op::Speedup => {
            session.set_experiment(x.id);
            let listed = {
                let _s = span("core.trial_list");
                session.trial_list()
            };
            let study = listed.map_err(|e| e.to_string()).and_then(|rows| {
                let mut profiles = Vec::with_capacity(rows.len());
                for row in rows {
                    let id = row.id.ok_or("trial row without id")?;
                    let _s = span("core.load_trial");
                    profiles.push(load_trial(&conn, id).map_err(|e| e.to_string())?);
                }
                let _s = span("analysis.speedup");
                Ok(speedup_of(profiles.iter()))
            });
            Answer::Speedup(study)
        }
        Op::Summary => {
            let _s = span("db.query");
            Answer::Summary(conn.query(SUMMARY_SQL, &[]))
        }
        Op::TrialList => {
            session.set_experiment(x.id);
            let _s = span("core.trial_list");
            Answer::TrialIds(
                session
                    .trial_list()
                    .map(|rows| rows.iter().map(|r| r.id).collect()),
            )
        }
        Op::MetricList => {
            session.set_trial(t.id);
            let _s = span("core.metric_list");
            Answer::Metrics(session.metric_list())
        }
    };
    drop(root);
    let ms = started.elapsed().as_secs_f64() * 1e3;

    let check: Check = match answer {
        Answer::Aggregates(got) => got
            .map_err(|e| e.to_string())
            .and_then(|got| aggregates_match(&t.aggregates, &got)),
        Answer::Profile(got, node) => got
            .map_err(|e| e.to_string())
            .and_then(|got| profile_matches(&t.profile, &got, node)),
        Answer::Speedup(got) => got.and_then(|got| speedup_matches(&x.speedup, &got)),
        Answer::Summary(got) => got
            .map_err(|e| e.to_string())
            .and_then(|rs| setup.totals.check(&rs)),
        Answer::TrialIds(got) => got.map_err(|e| e.to_string()).and_then(|ids| {
            let want: Vec<Option<i64>> =
                x.trials.iter().map(|&i| Some(setup.trials[i].id)).collect();
            if ids == want {
                Ok(())
            } else {
                Err(format!("trial_list: want {want:?} got {ids:?}"))
            }
        }),
        Answer::Metrics(got) => got.map_err(|e| e.to_string()).and_then(|names| {
            if names == [METRIC] {
                Ok(())
            } else {
                Err(format!("metric_list: {names:?}"))
            }
        }),
    };
    tally.record(op.name(), check);
    let target = match op {
        Op::Aggregates | Op::LoadTrial | Op::LoadFiltered | Op::MetricList => d.trial,
        Op::Speedup | Op::TrialList => d.experiment,
        Op::Summary => 0,
    };
    Sample { op, target, ms }
}

fn root_name(op: Op) -> &'static str {
    match op {
        Op::Aggregates => "op.event_aggregates",
        Op::LoadTrial => "op.load_trial",
        Op::LoadFiltered => "op.load_filtered",
        Op::Speedup => "op.speedup",
        Op::Summary => "op.archive_summary",
        Op::TrialList => "op.trial_list",
        Op::MetricList => "op.metric_list",
    }
}

/// Closed loop for `budget`.
fn closed_loop(
    setup: &mut Setup,
    ops: &mut Ops,
    budget: Duration,
    tally: &mut Tally,
) -> (Vec<Sample>, f64) {
    let tracer = Tracer::new(false);
    let started = Instant::now();
    let mut samples = Vec::new();
    // At least one full mix, so every kind has a price.
    while started.elapsed() < budget || samples.len() < MIX_BLOCK {
        let d = ops.draw(setup);
        samples.push(one(setup, d, &tracer, tally));
    }
    (samples, started.elapsed().as_secs_f64())
}

/// Operations per second of [`MIX`], each kind on each of its targets
/// priced at the first quartile of its latencies
/// ([`stats::quick_mix_rate`]). A kind's weight is shared equally among
/// the targets it ran on, as its decks deal them.
fn quick_rate(samples: &[Sample]) -> f64 {
    let mut classes: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for s in samples {
        let kind = MIX
            .iter()
            .position(|&(op, _)| op == s.op)
            .expect("op in MIX");
        classes.entry((kind, s.target)).or_default().push(s.ms);
    }
    let targets = |kind: usize| classes.keys().filter(|&&(k, _)| k == kind).count() as f64;
    let weighted: Vec<(f64, &[f64])> = classes
        .iter()
        .map(|(&(kind, _), ms)| (f64::from(MIX[kind].1) / targets(kind), ms.as_slice()))
        .collect();
    stats::quick_mix_rate(&weighted).expect("the loop ran at least one operation")
}

fn ms_of(samples: &[Sample], op: Option<Op>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| op.is_none_or(|o| s.op == o))
        .map(|s| s.ms)
        .collect()
}

/// The timed part, untraced: end-to-end metrics.
pub fn run(
    ctx: &Ctx,
    setup: &mut Setup,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut ops = Ops::new(ctx.seed, setup);
    let (samples, secs) = closed_loop(setup, &mut ops, ctx.budget, tally);
    let all = ms_of(&samples, None);
    report.value("throughput_per_s", "1/s", quick_rate(&samples));
    // The rates as the loop ran them, shared machine included: over the
    // whole run, and per block of one full mix.
    report.value("loop_ops_per_s", "1/s", samples.len() as f64 / secs);
    let per_block: Vec<f64> = all
        .chunks_exact(MIX_BLOCK)
        .map(|b| 1e3 * MIX_BLOCK as f64 / b.iter().sum::<f64>())
        .collect();
    report.samples("block_ops_per_s", "1/s", &per_block, Pick::Median);
    report.alias("query_ops_per_s", "throughput_per_s");
    report.samples("p50_ms", "ms", &all, Pick::Median);
    report.samples("tail_ms", "ms", &all, Pick::Tail);
    report.alias("query_p99_ms", "tail_ms");
    for (name, op) in [
        ("aggregate_p50_ms", Op::Aggregates),
        ("load_trial_p50_ms", Op::LoadTrial),
        ("load_filtered_p50_ms", Op::LoadFiltered),
        ("speedup_p50_ms", Op::Speedup),
        ("archive_summary_p50_ms", Op::Summary),
        ("trial_list_p50_ms", Op::TrialList),
        ("metric_list_p50_ms", Op::MetricList),
    ] {
        report.samples(name, "ms", &ms_of(&samples, Some(op)), Pick::Median);
    }
    report.value("archive_bytes_per_point", "B", setup.bytes_per_point());
    let rows = setup
        .session
        .connection()
        .row_count("interval_location_profile")
        .map_err(|e| e.to_string())?;
    report.note(format!(
        "query: {} experiments x {} trials, {} fact rows ({} data points); column-chunk cache holds {:.1} MiB of a {:.0} MiB budget",
        setup.experiments.len(),
        SWEEP.len(),
        rows,
        setup.points,
        perfdmf_db::column::cached_bytes() as f64 / (1 << 20) as f64,
        perfdmf_db::column::budget_bytes() as f64 / (1 << 20) as f64,
    ));
    Ok(())
}

/// The traced run: every operation runs twice, once traced and once
/// not, in alternating order, so the tracing overhead compares the same
/// work under the same conditions.
pub fn run_traced(
    ctx: &Ctx,
    setup: &mut Setup,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let phase = Phase::begin();
    let mut ops = Ops::new(ctx.seed, setup);
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed() < ctx.budget {
        let d = ops.draw(setup);
        let order = if i % 2 == 0 { [&off, &on] } else { [&on, &off] };
        for tracer in order {
            let ms = one(setup, d, tracer, tally).ms;
            if tracer.on() {
                on_ms += ms;
            } else {
                off_ms += ms;
            }
        }
        i += 1;
    }
    layers::report(report, &on.spans(), &phase.end(), 0);
    report.value("db.archive_bytes_per_point", "B", setup.bytes_per_point());
    report.value("trace.overhead_frac", "ratio", on_ms / off_ms - 1.0);
    ctx.save_spans(&on);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_deal_of_the_mix_is_one_throughput_block() {
        let dealt: u32 = MIX.iter().map(|(_, w)| w).sum();
        assert_eq!(dealt as usize, MIX_BLOCK);
    }

    #[test]
    fn quick_rate_shares_a_kinds_weight_among_its_targets() {
        // Every kind costs 1 ms but event_aggregates, whose two targets
        // cost 2 and 4 ms: 75 × 1 + 12.5 × 2 + 12.5 × 4 = 150 ms per 100.
        let mut samples = Vec::new();
        for (op, _) in MIX {
            let targets: &[(usize, f64)] = if op == Op::Aggregates {
                &[(0, 2.0), (1, 4.0)]
            } else {
                &[(0, 1.0)]
            };
            for &(target, ms) in targets {
                samples.extend((0..3).map(|_| Sample { op, target, ms }));
            }
        }
        let rate = quick_rate(&samples);
        assert!((rate - 1e3 * 100.0 / 150.0).abs() < 1e-9, "{rate}");
    }
}
