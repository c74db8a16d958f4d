//! Answer checks. Every operation the benchmark times is checked against
//! an answer computed independently in set-up; a mismatch counts as a
//! failed operation, exactly like an error returned by the program.

use perfdmf_analysis::{ApplicationScaling, RoutineSpeedup};
use perfdmf_core::EventAggregate;
use perfdmf_explorer::Response;
use perfdmf_profile::{EventId, IntervalField, MetricId, Profile, ThreadId};

/// Outcome of one check: `Err` carries what differed.
pub type Check = Result<(), String>;

/// Attempted and failed operations of a run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation and its check.
    pub fn record(&mut self, what: &str, check: Check) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("{what}: {why}"));
            }
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Relative float comparison for values the database recomputes
/// (AVG/STDDEV merge partial sums in a different order than Welford).
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Does `got` hold exactly the data of `expected` (by event, metric and
/// thread name, so storage order may differ)? With `node` set, only that
/// node's threads are expected.
pub fn profile_matches(expected: &Profile, got: &Profile, node: Option<u32>) -> Check {
    let keep = |t: &ThreadId| node.is_none_or(|n| t.node == n);
    let mut want_threads: Vec<ThreadId> = expected.threads().iter().copied().filter(keep).collect();
    let mut got_threads = got.threads().to_vec();
    want_threads.sort_by_key(|t| (t.node, t.context, t.thread));
    got_threads.sort_by_key(|t| (t.node, t.context, t.thread));
    if want_threads != got_threads {
        return Err(format!(
            "threads: want {} got {}",
            want_threads.len(),
            got_threads.len()
        ));
    }
    let mut want_points = 0usize;
    for (mi, metric) in expected.metrics().iter().enumerate() {
        let gm = got
            .find_metric(&metric.name)
            .ok_or_else(|| format!("metric {} missing", metric.name))?;
        for (e, t, d) in expected.iter_metric(MetricId(mi)) {
            if !keep(&t) {
                continue;
            }
            want_points += 1;
            let event = expected.event(e);
            let ge = got
                .find_event(&event.name)
                .ok_or_else(|| format!("event {} missing", event.name))?;
            if got.event(ge).group != event.group {
                return Err(format!("event {} group differs", event.name));
            }
            let g = got
                .interval(ge, t, gm)
                .ok_or_else(|| format!("{} @ {t:?} missing", event.name))?;
            let same = g.inclusive() == d.inclusive()
                && g.exclusive() == d.exclusive()
                && g.calls() == d.calls()
                && g.subroutines() == d.subroutines();
            if !same {
                return Err(format!("{} @ {t:?}: want {d:?} got {g:?}", event.name));
            }
        }
    }
    if got.data_point_count() != want_points {
        return Err(format!(
            "data points: want {want_points} got {}",
            got.data_point_count()
        ));
    }
    for (ae, t, d) in expected.iter_atomic().filter(|(_, t, _)| keep(t)) {
        let name = &expected.atomic_events()[ae.0].name;
        let g = got
            .find_atomic_event(name)
            .and_then(|ge| got.atomic(ge, t))
            .ok_or_else(|| format!("atomic {name} @ {t:?} missing"))?;
        if g.count != d.count || g.min != d.min || g.max != d.max || !close(g.mean, d.mean) {
            return Err(format!("atomic {name} @ {t:?}: want {d:?} got {g:?}"));
        }
    }
    Ok(())
}

/// Expected SQL aggregate of one event, from `Profile::event_stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedAggregate {
    /// Event name.
    pub name: String,
    /// Threads with data.
    pub count: i64,
    /// MIN(exclusive).
    pub min: f64,
    /// MAX(exclusive).
    pub max: f64,
    /// AVG(exclusive).
    pub mean: f64,
    /// STDDEV(exclusive), sample form.
    pub stddev: f64,
    /// AVG(inclusive).
    pub mean_inclusive: f64,
}

/// The aggregates `DatabaseSession::event_aggregates` should return for
/// one trial's metric, computed in memory.
pub fn expected_aggregates(profile: &Profile, metric: &str) -> Vec<ExpectedAggregate> {
    let Some(m) = profile.find_metric(metric) else {
        return Vec::new();
    };
    (0..profile.events().len())
        .filter_map(|ei| {
            let e = EventId(ei);
            let ex = profile.event_stats(e, m, IntervalField::Exclusive)?;
            let inc = profile.event_stats(e, m, IntervalField::Inclusive)?;
            Some(ExpectedAggregate {
                name: profile.event(e).name.clone(),
                count: ex.count as i64,
                min: ex.min,
                max: ex.max,
                mean: ex.mean,
                stddev: ex.stddev,
                mean_inclusive: inc.mean,
            })
        })
        .collect()
}

/// Check SQL aggregates against the in-memory ones.
pub fn aggregates_match(expected: &[ExpectedAggregate], got: &[EventAggregate]) -> Check {
    if expected.len() != got.len() {
        return Err(format!("rows: want {} got {}", expected.len(), got.len()));
    }
    for want in expected {
        let g = got
            .iter()
            .find(|g| g.event_name == want.name)
            .ok_or_else(|| format!("event {} missing", want.name))?;
        // A single thread has no sample deviation: SQL says NULL, the
        // in-memory statistic says 0.
        let stddev_ok = if want.count < 2 {
            g.stddev_exclusive.is_none_or(|s| s == 0.0)
        } else {
            close_opt(g.stddev_exclusive, Some(want.stddev))
        };
        let same = g.count == want.count
            && close_opt(g.min_exclusive, Some(want.min))
            && close_opt(g.max_exclusive, Some(want.max))
            && close_opt(g.mean_exclusive, Some(want.mean))
            && close_opt(g.mean_inclusive, Some(want.mean_inclusive))
            && stddev_ok;
        if !same {
            return Err(format!("{}: want {want:?} got {g:?}", want.name));
        }
    }
    Ok(())
}

/// Check a speedup study against the in-memory analyzer's answer.
pub fn speedup_matches(
    expected: &(Vec<RoutineSpeedup>, Option<ApplicationScaling>),
    got: &(Vec<RoutineSpeedup>, Option<ApplicationScaling>),
) -> Check {
    let (want_r, want_a) = expected;
    let (got_r, got_a) = got;
    if want_r.len() != got_r.len() {
        return Err(format!(
            "routines: want {} got {}",
            want_r.len(),
            got_r.len()
        ));
    }
    for (w, g) in want_r.iter().zip(got_r) {
        let same = w.event == g.event
            && w.points.len() == g.points.len()
            && w.points.iter().zip(&g.points).all(|(a, b)| {
                a.processors == b.processors
                    && close(a.min, b.min)
                    && close(a.mean, b.mean)
                    && close(a.max, b.max)
            });
        if !same {
            return Err(format!("routine {} differs", w.event));
        }
    }
    let app_same = match (want_a, got_a) {
        (Some(w), Some(g)) => {
            w.points.len() == g.points.len()
                && w.points
                    .iter()
                    .zip(&g.points)
                    .all(|(a, b)| a.0 == b.0 && close(a.1, b.1) && close(a.2, b.2))
                && close_opt(w.amdahl_serial_fraction, g.amdahl_serial_fraction)
        }
        (None, None) => true,
        _ => false,
    };
    if app_same {
        Ok(())
    } else {
        Err("application scaling differs".into())
    }
}

/// Check a network reply against the in-process explorer's answer.
/// Correlations are compared without their settings id, which each run
/// of the analysis allocates afresh.
pub fn response_matches(expected: &Response, got: &Response) -> Check {
    let same = match (expected, got) {
        (
            Response::Correlation {
                metrics: wm,
                matrix: wx,
                ..
            },
            Response::Correlation {
                metrics: gm,
                matrix: gx,
                ..
            },
        ) => {
            wm == gm
                && wx.len() == gx.len()
                && wx
                    .iter()
                    .zip(gx)
                    .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y)))
        }
        (w, g) => w == g,
    };
    if same {
        Ok(())
    } else {
        Err(format!("want {} got {}", brief(expected), brief(got)))
    }
}

fn brief(r: &Response) -> String {
    let text = format!("{r:?}");
    text.chars().take(120).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_core::DatabaseSession;
    use perfdmf_db::Connection;
    use perfdmf_workload::Evh1Model;

    const METRIC: &str = "GET_TIME_OF_DAY";

    fn stored(procs: usize) -> (Profile, DatabaseSession) {
        let truth = Evh1Model::default_mix(7).generate(procs);
        let mut session = DatabaseSession::new(Connection::open_in_memory()).unwrap();
        let trial = session.store_profile("app", "exp", &truth).unwrap();
        session.set_trial(trial);
        (truth, session)
    }

    #[test]
    fn sql_aggregates_match_event_stats() {
        for procs in [1, 8] {
            let (truth, session) = stored(procs);
            let got = session.event_aggregates(METRIC).unwrap();
            let want = expected_aggregates(&truth, METRIC);
            assert_eq!(aggregates_match(&want, &got), Ok(()));
        }
    }

    #[test]
    fn injected_wrong_aggregate_shows_in_error_rate() {
        let (truth, session) = stored(8);
        let want = expected_aggregates(&truth, METRIC);
        let mut tally = Tally::default();
        for i in 0..4 {
            let mut got = session.event_aggregates(METRIC).unwrap();
            if i == 2 {
                let row = &mut got[5];
                row.max_exclusive = row.max_exclusive.map(|x| x * (1.0 + 1e-6));
            }
            tally.record("event_aggregates", aggregates_match(&want, &got));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.error_rate(), 0.25);
        assert!(tally.first_failure.unwrap().contains("event_aggregates"));
    }

    #[test]
    fn missing_aggregate_row_fails() {
        let (truth, session) = stored(4);
        let mut got = session.event_aggregates(METRIC).unwrap();
        got.pop();
        assert!(aggregates_match(&expected_aggregates(&truth, METRIC), &got).is_err());
    }

    #[test]
    fn reloaded_profile_matches_and_filters_by_node() {
        let (truth, session) = stored(4);
        let conn = session.connection();
        let trial = session.selected_trial().unwrap();
        let back = perfdmf_core::load_trial(conn, trial).unwrap();
        assert_eq!(profile_matches(&truth, &back, None), Ok(()));
        let filter = perfdmf_core::LoadFilter {
            node: Some(2),
            ..Default::default()
        };
        let one = perfdmf_core::load_trial_filtered(conn, trial, &filter).unwrap();
        assert_eq!(profile_matches(&truth, &one, Some(2)), Ok(()));
        assert!(profile_matches(&truth, &one, None).is_err());
    }

    #[test]
    fn changed_value_fails_the_profile_check() {
        let truth = Evh1Model::default_mix(3).generate(2);
        let mut other = Evh1Model::default_mix(4).generate(2);
        assert!(profile_matches(&truth, &other, None).is_err());
        other = truth.clone();
        assert_eq!(profile_matches(&truth, &other, None), Ok(()));
    }

    #[test]
    fn correlation_ignores_settings_id_only() {
        let a = Response::Correlation {
            settings_id: 1,
            metrics: vec!["A".into(), "B".into()],
            matrix: vec![vec![1.0, 0.5], vec![0.5, 1.0]],
        };
        let mut b = a.clone();
        if let Response::Correlation { settings_id, .. } = &mut b {
            *settings_id = 9;
        }
        assert_eq!(response_matches(&a, &b), Ok(()));
        if let Response::Correlation { matrix, .. } = &mut b {
            matrix[0][1] = 0.6;
        }
        assert!(response_matches(&a, &b).is_err());
        assert!(response_matches(&Response::Pong, &Response::Overloaded).is_err());
    }
}
