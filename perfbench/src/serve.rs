//! `serve`: the PerfExplorer client-server path (§5.3) over
//! `perfdmf-server` on loopback, in the same process.
//!
//! Set-up stores sPPM hardware-counter trials in an on-disk archive,
//! computes every expected answer through an in-process
//! `ExplorerClient`, and starts the server. Two `NetClient` connections
//! then run an open loop: each request has a due time fixed by the
//! offered rate and is timed from that due time, so a stall also counts
//! against the requests queued behind it. The mix is mostly `Ping` and
//! `FetchResult` with a small seeded share of `CorrelateMetrics`, which
//! writes its result into the archive beside the reads.
//!
//! The offered rate climbs a fixed ladder. A step passes when its tail
//! latency meets [`LIMIT_MS`] (failed, refused and never-sent requests
//! count as missing it) and the backlog of due-but-unsent requests does
//! not grow. Latency is reported at [`REFERENCE_RPS`]; throughput is the
//! highest rate any step achieved, which once a step offers more than
//! can be served is the capacity. The whole process runs on one CPU
//! ([`pin_to_one_cpu`]).

use crate::layers::{self, Phase, SERVE_KINDS};
use crate::mix::Deck;
use crate::oracle::{response_matches, Tally};
use crate::report::{Pick, Report};
use crate::stats::{max_passing_rate, saturation_rate, RungOutcome, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_explorer::{AnalysisServer, ExplorerClient, Request, Response, RetryPolicy};
use perfdmf_server::{NetClient, PerfdmfServer, ServerConfig};
use perfdmf_workload::SppmModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Offered rates (requests per second, both connections together).
/// The ladder, the reference rate and [`MIX`] are assumed traffic, not
/// measured use; `README.md` says what rests on them.
const LADDER: [f64; 6] = [250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0];
/// The rate at which `p50_ms` and `tail_ms` are reported.
const REFERENCE_RPS: f64 = 500.0;
/// Tail-latency limit a ladder step must meet.
const LIMIT_MS: f64 = 50.0;
/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;
/// Counter trials in the archive and their threads. Requests target
/// [`ANALYZED`] small trials of [`ANALYZED_METRICS`] counters; the rest
/// give the archive its bulk. `FetchResult` scans every stored analysis
/// result and each `CorrelateMetrics` stores a metrics x metrics matrix,
/// so small matrices keep the scan from growing much during a run.
const TRIALS: usize = 48;
const TRIAL_THREADS: usize = 64;
const ANALYZED: usize = 4;
const ANALYZED_THREADS: usize = 16;
const ANALYZED_METRICS: usize = 3;
/// Request mix per 100 requests of each connection, by kind: ping,
/// fetch, correlate.
const MIX: [(usize, u32); 3] = [(0, 70), (1, 28), (2, 2)];
/// Backlog (requests) a step may end with before growth counts.
const BACKLOG_SLACK: usize = 8;
const EVENT: &str = "sppm_timestep";

/// The requests the mix draws from, with their expected answers.
struct Plan {
    trials: Vec<i64>,
    correlations: Vec<Response>,
    stored: Vec<(i64, Response)>,
}

/// The archive, both servers, the clients and the request plan.
pub struct Setup {
    server: PerfdmfServer,
    inproc: AnalysisServer,
    explorer: ExplorerClient,
    clients: Vec<NetClient>,
    plan: Plan,
    dir: PathBuf,
    points: usize,
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// last CPU it may run on. Returns that CPU.
///
/// Call before any thread exists. On a small VM, where the scheduler put
/// the client, event-loop and worker threads changed request latency by
/// up to 3x from one run to the next; on one CPU it does not.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1024 CPUs
    let size = WORDS * 8;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Build the archive under `dir`, answer every request in process, start
/// the server and connect the clients.
pub fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let e = |e: perfdmf_db::DbError| e.to_string();
    let conn = Connection::open(dir).map_err(e)?;
    let mut session = DatabaseSession::new(conn.clone()).map_err(e)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e77e);
    let mut trials = Vec::new();
    let mut points = 0;
    for i in 0..TRIALS {
        let mut model = SppmModel::default_classes(rng.gen());
        let mut threads = TRIAL_THREADS;
        if i < ANALYZED {
            threads = ANALYZED_THREADS;
            model.metrics.truncate(ANALYZED_METRICS);
            for class in &mut model.classes {
                class.metric_means.truncate(ANALYZED_METRICS);
            }
        }
        let (profile, _) = model.generate(threads, &[0.5, 0.3, 0.2]);
        points += profile.data_point_count();
        trials.push(
            session
                .store_profile("sppm", "counters", &profile)
                .map_err(e)?,
        );
    }
    let inproc = AnalysisServer::start(conn.clone(), CONNECTIONS).map_err(e)?;
    let explorer = ExplorerClient::connect(&inproc);
    let mut correlations = Vec::new();
    let mut stored = Vec::new();
    trials.truncate(ANALYZED);
    for &trial in &trials {
        let answer = explorer.correlate(trial, EVENT);
        let Response::Correlation { settings_id, .. } = answer else {
            return Err(format!("set-up correlate of trial {trial}: {answer:?}"));
        };
        let fetched = explorer.fetch(settings_id);
        if !matches!(fetched, Response::Stored { .. }) {
            return Err(format!("set-up fetch of {settings_id}: {fetched:?}"));
        }
        correlations.push(answer);
        stored.push((settings_id, fetched));
    }
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: CONNECTIONS,
            ..ServerConfig::default()
        },
    )
    .map_err(e)?;
    let mut clients: Vec<NetClient> = (0..CONNECTIONS)
        .map(|c| {
            NetClient::new(server.addr(), format!("perfbench-{c}")).with_policy(RetryPolicy::none())
        })
        .collect();
    for c in &mut clients {
        if !c.ping() {
            return Err("server did not answer the first ping".into());
        }
    }
    Ok(Setup {
        server,
        inproc,
        explorer,
        clients,
        plan: Plan {
            trials,
            correlations,
            stored,
        },
        dir: dir.to_path_buf(),
        points,
    })
}

impl Setup {
    /// Archive size on disk per stored data point.
    fn bytes_per_point(&self) -> f64 {
        crate::dir_bytes(&self.dir) as f64 / self.points as f64
    }

    /// Close the clients and stop both servers.
    pub fn teardown(self) {
        for c in self.clients {
            c.close();
        }
        self.server.shutdown();
        self.inproc.shutdown();
    }
}

impl Plan {
    /// A seeded request of `kind` with its expected answer.
    fn draw(&self, kind: usize, rng: &mut StdRng) -> (Request, &Response) {
        match kind {
            0 => (Request::Ping, &Response::Pong),
            1 => {
                let (id, answer) = &self.stored[rng.gen_range(0..self.stored.len())];
                (Request::FetchResult { settings_id: *id }, answer)
            }
            _ => {
                let i = rng.gen_range(0..self.trials.len());
                let request = Request::CorrelateMetrics {
                    trial_id: self.trials[i],
                    event: EVENT.into(),
                };
                (request, &self.correlations[i])
            }
        }
    }
}

/// Sleep until `due`. Oversleeping shows up as generator lateness, and
/// in the latency, which runs from the due time.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One request's outcome.
struct Sent {
    /// Request kind, an index into [`SERVE_KINDS`].
    kind: usize,
    /// Whether the request ran under a recording tracer.
    traced: bool,
    /// From due time to reply, ms; infinite when failed or never sent.
    ms: f64,
    /// From due time to send, ms.
    late_ms: f64,
}

/// What one connection's generator saw during a step.
#[derive(Default)]
struct Generator {
    sent: Vec<Sent>,
    refused: usize,
    last_done: Option<Instant>,
    backlog_mid: usize,
    backlog_end: usize,
    tally: Tally,
}

/// Drive one connection at `rate` for `dur`, starting at `start`.
/// Requests take turns with `tracers`.
fn generate(
    plan: &Plan,
    client: &mut NetClient,
    rate: f64,
    start: Instant,
    dur: Duration,
    mut rng: StdRng,
    tracers: &[&Tracer],
) -> Generator {
    let mut deck = Deck::new(&MIX);
    let end = start + dur;
    let mid = start + dur / 2;
    let due_by = |t: Instant| -> usize {
        if t < start {
            0
        } else {
            ((t - start).as_secs_f64() * rate) as usize + 1
        }
    };
    let total = due_by(end - Duration::from_nanos(1));
    let mut g = Generator::default();
    let mut mid_seen = false;
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        wait_until(due);
        let now = Instant::now();
        if !mid_seen && now >= mid {
            mid_seen = true;
            g.backlog_mid = due_by(now).saturating_sub(i);
        }
        if now >= end {
            // Due but never sent: the backlog. Each one misses the
            // latency limit; none was attempted, so none is an error.
            g.backlog_end = total - i;
            for _ in i..total {
                g.sent.push(Sent {
                    kind: usize::MAX,
                    traced: false,
                    ms: f64::INFINITY,
                    late_ms: f64::INFINITY,
                });
            }
            break;
        }
        let kind = deck.deal(&mut rng);
        let (request, expected) = plan.draw(kind, &mut rng);
        let late_ms = (now - due).as_secs_f64() * 1e3;
        let tracer = tracers[i % tracers.len()];
        let reply = {
            let _s = tracer.span(server_span(kind), None, tracer.next_op());
            client.request(request)
        };
        let done = Instant::now();
        g.last_done = Some(done);
        let ms = (done - due).as_secs_f64() * 1e3;
        // Admission control shedding load past capacity is a refusal: it
        // misses the latency limit but is not a wrong answer.
        let refused = matches!(
            reply,
            Response::Overloaded
                | Response::Failed {
                    retryable: true,
                    ..
                }
        );
        let ok = if refused {
            g.refused += 1;
            false
        } else {
            let check = response_matches(expected, &reply);
            let ok = check.is_ok();
            g.tally.record("serve request", check);
            ok
        };
        g.sent.push(Sent {
            kind,
            traced: tracer.on(),
            ms: if ok { ms } else { f64::INFINITY },
            late_ms,
        });
    }
    g
}

fn server_span(kind: usize) -> &'static str {
    ["server.ping", "server.fetch", "server.correlate"][kind]
}

fn explorer_span(kind: usize) -> &'static str {
    ["explorer.ping", "explorer.fetch", "explorer.correlate"][kind]
}

/// A finished ladder step.
struct Step {
    outcome: RungOutcome,
    sent: Vec<Sent>,
    refused: usize,
    backlog_mid: usize,
    backlog_end: usize,
}

impl Step {
    fn ms(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.ms).collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.late_ms).collect()
    }
}

/// Offer `rate` over all connections for `dur`.
fn step(
    setup: &mut Setup,
    rate: f64,
    dur: Duration,
    seed: u64,
    tracers: &[&Tracer],
    tally: &mut Tally,
) -> Step {
    let per_conn = rate / CONNECTIONS as f64;
    let start = Instant::now() + Duration::from_millis(5);
    let plan = &setup.plan;
    let gens: Vec<Generator> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                // Stagger the connections so their requests interleave.
                let offset = Duration::from_secs_f64(c as f64 / rate);
                let rng = StdRng::seed_from_u64(seed ^ (rate as u64) << 8 ^ c as u64);
                scope.spawn(move || {
                    generate(plan, client, per_conn, start + offset, dur, rng, tracers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let last_done = gens.iter().filter_map(|g| g.last_done).max();
    let elapsed = last_done.map_or(0.0, |t| (t - start).as_secs_f64());
    let mut sent = Vec::new();
    let (mut backlog_mid, mut backlog_end, mut refused) = (0, 0, 0);
    for g in gens {
        refused += g.refused;
        backlog_mid += g.backlog_mid;
        backlog_end += g.backlog_end;
        tally.merge(g.tally);
        sent.extend(g.sent);
    }
    let ms: Vec<f64> = sent.iter().map(|s| s.ms).collect();
    let completed = ms.iter().filter(|x| x.is_finite()).count();
    let outcome = RungOutcome {
        offered_rps: rate,
        // Completions over the span from the first due time to the last
        // reply.
        achieved_rps: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        tail_ms: Summary::of(&ms).map_or(f64::INFINITY, |s| s.tail),
        backlog_grew: backlog_end > backlog_mid && backlog_end > BACKLOG_SLACK,
    };
    Step {
        outcome,
        sent,
        refused,
        backlog_mid,
        backlog_end,
    }
}

fn describe(step: &Step) -> String {
    let s = Summary::of(&step.ms());
    let late = Summary::of(&step.late_ms());
    format!(
        "serve step {:>6.0} rps: achieved {:>8.1} rps, p50 {:.3} ms, p{} {:.3} ms, late p{} {:.3} ms, backlog {} -> {}, refused {}, n={} {}",
        step.outcome.offered_rps,
        step.outcome.achieved_rps,
        s.as_ref().map_or(0.0, |s| s.p50),
        s.as_ref().map_or(0.0, |s| s.tail_pct),
        step.outcome.tail_ms,
        late.as_ref().map_or(0.0, |s| s.tail_pct),
        late.as_ref().map_or(0.0, |s| s.tail),
        step.backlog_mid,
        step.backlog_end,
        step.refused,
        step.sent.len(),
        if step.outcome.passes(LIMIT_MS) { "pass" } else { "FAIL" }
    )
}

/// Share of the budget the reference step gets; the other ladder steps
/// split the rest.
const REFERENCE_SHARE: f64 = 0.6;

/// The timed part, untraced: climb the ladder.
pub fn run(
    ctx: &Ctx,
    mut setup: Setup,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    report.value("archive_bytes_per_point", "B", setup.bytes_per_point());
    let tracer = Tracer::new(false);
    let ref_dur = ctx.budget.mul_f64(REFERENCE_SHARE);
    let other_dur = ctx
        .budget
        .mul_f64((1.0 - REFERENCE_SHARE) / (LADDER.len() - 1) as f64);
    let mut outcomes = Vec::new();
    let mut reference = None;
    let mut failures_in_a_row = 0;
    for rate in LADDER {
        let dur = if rate == REFERENCE_RPS {
            ref_dur
        } else {
            other_dur
        };
        let s = step(&mut setup, rate, dur, ctx.seed, &[&tracer], tally);
        report.note(describe(&s));
        failures_in_a_row = if s.outcome.passes(LIMIT_MS) {
            0
        } else {
            failures_in_a_row + 1
        };
        outcomes.push(s.outcome.clone());
        if rate == REFERENCE_RPS {
            reference = Some(s);
        }
        if failures_in_a_row == 2 && reference.is_some() {
            break;
        }
    }
    let reference = reference.expect("the ladder includes the reference rate");
    let best = max_passing_rate(&outcomes, LIMIT_MS);
    report.value("serve_max_rps", "1/s", best.map_or(0.0, |b| b.achieved_rps));
    report.value(
        "throughput_per_s",
        "1/s",
        saturation_rate(&outcomes).unwrap_or(0.0),
    );
    report.samples("p50_ms", "ms", &reference.ms(), Pick::Median);
    report.samples("tail_ms", "ms", &reference.ms(), Pick::Tail);
    report.alias("serve_p50_ms", "p50_ms");
    report.alias("serve_p99_ms", "tail_ms");
    for (k, name) in SERVE_KINDS.iter().enumerate() {
        let ms: Vec<f64> = reference
            .sent
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.ms)
            .collect();
        report.samples(&format!("serve_{name}_p50_ms"), "ms", &ms, Pick::Median);
    }
    report.samples("serve_late_ms", "ms", &reference.late_ms(), Pick::Tail);
    report.value("serve_backlog", "count", reference.backlog_end as f64);
    report.note(format!(
        "serve: limit tail <= {LIMIT_MS} ms, reference {REFERENCE_RPS} rps, {CONNECTIONS} connections, mix (kind, per 100) ping/fetch/correlate = {MIX:?}"
    ));
    setup.teardown();
    Ok(())
}

/// The traced run: the reference step with requests alternating between
/// traced and untraced, then the same mix in process and fresh
/// connections, traced.
pub fn run_traced(
    ctx: &Ctx,
    mut setup: Setup,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let bytes_per_point = setup.bytes_per_point();
    let tracer = Tracer::new(true);
    let phase = Phase::begin();
    // The same seeded mix through the in-process explorer, closed loop,
    // before and after the network step: `FetchResult` slows as the step
    // stores correlations, and the two halves bracket the archive the
    // step saw.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x19c0c);
    let mut deck = Deck::new(&MIX);
    let mut in_process = |setup: &Setup, tally: &mut Tally| {
        let started = Instant::now();
        while started.elapsed() < ctx.budget.mul_f64(0.15) {
            let kind = deck.deal(&mut rng);
            let (request, expected) = setup.plan.draw(kind, &mut rng);
            let reply = {
                let _s = tracer.span(explorer_span(kind), None, tracer.next_op());
                setup.explorer.request(request)
            };
            tally.record("explorer request", response_matches(expected, &reply));
        }
    };
    in_process(&setup, tally);
    let both = step(
        &mut setup,
        REFERENCE_RPS,
        ctx.budget.mul_f64(0.6),
        ctx.seed,
        &[&Tracer::new(false), &tracer],
        tally,
    );
    in_process(&setup, tally);
    for c in 0..20 {
        let mut client = NetClient::new(setup.server.addr(), format!("perfbench-connect-{c}"))
            .with_policy(RetryPolicy::none());
        let ok = {
            let _s = tracer.span("server.connect", None, tracer.next_op());
            client.ping()
        };
        tally.record("connect", if ok { Ok(()) } else { Err("no pong".into()) });
        client.close();
    }
    layers::report(report, &tracer.spans(), &phase.end(), 0);
    report.value("db.archive_bytes_per_point", "B", bytes_per_point);
    let late = Summary::of(&both.late_ms()).map_or(0.0, |s| s.tail);
    report.value("serve.late_ms", "ms", late);
    report.value("serve.backlog", "count", both.backlog_end as f64);
    let mean_ms = |traced: bool| {
        let v: Vec<f64> = both
            .sent
            .iter()
            .filter(|s| s.traced == traced && s.ms.is_finite())
            .map(|s| s.ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    report.value(
        "trace.overhead_frac",
        "ratio",
        mean_ms(true) / mean_ms(false) - 1.0,
    );
    ctx.save_spans(&tracer);
    setup.teardown();
    Ok(())
}
