//! Per-layer metrics of a traced phase: self time from the benchmark's
//! spans, ratios from the program's own telemetry counters.
//!
//! Every workload reports every per-layer metric; a layer the workload
//! does not call reads 0.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{durations_ms, self_ns_by_layer, SpanRecord};
use std::collections::BTreeMap;

/// The layer crates whose self time is reported.
pub const LAYERS: [&str; 6] = ["import", "core", "db", "analysis", "explorer", "server"];

/// Request kinds of the `serve` mix, as used in span names.
pub const SERVE_KINDS: [&str; 3] = ["ping", "fetch", "correlate"];

/// Telemetry counters read before and after the traced phase.
const COUNTERS: [&str; 6] = [
    "db.wal.fsyncs",
    "db.wal.commit_batches",
    "db.colcache.chunk_hits",
    "db.colcache.chunk_misses",
    "pool.runs",
    "pool.serial_fallbacks",
];

/// Counter values at the start of a traced phase.
pub struct Phase {
    before: BTreeMap<&'static str, u64>,
}

fn read_counters() -> BTreeMap<&'static str, u64> {
    let snap = perfdmf_telemetry::snapshot();
    COUNTERS
        .iter()
        .map(|&name| (name, snap.counter(name).map_or(0, |c| c.value)))
        .collect()
}

impl Phase {
    /// Snapshot the counters.
    pub fn begin() -> Phase {
        Phase {
            before: read_counters(),
        }
    }

    /// Counter increments since [`Phase::begin`].
    pub fn end(&self) -> BTreeMap<&'static str, u64> {
        read_counters()
            .into_iter()
            .map(|(k, v)| (k, v.saturating_sub(self.before[k])))
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total_ms(spans: &[SpanRecord], pred: impl Fn(&SpanRecord) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pred(s))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Report the span- and counter-derived per-layer metrics. `trials` is
/// the number of trials stored in the phase.
pub fn report(
    report: &mut Report,
    spans: &[SpanRecord],
    counters: &BTreeMap<&'static str, u64>,
    trials: usize,
) {
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    let root_ms: f64 = roots
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    let self_ns = self_ns_by_layer(spans);
    for layer in LAYERS {
        let own_ms = self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        report.value(
            &format!("{layer}.self_ms_per_op"),
            "ms",
            ratio(own_ms, roots.len() as f64),
        );
        report.value(
            &format!("{layer}.self_share"),
            "ratio",
            ratio(own_ms, root_ms),
        );
    }

    let med = |name: &str| median(&durations_ms(spans, name));
    report.value("import.tau_ms", "ms", med("import.tau"));
    report.value("import.xml_ms", "ms", med("import.xml"));
    report.value("import.text_ms", "ms", med("import.text"));
    report.value(
        "import.busy_share",
        "ratio",
        ratio(total_ms(spans, |s| s.layer() == "import"), root_ms),
    );
    report.value("core.store_ms", "ms", med("core.store"));
    report.value(
        "core.store_busy_share",
        "ratio",
        ratio(total_ms(spans, |s| s.name == "core.store"), root_ms),
    );
    report.value(
        "core.event_aggregates_ms",
        "ms",
        med("core.event_aggregates"),
    );
    report.value("core.load_trial_ms", "ms", med("core.load_trial"));
    report.value("core.load_filtered_ms", "ms", med("core.load_filtered"));
    report.value("analysis.speedup_ms", "ms", med("analysis.speedup"));
    let speedup_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "op.speedup")
        .map(|s| s.id)
        .collect();
    report.value(
        "analysis.load_share",
        "ratio",
        ratio(
            total_ms(spans, |s| {
                s.name == "core.load_trial" && speedup_ids.contains(&s.parent)
            }),
            total_ms(spans, |s| s.name == "op.speedup"),
        ),
    );
    for kind in SERVE_KINDS {
        let explorer = med(&format!("explorer.{kind}"));
        let server = med(&format!("server.{kind}"));
        report.value(&format!("explorer.request_ms.{kind}"), "ms", explorer);
        let hop_us = if explorer > 0.0 && server > 0.0 {
            (server - explorer) * 1e3
        } else {
            0.0
        };
        report.value(&format!("server.hop_us.{kind}"), "us", hop_us);
    }
    report.value("server.connect_ms", "ms", med("server.connect"));

    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    // Under `Durability::Buffered`, which every workload uses, the WAL
    // never fsyncs and `db.fsyncs_per_trial` reads 0; commit batches are
    // the writes to the OS each trial costs under either policy.
    report.value(
        "db.fsyncs_per_trial",
        "count",
        ratio(c("db.wal.fsyncs"), trials as f64),
    );
    report.value(
        "db.wal_batches_per_trial",
        "count",
        ratio(c("db.wal.commit_batches"), trials as f64),
    );
    report.value(
        "db.colcache_hit_ratio",
        "ratio",
        ratio(
            c("db.colcache.chunk_hits"),
            c("db.colcache.chunk_hits") + c("db.colcache.chunk_misses"),
        ),
    );
    report.value(
        "pool.serial_share",
        "ratio",
        ratio(
            c("pool.serial_fallbacks"),
            c("pool.serial_fallbacks") + c("pool.runs"),
        ),
    );
    // Workload-specific layer metrics default to 0; the workload that
    // measures them overwrites these.
    for (name, unit) in [
        ("db.reopen_us_per_row", "us"),
        ("db.wal_bytes_per_point", "B"),
        ("db.archive_bytes_per_point", "B"),
        ("serve.late_ms", "ms"),
        ("serve.backlog", "count"),
    ] {
        report.value(name, unit, 0.0);
    }
}
