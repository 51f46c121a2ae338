//! The benchmark's own spans around each public layer call, and the
//! per-layer accounting built from them.
//!
//! Untraced rounds carry no recorder, so every span is a no-op there; the
//! traced round of the same workload records into one [`TraceRecorder`].

use std::collections::BTreeMap;

use nvpim_obs::{Json, SpanGuard, SpanRecord, TraceContext, TraceRecorder};

use crate::round::Round;
use crate::Job;

/// Spans retained per round — far above what one round opens.
const SPAN_CAPACITY: usize = 1 << 18;

/// Where new spans go: nowhere (untraced) or under a parent span.
#[derive(Clone, Copy, Default)]
pub struct Tracer<'r>(Option<(&'r TraceRecorder, TraceContext)>);

/// An open span (or nothing, untraced) that can parent further spans.
pub struct Scope<'r> {
    recorder: Option<&'r TraceRecorder>,
    guard: Option<SpanGuard<'r>>,
}

impl<'r> Scope<'r> {
    /// Opens the root span of a new trace.
    #[must_use]
    pub fn root(recorder: Option<&'r TraceRecorder>, name: &str) -> Self {
        Scope { recorder, guard: recorder.map(|r| r.begin_trace(name)) }
    }

    /// A tracer parenting new spans under this one.
    #[must_use]
    pub fn tracer(&self) -> Tracer<'r> {
        Tracer(self.recorder.zip(self.guard.as_ref().map(SpanGuard::context)))
    }
}

impl<'r> Tracer<'r> {
    /// Opens a child span named `name`.
    #[must_use]
    pub fn span(self, name: &str) -> Scope<'r> {
        match self.0 {
            Some((recorder, ctx)) => {
                Scope { recorder: Some(recorder), guard: Some(recorder.span(ctx, name)) }
            }
            None => Scope { recorder: None, guard: None },
        }
    }
}

/// A fresh recorder for a traced round, `None` for an untraced one.
#[must_use]
pub fn recorder(traced: bool) -> Option<TraceRecorder> {
    traced.then(|| TraceRecorder::with_capacity(SPAN_CAPACITY))
}

/// Spans named `bench.*` or `exec.*` are the benchmark's own scaffolding
/// (round, verification, fan-out, cell); every other span wraps a call
/// into a named layer.
fn is_layer(name: &str) -> bool {
    !(name.starts_with("bench.") || name.starts_with("exec."))
}

/// Seconds of the round's measured time that no named layer covers.
///
/// The measured time is the `bench.round` root minus its `bench.verify`
/// children (verification is outside `run_s`). A moment counts as covered
/// when any thread is inside a named-layer span, so parallel cells are not
/// double counted and an idle worker at the tail shows as uncovered only
/// when every worker is idle.
#[must_use]
fn uncovered_s(spans: &[SpanRecord]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.name == "bench.round") else {
        return 0.0;
    };
    let (lo, hi) = (root.start_ns, root.start_ns + root.dur_ns);
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| is_layer(&s.name))
        .map(|s| (s.start_ns.max(lo), (s.start_ns + s.dur_ns).min(hi)))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut end = 0u64;
    for (start, stop) in intervals {
        let start = start.max(end);
        if stop > start {
            covered += stop - start;
            end = stop;
        }
    }
    let verify: u64 = spans.iter().filter(|s| s.name == "bench.verify").map(|s| s.dur_ns).sum();
    root.dur_ns.saturating_sub(verify).saturating_sub(covered) as f64 * 1e-9
}

/// Per-span-name self/total aggregation of one traced round, with the
/// uncovered measured time as an `other` row.
#[must_use]
fn flame_json(recorder: &TraceRecorder) -> Json {
    let spans = recorder.spans();
    let mut rows: Vec<Json> = recorder
        .flame()
        .into_iter()
        .map(|row| {
            Json::object()
                .with("name", row.name.as_str())
                .with("count", row.count)
                .with("total_s", row.total_ns as f64 * 1e-9)
                .with("self_s", row.self_ns as f64 * 1e-9)
        })
        .collect();
    let other = uncovered_s(&spans);
    rows.push(
        Json::object()
            .with("name", "other")
            .with("count", 1u64)
            .with("total_s", other)
            .with("self_s", other),
    );
    Json::Arr(rows)
}

/// Adds the traced round's flame table and attribution share, and writes
/// its Chrome trace next to the other artifacts.
pub fn finish(round: &mut Round, recorder: Option<TraceRecorder>, job: &Job, run_s: f64) {
    let Some(recorder) = recorder else { return };
    let spans = recorder.spans();
    round.layer("obs.attributed_share", 1.0 - uncovered_s(&spans) / run_s);
    round.flame = flame_json(&recorder);
    let path = job.out_dir.join(format!("{}-trace.json", job.workload.name()));
    if let Err(e) = std::fs::write(&path, recorder.chrome_trace()) {
        round.problems.push(format!("could not write {}: {e}", path.display()));
    }
}

/// One row of a merged flame table.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlameSum {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_s: f64,
    /// Summed self time.
    pub self_s: f64,
}

/// Adds one round's `flame` rows into `into`.
pub fn merge_flame(into: &mut BTreeMap<String, FlameSum>, rows: &Json) {
    for row in rows.as_array().unwrap_or_default() {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?").to_owned();
        let sum = into.entry(name).or_default();
        sum.count += row.get("count").and_then(Json::as_u64).unwrap_or(0);
        sum.total_s += row.get("total_s").and_then(Json::as_f64).unwrap_or(0.0);
        sum.self_s += row.get("self_s").and_then(Json::as_f64).unwrap_or(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_scopes_record_nothing() {
        let scope = Scope::root(None, "bench.round");
        let _inner = scope.tracer().span("analytic.query.lazy");
        assert!(scope.tracer().0.is_none());
    }

    #[test]
    fn overlapping_layers_are_not_double_counted() {
        let rec = TraceRecorder::new();
        {
            let root = Scope::root(Some(&rec), "bench.round");
            let t = root.tracer();
            let _a = t.span("analytic.query.lazy");
            let _b = t.span("analytic.query.lazy");
        }
        let spans = rec.spans();
        let other = uncovered_s(&spans);
        let root = spans.iter().find(|s| s.name == "bench.round").unwrap();
        assert!(other >= 0.0 && other <= root.dur_ns as f64 * 1e-9);
    }
}
