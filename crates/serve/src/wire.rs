//! The canonical JSON wire format shared by the service and the CLI.
//!
//! Everything here renders through [`nvpim_obs::Json`], whose objects are
//! `BTreeMap`s — field order is deterministic, so a result document for a
//! given request is byte-identical across runs, servers, and the `repro
//! --json` path. That byte-stability is what makes the content-addressed
//! cache sound *and* testable (the integration suite asserts identical
//! bodies for identical requests).

use nvpim_core::{EpochSample, LifetimeModel, SimResult};
use nvpim_obs::Json;

use crate::hash::key_hex;
use crate::request::SimRequest;

/// Schema tag of a single-simulation result document.
pub const RESULT_SCHEMA: &str = "nvpim.serve-result/v1";

/// Schema tag of a `repro --json` report envelope.
pub const REPORT_SCHEMA: &str = "nvpim.report/v1";

/// One epoch of the wear trajectory as wire JSON (shared by result
/// documents and `RunManifest`s).
#[must_use]
pub fn epoch_sample_json(sample: &EpochSample) -> Json {
    Json::object()
        .with("iteration", sample.iteration)
        .with("epoch", sample.epoch)
        .with("max_writes", sample.max_writes)
        .with("p99_writes", sample.p99_writes)
        .with("mean_writes", Json::Num(sample.mean_writes))
        .with("gini", Json::Num(sample.gini))
        .with("remaps", sample.remaps)
}

/// Renders the full result document for one served simulation.
#[must_use]
pub fn result_json(request: &SimRequest, result: &SimResult) -> Json {
    keyed_result_json(request, request.cache_key(), result)
}

/// [`result_json`] for a request whose cache key the caller already holds.
fn keyed_result_json(request: &SimRequest, key: u64, result: &SimResult) -> Json {
    let model = LifetimeModel::for_technology(request.technology);
    let lifetime = model.lifetime(result);
    let mut body = Json::object()
        .with("iterations", result.iterations)
        .with("steps_per_iteration", result.steps_per_iteration)
        .with("total_writes", result.total_writes())
        .with("total_reads", result.total_reads())
        .with("max_writes", result.wear.max_writes())
        .with("max_writes_per_iteration", result.max_writes_per_iteration());
    if !result.series.is_empty() {
        let samples: Vec<Json> = result.series.iter().map(epoch_sample_json).collect();
        body = body.with("series", Json::Arr(samples));
    }
    Json::object()
        .with("schema", RESULT_SCHEMA)
        .with("key", key_hex(key))
        .with("request", request.canonical_json())
        .with("result", body)
        .with(
            "lifetime",
            Json::object()
                .with("technology", request.technology.label())
                .with("endurance_writes", model.endurance())
                .with("op_latency_ns", model.op_latency_ns())
                .with("iterations", lifetime.iterations)
                .with("seconds", lifetime.seconds)
                .with("days", lifetime.days())
                .with("years", lifetime.years()),
        )
}

/// The rendered single-line body served (and cached) for a request.
#[must_use]
pub fn result_body(request: &SimRequest, result: &SimResult) -> String {
    result_json(request, result).render()
}

/// [`result_body`] for a request whose cache key the caller already holds,
/// so the canonical request is not rendered again to derive it.
pub(crate) fn keyed_result_body(request: &SimRequest, key: u64, result: &SimResult) -> String {
    keyed_result_json(request, key, result).render()
}

/// Wraps a text report in the machine-readable envelope `repro --json`
/// emits: the command, its configuration, and the report body, under the
/// same deterministic encoder the service uses.
#[must_use]
pub fn report_envelope(command: &str, config: Json, report: &str) -> Json {
    Json::object()
        .with("schema", REPORT_SCHEMA)
        .with("command", command)
        .with("config", config)
        .with("report", report)
}

#[cfg(test)]
mod tests {
    use std::str::FromStr as _;

    use super::*;
    use nvpim_core::{EnduranceSimulator, SimConfig};

    fn tiny_request() -> SimRequest {
        SimRequest::from_str(
            r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8}, "iterations": 20}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_bodies_are_deterministic() {
        let req = tiny_request();
        let run = || {
            let sim = EnduranceSimulator::new(req.sim_config());
            result_body(&req, &sim.run(&req.build_workload(), req.config))
        };
        assert_eq!(run(), run(), "same request must serialize to identical bytes");
    }

    #[test]
    fn result_body_parses_and_carries_the_key() {
        let req = tiny_request();
        let sim = EnduranceSimulator::new(req.sim_config());
        let body = result_body(&req, &sim.run(&req.build_workload(), req.config));
        let doc = nvpim_obs::json::parse(&body).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RESULT_SCHEMA));
        assert_eq!(doc.get("key").and_then(Json::as_str), Some(key_hex(req.cache_key()).as_str()));
        assert!(doc.get("result").and_then(|r| r.get("total_writes")).is_some());
        assert!(doc.get("lifetime").and_then(|l| l.get("days")).is_some());
    }

    #[test]
    fn sim_config_honors_request_knobs() {
        let req = SimRequest::from_str(
            r#"{"workload": "mul", "iterations": 7, "period": 0, "seed": 9, "track_reads": true}"#,
        )
        .unwrap();
        let cfg: SimConfig = req.sim_config();
        assert_eq!(cfg.iterations, 7);
        assert_eq!(cfg.schedule.period(), None);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.track_reads);
    }

    #[test]
    fn series_rides_in_the_result_when_requested() {
        let req = SimRequest::from_str(
            r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8},
                "iterations": 20, "period": 4, "series": true}"#,
        )
        .unwrap();
        let sim = EnduranceSimulator::new(req.sim_config());
        let result = sim.run(&req.build_workload(), req.config);
        let doc = result_json(&req, &result);
        let series = doc
            .get("result")
            .and_then(|r| r.get("series"))
            .and_then(Json::as_array)
            .expect("series array present");
        assert_eq!(series.len(), 5, "20 iterations / period 4");
        let last = series.last().unwrap();
        assert_eq!(last.get("iteration").and_then(Json::as_u64), Some(20));
        assert_eq!(last.get("max_writes").and_then(Json::as_u64), Some(result.wear.max_writes()));
        assert!(last.get("gini").is_some());

        // And stays out when not requested — cached plain results keep
        // their historical byte-exact shape.
        let plain = tiny_request();
        let sim = EnduranceSimulator::new(plain.sim_config());
        let doc = result_json(&plain, &sim.run(&plain.build_workload(), plain.config));
        assert!(doc.get("result").and_then(|r| r.get("series")).is_none());
    }

    #[test]
    fn report_envelope_round_trips() {
        let env = report_envelope("fig17", Json::object().with("iterations", 100u64), "body\n");
        let doc = nvpim_obs::json::parse(&env.render_pretty()).unwrap();
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("fig17"));
        assert_eq!(doc.get("report").and_then(Json::as_str), Some("body\n"));
    }
}
