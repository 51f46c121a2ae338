//! One measured round: what a child process reports to its parent.

use std::collections::BTreeMap;

use nvpim_obs::Json;

use crate::digest::Digests;
use crate::Pass;

/// Everything one round measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    /// What the round ran.
    pub pass: Pass,
    /// Set-up seconds (workload synthesis, or server boot plus warm-up).
    pub setup_s: f64,
    /// Host seconds of each unit of work the round timed.
    pub run_s: Vec<f64>,
    /// Latencies of answers that fold no epochs, in microseconds.
    pub hit_us: Vec<f64>,
    /// Latencies of answers that fold or replay epochs, in milliseconds.
    pub cold_ms: Vec<f64>,
    /// Answers (cells, sweep engines or HTTP requests) in the timed window.
    pub answers: u64,
    /// Seconds of the timed window.
    pub window_s: f64,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub problems: Vec<String>,
    /// Peak resident set of the round's process by the end of its measured
    /// pass (before verification), in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer measurements (the parent reports those of traced rounds).
    pub layers: BTreeMap<String, f64>,
    /// Self/total table of the traced round.
    pub flame: Json,
    /// Output digests, for recording a reference.
    pub digests: Digests,
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn read_floats(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_array)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

impl Round {
    /// Adds one layer measurement.
    pub fn layer(&mut self, name: &str, value: f64) {
        *self.layers.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// Records a failed operation and why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// The one-line wire form a child prints.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut layers = Json::object();
        for (name, value) in &self.layers {
            layers = layers.with(name, Json::Num(*value));
        }
        let mut digests = Json::object();
        for (item, digest) in &self.digests {
            digests = digests.with(item, digest.as_str());
        }
        Json::object()
            .with("pass", self.pass.label())
            .with("setup_s", Json::Num(self.setup_s))
            .with("run_s", floats(&self.run_s))
            .with("hit_us", floats(&self.hit_us))
            .with("cold_ms", floats(&self.cold_ms))
            .with("answers", self.answers)
            .with("window_s", Json::Num(self.window_s))
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::from(p.as_str())).collect()),
            )
            .with("peak_rss_mb", Json::Num(self.peak_rss_mb))
            .with("layers", layers)
            .with("flame", self.flame.clone())
            .with("digests", digests)
    }

    /// Parses a child's line back.
    ///
    /// # Errors
    ///
    /// Fails when the line is not a round object.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = nvpim_obs::json::parse(text).map_err(|e| e.to_string())?;
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or(format!("missing {key}"));
        let count = |key: &str| doc.get(key).and_then(Json::as_u64).ok_or(format!("missing {key}"));
        let map = |key: &str| match doc.get(key) {
            Some(Json::Obj(items)) => items.clone(),
            _ => BTreeMap::new(),
        };
        Ok(Round {
            pass: doc
                .get("pass")
                .and_then(Json::as_str)
                .and_then(Pass::parse)
                .ok_or("missing pass")?,
            setup_s: num("setup_s")?,
            run_s: read_floats(&doc, "run_s"),
            hit_us: read_floats(&doc, "hit_us"),
            cold_ms: read_floats(&doc, "cold_ms"),
            answers: count("answers")?,
            window_s: num("window_s")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            problems: doc
                .get("problems")
                .and_then(Json::as_array)
                .map(|xs| xs.iter().filter_map(Json::as_str).map(str::to_owned).collect())
                .unwrap_or_default(),
            peak_rss_mb: num("peak_rss_mb")?,
            layers: map("layers")
                .into_iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
                .collect(),
            flame: doc.get("flame").cloned().unwrap_or_default(),
            digests: map("digests")
                .into_iter()
                .filter_map(|(k, v)| v.as_str().map(|v| (k, v.to_owned())))
                .collect(),
        })
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the kernel
/// does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_survives_the_wire() {
        let mut r = Round {
            pass: Pass::Cells,
            setup_s: 0.5,
            run_s: vec![1.25, 2.0],
            answers: 54,
            ..Round::default()
        };
        r.layer("analytic.cells.lazy", 39.0);
        r.fail("cell x mismatched".into());
        r.digests.insert("mul32/StxSt".into(), "1:2:3".into());
        let back = Round::from_json(&r.to_json().render()).unwrap();
        assert_eq!(back.pass, Pass::Cells);
        assert_eq!(back.run_s, r.run_s);
        assert_eq!(back.failed, 1);
        assert_eq!(back.layers["analytic.cells.lazy"], 39.0);
        assert_eq!(back.digests, r.digests);
    }
}
