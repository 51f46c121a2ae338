//! The canonical simulation-request model.
//!
//! A request names one deterministic simulation: workload × balancing
//! configuration × architecture × iterations × re-mapping period × seed.
//! Parsing *normalizes*: defaults are filled in, aliases are resolved
//! (`"mtj"` → `mram`, config strings re-rendered through
//! [`BalanceConfig`]'s display form), and [`SimRequest::canonical_json`]
//! re-emits every field in sorted key order — so two requests that mean the
//! same simulation serialize to the same bytes and share one cache key,
//! however they were spelled on the wire.

use std::str::FromStr;

use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::SimConfig;
use nvpim_nvm::Technology;
use nvpim_obs::Json;
use nvpim_workloads::bnn_layer::BnnLayer;
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::matvec::MatVec;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

use crate::hash::fnv1a;

/// Upper bound on accepted iteration counts: ten paper-scale runs. Larger
/// requests are rejected up front instead of tying a worker up for hours.
pub const MAX_ITERATIONS: u64 = 1_000_000;

/// Upper bound on the cell planes one request may ask for: rows × lanes ×
/// 8 bytes of write counters, doubled when reads are tracked. Larger
/// requests are refused with `413` at canonicalization, before anything is
/// allocated: the limit (65 536 × 65 536) alone admits a 34 GB plane, and
/// an allocation failure aborts the process rather than unwinding.
///
/// Sized from measured peak RSS (DESIGN.md §"Bounded everything"): one
/// miss raised a fresh server's peak by 0.5–1.4× its plane bytes, so a
/// request at the bound (4096 × 4096 with reads tracked) costs about
/// 0.3 GB, and paper dims (1024 × 1024, 16 MiB with reads tracked) pass
/// with 16× headroom.
pub const MAX_PLANE_BYTES: u64 = 256 << 20;

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The HTTP status to answer with: `400` for a malformed or invalid
    /// request, `413` for one over a resource bound.
    pub status: u16,
    /// Human-readable description, returned verbatim in the error body.
    pub message: String,
}

impl RequestError {
    fn new(message: impl Into<String>) -> Self {
        RequestError { status: 400, message: message.into() }
    }

    fn too_large(message: impl Into<String>) -> Self {
        RequestError { status: 413, message: message.into() }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RequestError {}

/// Which workload family a request simulates, plus its shape parameters.
///
/// Only the parameters a kind actually uses participate in its canonical
/// form (a `mul` request carries no `elements`), so irrelevant wire fields
/// can never split the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// Embarrassingly parallel `width`-bit multiplication (§4 `mul`).
    Mul {
        /// Operand precision in bits.
        width: usize,
    },
    /// `elements`-long dot product at `width` bits (§4 `dot`).
    Dot {
        /// Vector length (power of two, ≤ lanes).
        elements: usize,
        /// Operand precision in bits.
        width: usize,
    },
    /// 2-D convolution with a `filter_rows × filter_cols` filter (§4 `conv`).
    Conv {
        /// Filter height.
        filter_rows: usize,
        /// Filter width.
        filter_cols: usize,
        /// Operand precision in bits.
        width: usize,
    },
    /// Binarized XNOR-popcount layer with `fan_in` inputs per neuron.
    Bnn {
        /// Binary inputs per output neuron.
        fan_in: usize,
    },
    /// `mat_rows × elements` matrix–vector product at `width` bits.
    MatVec {
        /// Matrix row count.
        mat_rows: usize,
        /// Vector length (power of two, ≤ lanes).
        elements: usize,
        /// Operand precision in bits.
        width: usize,
    },
}

impl WorkloadSpec {
    /// Stable kind token used on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Mul { .. } => "mul",
            WorkloadSpec::Dot { .. } => "dot",
            WorkloadSpec::Conv { .. } => "conv",
            WorkloadSpec::Bnn { .. } => "bnn",
            WorkloadSpec::MatVec { .. } => "matvec",
        }
    }
}

/// One fully normalized simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Workload family and shape.
    pub workload: WorkloadSpec,
    /// Array rows.
    pub rows: usize,
    /// Array lanes.
    pub lanes: usize,
    /// Balancing configuration.
    pub config: BalanceConfig,
    /// Gate execution semantics.
    pub arch: ArchStyle,
    /// Iterations to replay.
    pub iterations: u64,
    /// Software re-mapping period (`0` = never re-map).
    pub period: u64,
    /// RNG seed for the balancing strategies.
    pub seed: u64,
    /// Whether to also accumulate per-cell read counts.
    pub track_reads: bool,
    /// Whether to sample the per-epoch wear trajectory into the result.
    pub series: bool,
    /// Device technology for the lifetime model.
    pub technology: Technology,
    /// Per-request wall-clock budget override in milliseconds (`None` =
    /// server default). Deliberately *excluded* from the canonical form and
    /// cache key: it directs execution, it does not change the result.
    pub timeout_ms: Option<u64>,
}

fn get_usize(doc: &Json, key: &str, default: usize) -> Result<usize, RequestError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| RequestError::new(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Workload parameters may live inside the workload object or — for the
/// `"workload": "mul"` shorthand — at the top level of the request; the
/// workload object wins when both are present.
fn get_dim(wl: &Json, doc: &Json, key: &str, default: usize) -> Result<usize, RequestError> {
    if wl.get(key).is_some() {
        get_usize(wl, key, default)
    } else {
        get_usize(doc, key, default)
    }
}

fn get_u64(doc: &Json, key: &str, default: u64) -> Result<u64, RequestError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| RequestError::new(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_bool(doc: &Json, key: &str, default: bool) -> Result<bool, RequestError> {
    match doc.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(RequestError::new(format!("`{key}` must be a boolean"))),
    }
}

impl SimRequest {
    /// Parses and validates a wire-format request document.
    ///
    /// Every field except the workload kind has a documented default, so
    /// `{"workload": {"kind": "mul"}}` is a complete request. Validation
    /// mirrors the workload constructors' invariants and returns a
    /// [`RequestError`] (HTTP 400) instead of panicking the worker.
    pub fn from_json(doc: &Json) -> Result<SimRequest, RequestError> {
        if !matches!(doc, Json::Obj(_)) {
            return Err(RequestError::new("request body must be a JSON object"));
        }
        let wl_doc = doc.get("workload").cloned().unwrap_or_else(Json::object);
        let wl_doc = match wl_doc {
            // `"workload": "mul"` is shorthand for `{"kind": "mul"}`.
            Json::Str(kind) => Json::object().with("kind", kind),
            other @ Json::Obj(_) => other,
            _ => return Err(RequestError::new("`workload` must be an object or a kind string")),
        };
        let kind = wl_doc.get("kind").and_then(Json::as_str).unwrap_or("mul").to_owned();

        let rows = get_dim(&wl_doc, doc, "rows", 512)?;
        let lanes = get_dim(&wl_doc, doc, "lanes", 64)?;
        if rows < 4 || lanes < 2 {
            return Err(RequestError::new("array must be at least 4 rows × 2 lanes"));
        }
        if rows > 1 << 16 || lanes > 1 << 16 {
            return Err(RequestError::new("array dimensions capped at 65536 × 65536"));
        }

        let width = get_dim(&wl_doc, doc, "width", 8)?;
        let elements = get_dim(&wl_doc, doc, "elements", lanes.min(64))?;
        let workload = match kind.as_str() {
            "mul" => {
                validate_width(width)?;
                WorkloadSpec::Mul { width }
            }
            "dot" => {
                validate_width(width)?;
                validate_elements(elements, lanes)?;
                WorkloadSpec::Dot { elements, width }
            }
            "conv" => {
                validate_width(width)?;
                let filter_rows = get_dim(&wl_doc, doc, "filter_rows", 4)?;
                let filter_cols = get_dim(&wl_doc, doc, "filter_cols", 3)?;
                if filter_cols == 0 {
                    return Err(RequestError::new("convolution filter must be non-empty"));
                }
                // Each filter row takes one lane of a group (`Convolution::new`).
                if filter_rows < 2 || lanes % filter_rows != 0 {
                    return Err(RequestError::new(
                        "`filter_rows` must be at least 2 and divide the lane count",
                    ));
                }
                WorkloadSpec::Conv { filter_rows, filter_cols, width }
            }
            "bnn" => {
                let fan_in = get_dim(&wl_doc, doc, "fan_in", 64)?;
                if fan_in < 2 {
                    return Err(RequestError::new("`fan_in` must be at least 2"));
                }
                WorkloadSpec::Bnn { fan_in }
            }
            "matvec" => {
                validate_width(width)?;
                validate_elements(elements, lanes)?;
                let mat_rows = get_dim(&wl_doc, doc, "mat_rows", 4)?;
                if mat_rows == 0 {
                    return Err(RequestError::new("`mat_rows` must be positive"));
                }
                WorkloadSpec::MatVec { mat_rows, elements, width }
            }
            other => {
                return Err(RequestError::new(format!(
                    "unknown workload kind `{other}` (expected mul, dot, conv, bnn, or matvec)"
                )))
            }
        };

        let config_text = doc.get("config").and_then(Json::as_str).unwrap_or("StxSt").to_owned();
        let config = BalanceConfig::from_str(&config_text)
            .map_err(|e| RequestError::new(format!("bad `config`: {e}")))?;

        let arch = match doc.get("arch").and_then(Json::as_str).unwrap_or("preset-output") {
            "preset-output" | "preset" | "cram" => ArchStyle::PresetOutput,
            "sense-amp" | "senseamp" | "pinatubo" => ArchStyle::SenseAmp,
            other => {
                return Err(RequestError::new(format!(
                    "unknown `arch` `{other}` (expected preset-output or sense-amp)"
                )))
            }
        };

        let iterations = get_u64(doc, "iterations", 200)?;
        if iterations == 0 {
            return Err(RequestError::new("`iterations` must be positive"));
        }
        if iterations > MAX_ITERATIONS {
            return Err(RequestError::new(format!(
                "`iterations` capped at {MAX_ITERATIONS} per request"
            )));
        }
        let period = get_u64(doc, "period", 100)?;
        let seed = get_u64(doc, "seed", SimConfig::paper().seed)?;
        let track_reads = get_bool(doc, "track_reads", false)?;
        let series = get_bool(doc, "series", false)?;

        let technology = match doc.get("technology") {
            None => Technology::Mram,
            Some(v) => {
                let text =
                    v.as_str().ok_or_else(|| RequestError::new("`technology` must be a string"))?;
                Technology::from_str(text)
                    .map_err(|e| RequestError::new(format!("bad `technology`: {e}")))?
            }
        };

        let plane_bytes = rows as u64 * lanes as u64 * 8 * (1 + u64::from(track_reads));
        if plane_bytes > MAX_PLANE_BYTES {
            return Err(RequestError::too_large(format!(
                "{rows} × {lanes} cells need {} MiB of wear planes{}; the limit is {} MiB",
                plane_bytes >> 20,
                if track_reads { " with reads tracked" } else { "" },
                MAX_PLANE_BYTES >> 20,
            )));
        }

        let timeout_ms = match doc.get("timeout_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| RequestError::new("`timeout_ms` must be a positive integer"))?,
            ),
        };

        Ok(SimRequest {
            workload,
            rows,
            lanes,
            config,
            arch,
            iterations,
            period,
            seed,
            track_reads,
            series,
            technology,
            timeout_ms,
        })
    }

    /// The normalized request document: every field present, defaults
    /// filled, keys sorted (the `Json` object is a `BTreeMap`). Two
    /// requests describing the same simulation render to identical bytes.
    #[must_use]
    pub fn canonical_json(&self) -> Json {
        let mut wl = Json::object()
            .with("kind", self.workload.kind())
            .with("lanes", self.lanes)
            .with("rows", self.rows);
        match self.workload {
            WorkloadSpec::Mul { width } => wl = wl.with("width", width),
            WorkloadSpec::Dot { elements, width } => {
                wl = wl.with("elements", elements).with("width", width);
            }
            WorkloadSpec::Conv { filter_rows, filter_cols, width } => {
                wl = wl
                    .with("filter_cols", filter_cols)
                    .with("filter_rows", filter_rows)
                    .with("width", width);
            }
            WorkloadSpec::Bnn { fan_in } => wl = wl.with("fan_in", fan_in),
            WorkloadSpec::MatVec { mat_rows, elements, width } => {
                wl = wl.with("elements", elements).with("mat_rows", mat_rows).with("width", width);
            }
        }
        Json::object()
            .with("arch", self.arch.to_string())
            .with("config", self.config.to_string())
            .with("iterations", self.iterations)
            .with("period", self.period)
            .with("seed", self.seed)
            .with("series", self.series)
            .with("technology", self.technology.label().to_ascii_lowercase())
            .with("track_reads", self.track_reads)
            .with("workload", wl)
    }

    /// The canonical single-line rendering the cache key is computed over.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        self.canonical_json().render()
    }

    /// Content address of this request: FNV-1a over the canonical bytes.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        Self::key_of(&self.canonical_text())
    }

    /// The cache key of a request whose [`SimRequest::canonical_text`] is
    /// `canonical`, for callers that already rendered it.
    #[must_use]
    pub fn key_of(canonical: &str) -> u64 {
        fnv1a(canonical.as_bytes())
    }

    /// The simulator configuration this request describes.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        let schedule = if self.period == 0 {
            RemapSchedule::never()
        } else {
            RemapSchedule::every(self.period)
        };
        SimConfig::paper()
            .with_iterations(self.iterations)
            .with_arch(self.arch)
            .with_schedule(schedule)
            .with_seed(self.seed)
            .with_read_tracking(self.track_reads)
            .with_epoch_series(self.series)
    }

    /// Builds the request's workload.
    ///
    /// Validation in [`SimRequest::from_json`] mirrors the constructors'
    /// asserts, so this does not panic for a parsed request; the server
    /// still wraps execution in `catch_unwind` as a backstop.
    #[must_use]
    pub fn build_workload(&self) -> Workload {
        let dims = ArrayDims::new(self.rows, self.lanes);
        match self.workload {
            WorkloadSpec::Mul { width } => ParallelMul::new(dims, width).build(),
            WorkloadSpec::Dot { elements, width } => DotProduct::new(dims, elements, width).build(),
            WorkloadSpec::Conv { filter_rows, filter_cols, width } => {
                Convolution::new(dims, filter_rows, filter_cols, width).build()
            }
            WorkloadSpec::Bnn { fan_in } => BnnLayer::new(dims, fan_in).build(),
            WorkloadSpec::MatVec { mat_rows, elements, width } => {
                MatVec::new(dims, mat_rows, elements, width).build()
            }
        }
    }
}

fn validate_width(width: usize) -> Result<(), RequestError> {
    if (2..=64).contains(&width) {
        Ok(())
    } else {
        Err(RequestError::new("`width` must be between 2 and 64 bits"))
    }
}

fn validate_elements(elements: usize, lanes: usize) -> Result<(), RequestError> {
    if !elements.is_power_of_two() || elements < 2 {
        return Err(RequestError::new("`elements` must be a power of two ≥ 2"));
    }
    if elements > lanes {
        return Err(RequestError::new("`elements` cannot exceed the lane count"));
    }
    Ok(())
}

impl FromStr for SimRequest {
    type Err = RequestError;

    /// Parses a request from raw wire bytes (JSON text).
    fn from_str(text: &str) -> Result<SimRequest, RequestError> {
        let doc = nvpim_obs::json::parse(text)
            .map_err(|e| RequestError::new(format!("invalid JSON: {e}")))?;
        SimRequest::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SimRequest {
        SimRequest::from_str(text).expect("request should parse")
    }

    #[test]
    fn defaults_make_a_minimal_request_complete() {
        let req = parse(r#"{"workload": {"kind": "mul"}}"#);
        assert_eq!(req.workload, WorkloadSpec::Mul { width: 8 });
        assert_eq!(req.rows, 512);
        assert_eq!(req.lanes, 64);
        assert_eq!(req.iterations, 200);
        assert_eq!(req.period, 100);
        assert_eq!(req.technology, Technology::Mram);
        assert!(!req.track_reads);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn workload_kind_shorthand() {
        assert_eq!(parse(r#"{"workload": "mul"}"#), parse(r#"{"workload": {"kind": "mul"}}"#));
    }

    #[test]
    fn spelling_variants_share_one_canonical_form() {
        // Defaults explicit vs implicit, technology alias, arch alias —
        // all the same simulation, so all the same bytes and key.
        let implicit = parse(r#"{"workload": {"kind": "mul"}}"#);
        let explicit = parse(
            r#"{"workload": {"kind": "mul", "rows": 512, "lanes": 64, "width": 8},
                "config": "StxSt", "arch": "cram", "iterations": 200, "period": 100,
                "technology": "mtj", "track_reads": false}"#,
        );
        assert_eq!(implicit.canonical_text(), explicit.canonical_text());
        assert_eq!(implicit.cache_key(), explicit.cache_key());
    }

    #[test]
    fn timeout_is_not_part_of_the_cache_key() {
        let plain = parse(r#"{"workload": "mul"}"#);
        let with_timeout = parse(r#"{"workload": "mul", "timeout_ms": 5}"#);
        assert_eq!(plain.cache_key(), with_timeout.cache_key());
        assert_eq!(with_timeout.timeout_ms, Some(5));
    }

    #[test]
    fn series_is_canonical_and_splits_the_key() {
        // Unlike `timeout_ms`, `series` changes the result document (the
        // trajectory rides in it), so it must participate in the key.
        let plain = parse(r#"{"workload": "mul"}"#);
        let with_series = parse(r#"{"workload": "mul", "series": true}"#);
        assert!(!plain.series);
        assert!(with_series.series);
        assert_ne!(plain.cache_key(), with_series.cache_key());
        assert!(with_series.sim_config().epoch_series);
        assert!(!plain.sim_config().epoch_series);
    }

    #[test]
    fn different_requests_get_different_keys() {
        let a = parse(r#"{"workload": "mul", "iterations": 100}"#);
        let b = parse(r#"{"workload": "mul", "iterations": 101}"#);
        let c = parse(r#"{"workload": "dot", "iterations": 100}"#);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn canonical_form_round_trips_through_the_parser() {
        for body in [
            r#"{"workload": "mul"}"#,
            r#"{"workload": {"kind": "dot", "elements": 32, "width": 4}, "config": "RaxSt+Hw"}"#,
            r#"{"workload": {"kind": "conv"}, "arch": "sense-amp", "period": 0}"#,
            r#"{"workload": {"kind": "bnn", "fan_in": 16}, "technology": "rram"}"#,
            r#"{"workload": {"kind": "matvec", "mat_rows": 3, "elements": 8}}"#,
        ] {
            let req = parse(body);
            let round = parse(&req.canonical_text());
            assert_eq!(req, round, "{body}");
            assert_eq!(req.cache_key(), round.cache_key(), "{body}");
        }
    }

    #[test]
    fn rejections_name_the_problem() {
        for (body, needle) in [
            (r#"[1, 2]"#, "JSON object"),
            (r#"{"workload": {"kind": "fft"}}"#, "unknown workload kind"),
            (r#"{"workload": "mul", "config": "XxYy"}"#, "bad `config`"),
            (r#"{"workload": "mul", "arch": "quantum"}"#, "unknown `arch`"),
            (r#"{"workload": "mul", "iterations": 0}"#, "must be positive"),
            (r#"{"workload": "mul", "iterations": 99000000}"#, "capped"),
            (r#"{"workload": {"kind": "dot", "elements": 3}}"#, "power of two"),
            (r#"{"workload": {"kind": "dot", "elements": 128, "lanes": 64}}"#, "lane count"),
            (r#"{"workload": {"kind": "mul", "width": 1}}"#, "width"),
            (r#"{"workload": {"kind": "conv", "filter_rows": 1}}"#, "`filter_rows`"),
            (r#"{"workload": {"kind": "conv", "filter_rows": 3, "lanes": 64}}"#, "divide"),
            (r#"{"workload": "mul", "technology": "flash"}"#, "bad `technology`"),
            (r#"{"workload": "mul", "timeout_ms": 0}"#, "timeout_ms"),
            (r#"not json"#, "invalid JSON"),
        ] {
            let err = SimRequest::from_str(body).expect_err(body);
            assert!(err.message.contains(needle), "{body}: {}", err.message);
            assert_eq!(err.status, 400, "{body}");
        }
    }

    #[test]
    fn oversized_planes_are_refused_with_413() {
        // Paper dims pass with reads tracked; the dimension cap alone
        // would admit a 34 GB plane.
        let paper = r#"{"workload": "mul", "rows": 1024, "lanes": 1024, "track_reads": true}"#;
        assert!(SimRequest::from_str(paper).is_ok());
        let at_bound = r#"{"workload": "mul", "rows": 4096, "lanes": 4096, "track_reads": true}"#;
        assert!(SimRequest::from_str(at_bound).is_ok());
        for body in [
            r#"{"workload": "mul", "rows": 65536, "lanes": 65536}"#,
            r#"{"workload": "mul", "rows": 8192, "lanes": 4096, "track_reads": true}"#,
            r#"{"workload": "mul", "rows": 4097, "lanes": 8192}"#,
        ] {
            let err = SimRequest::from_str(body).expect_err(body);
            assert_eq!(err.status, 413, "{body}: {}", err.message);
            assert!(err.message.contains("MiB"), "{body}: {}", err.message);
        }
    }

    #[test]
    fn built_workloads_fit_their_arrays() {
        for body in [
            r#"{"workload": "mul"}"#,
            r#"{"workload": {"kind": "dot", "elements": 16}}"#,
            r#"{"workload": {"kind": "conv", "width": 4}}"#,
            r#"{"workload": {"kind": "bnn", "fan_in": 32}}"#,
            r#"{"workload": {"kind": "matvec", "mat_rows": 2, "elements": 8, "width": 4}}"#,
        ] {
            let req = parse(body);
            let wl = req.build_workload();
            assert!(wl.trace().rows_used() <= req.rows, "{body}");
        }
    }
}
