//! Seeded fuzzing of the service boundary: HTTP framing and request
//! canonicalization.
//!
//! `read_request` must turn any byte stream into a request, a 400/413/431
//! [`HttpError`] or an I/O error, and never panic. A request rendered from
//! random fields must parse back to the same fields. A request's canonical
//! JSON must parse back to the same request with the same cache key, unless
//! it names a convolution shape `Convolution::new` rejects, which must be
//! refused. A stream of distinct workload shapes must never push the
//! workload memo past its byte bound, and each invalid one among them must
//! be refused before it is built. A parseable request whose wear planes
//! exceed `MAX_PLANE_BYTES` must be refused at canonicalization, and over
//! loopback may get only 400, 413 or 503.
//! Failing cases print the seed that replays them (`PROPTEST_SEED`).

use std::io::Cursor;
use std::str::FromStr;
use std::sync::OnceLock;

use nvpim_array::ArchStyle;
use nvpim_balance::BalanceConfig;
use nvpim_nvm::Technology;
use nvpim_serve::http::{read_request, HttpError, MAX_BODY, MAX_HEAD};
use nvpim_serve::request::{MAX_ITERATIONS, MAX_PLANE_BYTES, MAX_WALK_UNITS};
use nvpim_serve::{
    Client, Server, ServerConfig, ServerHandle, SimRequest, WorkloadMemo, WorkloadSpec,
};
use proptest::prelude::*;

/// Bytes drawn from a small alphabet rich in HTTP delimiters, so random
/// streams often contain request lines, header lines and blank lines.
fn http_ish_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] =
        b"\r\n\r\n: GET POST /simulate?x=1 HTTP/1.1 content-length 0123456789\xff\x00";
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

/// A well-formed request head with a `content-length` of `declared`,
/// followed by `body`.
fn framed(declared: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes =
        format!("POST /simulate HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Reads one request from `bytes` and checks the outcome is one the
/// server can answer.
fn read_any(bytes: &[u8]) {
    match read_request(&mut Cursor::new(bytes)) {
        Ok(request) => {
            assert!(!request.method.is_empty() && !request.path.is_empty());
            assert!(request.body.len() <= MAX_BODY);
        }
        Err(Ok(HttpError { status, .. })) => {
            assert!([400, 413, 431].contains(&status), "unexpected status {status}");
        }
        Err(Err(_io)) => {}
    }
}

/// The loopback server the oversized arm posts to, started on first use
/// and left to the end of the process.
fn loopback() -> &'static Client {
    static SERVER: OnceLock<(ServerHandle, Client)> = OnceLock::new();
    let (_, client) = SERVER.get_or_init(|| {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let handle = Server::start(config).expect("server starts");
        let client = Client::new(handle.addr());
        (handle, client)
    });
    client
}

/// A request body whose wear planes exceed [`MAX_PLANE_BYTES`] but which
/// is otherwise well formed JSON, for workload `kind` (0–4): one
/// dimension is drawn from `[4096, 65536]`, the other from just over the
/// bound's quotient up to 65 536.
fn oversized_body(kind: usize, big: u64, small: u64, swap: bool, track_reads: bool) -> String {
    let bytes_per_cell = 8 * (1 + u64::from(track_reads));
    let big = 4096 + big % (65536 - 4096 + 1);
    let least = MAX_PLANE_BYTES / (big * bytes_per_cell) + 1;
    let small = least + small % (65536 - least + 1);
    let (rows, lanes) = if swap { (small, big) } else { (big, small) };
    let workload = match kind {
        0 => r#"{"kind": "mul", "width": 32}"#,
        1 => r#"{"kind": "dot", "elements": 1024, "width": 32}"#,
        2 => r#"{"kind": "conv", "filter_rows": 4, "filter_cols": 3, "width": 8}"#,
        3 => r#"{"kind": "bnn", "fan_in": 64}"#,
        _ => r#"{"kind": "matvec", "mat_rows": 4, "elements": 64, "width": 8}"#,
    };
    format!(
        r#"{{"workload": {workload}, "rows": {rows}, "lanes": {lanes}, "config": "RaxRa+Hw", "track_reads": {track_reads}}}"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..600),
        ish in prop::collection::vec(http_ish_byte(), 0..600),
        cut in 0usize..64,
        declared in 0u64..(2 * MAX_BODY as u64),
    ) {
        read_any(&raw);
        read_any(&ish);
        // Valid framing with a body that is short, exact or long.
        let body = &raw[..raw.len().saturating_sub(cut)];
        read_any(&framed(&raw.len().to_string(), body));
        read_any(&framed(&declared.to_string(), &ish));
        // A head cut anywhere.
        let whole = framed(&ish.len().to_string(), &ish);
        read_any(&whole[..whole.len().min(cut)]);
    }

    #[test]
    fn oversized_heads_are_refused_with_431(pad in 0usize..4096) {
        let mut bytes = b"GET / HTTP/1.1\r\nx: ".to_vec();
        bytes.resize(MAX_HEAD + pad, b'a');
        bytes.extend_from_slice(b"\r\n\r\n");
        let outcome = read_request(&mut Cursor::new(&bytes));
        prop_assert!(matches!(outcome, Err(Ok(HttpError { status: 431, .. }))));
    }

    #[test]
    fn rendered_requests_parse_back_to_their_fields(
        method in prop::collection::vec(b'A'..=b'Z', 1..8),
        path in prop::collection::vec(b'a'..=b'z', 0..24),
        query in prop::collection::vec(b'a'..=b'z', 0..12),
        headers in prop::collection::vec(
            (prop::collection::vec(b'a'..=b'z', 1..12), prop::collection::vec(b'!'..=b'~', 1..40)),
            0..12,
        ),
        body in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).expect("ASCII");
        let method = text(&method);
        let path = format!("/{}", text(&path));
        let query = (!query.is_empty()).then(|| text(&query));
        let mut headers: Vec<(String, String)> = headers
            .iter()
            .map(|(name, value)| (format!("x-{}", text(name)), text(value)))
            .collect();
        headers.push(("content-length".into(), body.len().to_string()));
        let target = match &query {
            Some(query) => format!("{path}?{query}"),
            None => path.clone(),
        };
        let mut bytes = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for (name, value) in &headers {
            bytes.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(&body);
        let request = read_request(&mut Cursor::new(&bytes)).expect("well-formed request");
        prop_assert_eq!(request.method, method);
        prop_assert_eq!(request.path, path);
        prop_assert_eq!(request.query, query);
        prop_assert_eq!(request.headers, headers);
        prop_assert_eq!(request.body, body);
    }

    #[test]
    fn canonical_json_round_trips_with_a_stable_key(
        shape in (0usize..5, 2usize..=64, 1u32..=6, 1usize..=8, 1usize..=8),
        dims in (4usize..=4096, 6u32..=12),
        config in 0usize..18,
        run in (any::<bool>(), 1u64..=MAX_ITERATIONS, 0u64..10_000, any::<u64>()),
        flags in (any::<bool>(), any::<bool>(), 0usize..4),
    ) {
        let (kind, width, log_elements, filter_rows, filter_cols) = shape;
        let (rows, log_lanes) = dims;
        let (sense_amp, iterations, period, seed) = run;
        let (track_reads, series, technology) = flags;
        let lanes = 1usize << log_lanes;
        let elements = 1usize << log_elements;
        let workload = match kind {
            0 => WorkloadSpec::Mul { width },
            1 => WorkloadSpec::Dot { elements, width },
            2 => WorkloadSpec::Conv { filter_rows, filter_cols, width },
            3 => WorkloadSpec::Bnn { fan_in: width },
            _ => WorkloadSpec::MatVec { mat_rows: filter_rows, elements, width },
        };
        let request = SimRequest {
            workload,
            rows,
            lanes,
            config: BalanceConfig::all()[config],
            arch: if sense_amp { ArchStyle::SenseAmp } else { ArchStyle::PresetOutput },
            iterations,
            period,
            seed,
            track_reads,
            series,
            technology: Technology::ALL[technology],
            timeout_ms: None,
        };
        // A convolution whose filter rows cannot tile the lanes in groups
        // of at least 2 is refused, in canonical form too.
        let bad_conv = matches!(
            request.workload,
            WorkloadSpec::Conv { filter_rows, .. } if filter_rows < 2 || lanes % filter_rows != 0
        );
        if bad_conv {
            prop_assert!(SimRequest::from_json(&request.canonical_json()).is_err());
        } else if request.walk_units() > MAX_WALK_UNITS {
            // Over the walk bound: refused as too large, in canonical form too.
            let err = SimRequest::from_json(&request.canonical_json()).expect_err("over the bound");
            prop_assert_eq!(err.status, 413);
        } else {
            let parsed =
                SimRequest::from_json(&request.canonical_json()).expect("canonical form parses");
            prop_assert_eq!(&parsed, &request);
            let reparsed =
                SimRequest::from_str(&request.canonical_text()).expect("canonical text parses");
            prop_assert_eq!(&reparsed, &request);
            prop_assert_eq!(parsed.cache_key(), request.cache_key());
            prop_assert_eq!(reparsed.cache_key(), request.cache_key());
            prop_assert_eq!(reparsed.canonical_text(), request.canonical_text());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn distinct_shapes_never_push_the_workload_memo_past_its_bound(
        shapes in prop::collection::vec(
            (0usize..3, 2usize..=16, 3u32..=6, 8u32..=10, 1usize..=8),
            1..24,
        ),
    ) {
        // A bound of a few small workloads, so the stream evicts; mul16 and
        // up exceed it alone and must be served without being kept.
        const BOUND: usize = 192 << 10;
        let memo = WorkloadMemo::new(BOUND);
        let mut served = 0u64;
        for (i, &(kind, width, log_lanes, log_rows, filter_rows)) in shapes.iter().enumerate() {
            let workload = match kind {
                0 => format!(r#"{{"kind": "mul", "width": {width}}}"#),
                1 => format!(
                    r#"{{"kind": "conv", "width": {}, "filter_rows": {filter_rows}, "filter_cols": {}}}"#,
                    width.min(8),
                    1 + width % 3
                ),
                _ => format!(r#"{{"kind": "bnn", "fan_in": {width}}}"#),
            };
            let lanes = 1usize << log_lanes;
            let body = format!(
                r#"{{"workload": {workload}, "rows": {}, "lanes": {lanes}, "seed": {i}}}"#,
                1usize << log_rows,
            );
            // A convolution needs groups of at least 2 lanes that tile the
            // array; any other shape must be refused before it is built.
            if kind == 1 && (filter_rows < 2 || lanes % filter_rows != 0) {
                prop_assert!(SimRequest::from_str(&body).is_err(), "accepted {}", body);
                continue;
            }
            let request = SimRequest::from_str(&body).expect("valid request");
            let workload = memo.get(&request);
            let fresh = request.build_workload();
            prop_assert_eq!(workload.name(), fresh.name());
            prop_assert_eq!(workload.trace().steps(), fresh.trace().steps());
            served += 1;
            let stats = memo.stats();
            prop_assert!(stats.bytes <= BOUND, "{} resident bytes over {BOUND}", stats.bytes);
            prop_assert_eq!(stats.hits + stats.misses, served);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oversized_requests_get_only_400_413_or_503(
        kind in 0usize..5,
        dims in (any::<u64>(), any::<u64>(), any::<bool>()),
        track_reads in any::<bool>(),
        batch in any::<bool>(),
    ) {
        let (big, small, swap) = dims;
        let body = oversized_body(kind, big, small, swap, track_reads);
        // Refused at canonicalization, before any plane is allocated: a
        // shape the workload rejects may say 400, any other says 413.
        let err = SimRequest::from_str(&body).expect_err(&body);
        prop_assert!([400, 413].contains(&err.status), "{} for {}", err.status, body);
        if kind == 0 || kind == 3 {
            prop_assert_eq!(err.status, 413, "{}", body);
        }
        let client = loopback();
        let reply = if batch {
            let small = r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8}, "iterations": 5}"#;
            client.post_json("/batch", &format!("[{small}, {body}]"))
        } else {
            client.post_json("/simulate", &body)
        }
        .expect("the server answers");
        prop_assert!([400, 413, 503].contains(&reply.status), "{} for {}", reply.status, body);
        prop_assert_eq!(client.get("/health").expect("still up").status, 200);
    }
}
