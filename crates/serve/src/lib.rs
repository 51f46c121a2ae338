//! # nvpim-serve — the simulation-as-a-service layer
//!
//! A zero-dependency HTTP/1.1 service (`std::net` only) that accepts
//! endurance-simulation requests as canonical JSON, executes them on a
//! bounded job queue, and returns [`SimResult`]-derived result/lifetime
//! documents. The determinism contract of the simulation stack — identical
//! request, identical bytes — makes the content-addressed result cache
//! sound: a response can be replayed forever without revalidation.
//!
//! Modules:
//!
//! * [`request`] — request parsing, validation, and canonicalization (the
//!   canonical form is the cache identity);
//! * [`hash`] — FNV-1a content hashing of canonical requests;
//! * [`wire`] — the deterministic JSON wire format, shared with
//!   `repro --json`;
//! * [`cache`] — in-memory LRU with optional on-disk spill;
//! * [`memo`] — synthesized workloads by shape, shared by cache misses;
//! * [`http`] — the minimal HTTP/1.1 reader/writer;
//! * [`server`] — accept loop, endpoints, backpressure, timeouts, drain;
//! * [`client`] — a std-only client used by tests and `repro serve-smoke`
//!   (typed [`ClientError`] outcomes).
//!
//! [`ClientError`]: client::ClientError
//!
//! [`SimResult`]: nvpim_core::SimResult
//!
//! ## Example
//!
//! ```
//! use nvpim_serve::{Client, Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let client = Client::new(handle.addr());
//! let reply = client
//!     .post_json("/simulate", r#"{"workload": "mul", "rows": 128, "lanes": 8, "iterations": 5}"#)
//!     .unwrap();
//! assert_eq!(reply.status, 200);
//! handle.request_shutdown();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod http;
pub mod memo;
pub mod request;
pub mod server;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use client::{Client, ClientError, HttpReply};
pub use memo::{MemoStats, WorkloadMemo};
pub use request::{RequestError, SimRequest, WorkloadSpec};
pub use server::{Server, ServerConfig, ServerHandle};
