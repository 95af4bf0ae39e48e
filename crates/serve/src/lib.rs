//! `dspatch-serve`: a resident campaign service over the harness.
//!
//! The CLI (`dspatch-lab`) runs one campaign and exits; this crate keeps the
//! harness resident behind a small HTTP API, backed by the same
//! content-addressed [`dspatch_harness::ResultStore`]. Submitting a spec
//! enqueues it; identical `(spec, scale, code-version)` cells — across
//! requests *and* restarts — are served from the store without touching the
//! simulator, and the results endpoint returns bytes identical to
//! `dspatch-lab --spec <file> --format json`.
//!
//! Everything is hand-rolled on `std` (TCP listener + worker pool, HTTP/1.1
//! subset) under the workspace's no-registry discipline — the same reason
//! `harness::json` exists.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /campaigns` | Submit a spec document; 202 new, 200 already known |
//! | `GET /campaigns/:id` | Status, per-cell progress, quarantines |
//! | `GET /campaigns/:id/events` | Chunked JSON-lines progress stream |
//! | `GET /campaigns/:id/results` | The exact CLI-parity results document |
//! | `GET /results?figure=&workload=&prefetcher=&config=` | Query all rows |
//! | `GET /healthz` | Liveness |
//! | `POST /admin/shutdown` | Begin graceful drain |

#![warn(missing_docs)]

pub mod http;
pub mod queue;
pub mod routes;
pub mod server;

pub use queue::{Campaign, Phase, ServeState, SubmitError, Submitted};
pub use routes::error_status;
pub use server::{http_request, parse_http_response, Server, ServerConfig};
