//! `bookleaf serve` — a hardened multi-tenant simulation service.
//!
//! A long-lived server (std TCP only, no external dependencies) that
//! accepts BookLeaf text decks over a minimal line-framed HTTP/1.1
//! protocol, runs them concurrently on one shared work-stealing pool,
//! and returns typed results. Every layer is designed so that a
//! misbehaving tenant — oversized decks, poisoned physics, injected
//! comm faults, blown deadlines — degrades into a *typed error
//! response*, never a hang, a panic escape, or interference with the
//! bitwise-reproducible results of healthy tenants.
//!
//! # Wire protocol
//!
//! Line-framed HTTP/1.1, the subset the grammar below describes.
//! Anything outside it is a typed [`protocol::ProtocolError`] and a
//! `4xx` answer — the parser never panics and never reads unbounded
//! input (header block and body are byte-budgeted).
//!
//! ```text
//! request      = request-line *( header CRLF ) CRLF [ body ]
//! request-line = method SP path SP "HTTP/1.1" CRLF
//! method       = "GET" | "POST"
//! header       = name ":" value          ; name is ASCII, case-folded
//! body         = *OCTET                  ; exactly Content-Length bytes
//! ```
//!
//! Routes:
//!
//! | Route          | Meaning                                          |
//! |----------------|--------------------------------------------------|
//! | `GET /health`  | liveness + drain state                           |
//! | `POST /run`    | run the deck in the body, reply when it finishes |
//!
//! `POST /run` request headers (all optional):
//!
//! | Header              | Meaning                                         |
//! |---------------------|-------------------------------------------------|
//! | `X-Tenant`          | tenant identity for quotas/quarantine (`anon`)  |
//! | `X-Deadline-Ms`     | wall-clock budget; can only shorten the default |
//! | `X-Comm-Timeout-Ms` | comm wait bound; can only shorten the default   |
//! | `X-Fault-Inject`    | `<kind>:<step>:<rank>` chaos fault (if allowed) |
//! | `X-Stream`          | `1`: stream one line per step (serial decks)    |
//! | `X-Resume`          | resume a drain checkpoint handle, empty body    |
//!
//! Responses are JSON: `{"status":"ok",...}` with the run report
//! digest (steps, bit-exact `time_bits`/`energy_end_bits`, a
//! `state_crc` over the full solution state), `202
//! {"status":"checkpointed","handle":...}` when the server drained the
//! run out, or `{"status":"error","kind":...,"error":...}` with a
//! matching HTTP status:
//!
//! | Status | `kind`                       | Class                        |
//! |--------|------------------------------|------------------------------|
//! | 400    | `protocol`, `deck`           | request/deck mistakes        |
//! | 403    | `fault_injection_disabled`   | chaos headers not allowed    |
//! | 404    | (protocol) / `checkpoint`    | unknown path / handle        |
//! | 408/413/431 | `protocol`              | timeout / body / header size |
//! | 422    | `unhealthy`                  | sentinel-diagnosed physics   |
//! | 429    | `quarantined`, `too_many_in_flight` | tenant throttling     |
//! | 500    | `comm_fault`, `rank_panic`   | contained infrastructure     |
//! | 503    | `overloaded`, `draining`     | load shedding / drain        |
//! | 504    | `deadline`                   | wall-clock budget exceeded   |
//!
//! # Admission control
//!
//! [`limits::ResourceLimits`] caps mesh cells, step budget, deck bytes
//! and per-tenant in-flight requests. Limit violations are rejected at
//! *validate* time with line-anchored errors pointing at the offending
//! assignment in the submitted text ([`limits::admit_deck`]). The
//! connection queue is bounded: when it is full the accept loop
//! answers `503 overloaded` immediately instead of buffering.
//!
//! # Supervision and quarantine
//!
//! Each admitted run gets a wall-clock deadline (enforced
//! symmetrically inside the step loop — every rank agrees on the
//! abort), the per-step health sentinel, bounded comm timeouts, and a
//! panic boundary. Failures are classified: deck typos are harmless,
//! but *health* failures (sentinel aborts, comm faults, panics, blown
//! deadlines) count against the tenant, and
//! [`quarantine::QuarantinePolicy::threshold`] consecutive ones
//! quarantine the tenant for an exponentially growing window
//! ([`quarantine::TenantLedger`]). One healthy completion heals the
//! streak and the backoff level.
//!
//! # Graceful drain
//!
//! [`server::Server::drain`] stops admissions (`503 draining`) and
//! flips a flag every in-flight run observes at its next segment
//! boundary (at most `drain_check_steps` steps away): the run
//! checkpoints through a [`bookleaf_core::CheckpointStore`] of its own
//! and its tenant receives `202`
//! with a resumable handle. Submitting the handle back via `X-Resume`
//! — to this or any other server sharing the drain directory —
//! continues the run bitwise-identically to one that was never
//! interrupted (segmenting stops only at step boundaries).
//!
//! # Caching
//!
//! Built decks (mesh + initial state) are cached keyed by the hash of
//! the *canonical* deck text, so formatting differences share work
//! while any semantic change misses ([`cache::DeckCache`]). Cached
//! decks are cloned out per request; results are bitwise independent
//! of cache hits.

pub mod cache;
pub mod client;
pub mod limits;
pub mod protocol;
pub mod quarantine;
pub mod server;

pub use cache::{deck_cache_key, DeckCache};
pub use client::{get_health, post_run, request, HttpResponse};
pub use limits::{admit_deck, ResourceLimits};
pub use protocol::ProtocolError;
pub use quarantine::{AdmitError, QuarantinePolicy, RunOutcome, TenantLedger};
pub use server::{state_crc, ServeConfig, Server};
