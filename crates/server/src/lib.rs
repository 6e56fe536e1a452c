//! # skipflow-server
//!
//! Analysis-as-a-service: a concurrent multi-session server over
//! `skipflow-core`, serving call-graph queries from the last published
//! fixpoint while solves proceed. Std-only — the TCP front end, the
//! publication scheme, and the registry are all hand-rolled on
//! `std::net` / `std::sync`.
//!
//! Three layers:
//!
//! * [`registry::Registry`] — many named [`AnalysisSession`]s over shared
//!   `Arc<Program>`s; sessions opened from identical source bytes share
//!   one decoded program. One writer thread per session coalesces queued
//!   mutations (root adds, root *retractions*, method-body *edits* —
//!   [`registry::SessionOp`]) into ordered, budgeted, cancellable batch
//!   solves, publishing exactly one epoch per batch; admission control
//!   sheds on overload and evicts idle sessions LRU-first under a global
//!   memory budget. Retraction and edits make **epochs non-monotone**: a
//!   later epoch may cover fewer roots and reach fewer methods — see
//!   [`registry::PublishedEpoch`]. Each session holds its current epoch in
//!   one `Mutex<Arc<_>>`: a reader locks only to clone the `Arc`, the
//!   writer only to swap in an epoch built outside the lock, so **queries
//!   are never blocked by an in-flight solve**. What is published is
//!   answers, not the graph: each epoch carries a compact [`OwnedSnapshot`]
//!   (reachable set, instantiated types, call-edge CSR and its counts)
//!   extracted once per batch, and its heap bytes count toward the
//!   session's memory estimate.
//! * [`gate::SessionGate`] — the client/writer handshake: the mutation
//!   queue and the pause, resume, cancel and shutdown signals.
//! * [`net::Server`] — a line-delimited TCP protocol over the registry
//!   (`skipflow serve` is a thin CLI wrapper around it).
//!
//! [`AnalysisSession`]: skipflow_core::AnalysisSession
//! [`OwnedSnapshot`]: skipflow_core::OwnedSnapshot
//!
//! ## Protocol grammar
//!
//! One request per line, one response line per request. Tokens are
//! whitespace-separated; session names must be whitespace-free. The full
//! protocol reference — responses, epoch semantics under retraction, the
//! `[partial]` tag — lives in `docs/PROTOCOL.md` at the repository root.
//!
//! ```text
//! request  := ping | shutdown | sessions
//!           | stats [<session>]
//!           | open <session> <source> [<opt>...]
//!           | roots <session> <root>...
//!           | retract <session> <root>...
//!           | edit <session> <root> disable|restore
//!           | flush <session>
//!           | cancel <session>
//!           | evict <session>
//!           | query <session> <q>
//! source   := synth:<benchmark>        (generated suite program)
//!           | <path>                   (.sf source or SFBC bytecode)
//! opt      := steps=<n ≥ 1> | ms=<n ≥ 1>
//! root     := <Cls>.<method> | #<method-id>
//! q        := reachable <root> | reachable-count | call-edges
//!           | poly-calls | completeness | epoch
//! ```
//!
//! ## Response semantics
//!
//! Every response is a single line starting with `ok` or
//! `err <kind>: <message>`. Error kinds: `proto` (malformed request),
//! `unknown-session`, `duplicate-session`, `overloaded` (admission control
//! shed the request), `invalid-root`, `analysis` (bad source/option/root
//! spec), `failed` (the session hit an unrecoverable analysis error; its
//! last epoch stays queryable), and `timeout` (a `flush` outlived its
//! deadline).
//!
//! Responses answered from published answers carry `epoch=<n>` and, when
//! those answers are an interrupted checkpoint rather than a fixpoint, the
//! trailing tag **`[partial]`**: every reported fact (reachable method,
//! call edge) is true of the final fixpoint, but more may appear once the
//! writer resumes — the same sound under-approximation contract as
//! [`Completeness::Partial`](skipflow_core::Completeness). A `flush`
//! settles the session (drains queued roots and budget-interrupted work)
//! and then reports a complete epoch, so `roots` → `flush` → `query` is the
//! read-your-writes sequence.
//!
//! ## Example session
//!
//! ```text
//! > open app synth:h2
//! < ok opened app methods=434 epoch=0
//! > roots app Main.main
//! < ok queued 1 epoch=0
//! > flush app
//! < ok flushed epoch=1 roots=1
//! > query app reachable-count
//! < ok 433 epoch=1
//! > query app completeness
//! < ok complete epoch=1
//! > evict app
//! < ok evicted
//! > shutdown
//! < ok bye
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;
pub mod net;
pub mod protocol;
pub mod registry;

pub use gate::{SessionGate, Settle, WriterStep};
pub use net::{handle_request, Client, Server};
pub use protocol::{parse_request, Query, Request};
pub use registry::{
    PublishedEpoch, Registry, RegistryStats, ServerConfig, ServerError, SessionHandle, SessionOp,
    SessionStats,
};

#[cfg(test)]
mod tests {
    /// The first ```` ```text ```` block of `doc` whose first line starts
    /// with `first`, with every line passed through `strip`.
    fn text_block(doc: &str, strip: fn(&str) -> &str, first: &str) -> String {
        let lines: Vec<&str> = doc.lines().map(strip).collect();
        let start = lines
            .windows(2)
            .position(|w| w[0] == "```text" && w[1].starts_with(first))
            .unwrap_or_else(|| panic!("no text block starting with {first:?}"))
            + 1;
        let len = lines[start..]
            .iter()
            .position(|l| *l == "```")
            .expect("text block is closed");
        lines[start..start + len].join("\n")
    }

    #[test]
    fn crate_doc_grammar_matches_the_protocol_reference() {
        let crate_doc = text_block(
            include_str!("lib.rs"),
            |l| {
                l.strip_prefix("//! ")
                    .or_else(|| l.strip_prefix("//!"))
                    .unwrap_or(l)
            },
            "request  :=",
        );
        let reference = text_block(
            include_str!("../../../docs/PROTOCOL.md"),
            |l| l,
            "request  :=",
        );
        assert_eq!(crate_doc, reference);
    }
}
