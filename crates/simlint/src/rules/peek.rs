//! R3 `fabric-peek`: no `Fabric::peek`/`peek_settled` outside tests.
//!
//! The peek family reads pool bytes while bypassing caches, latency
//! charging, and the coherence auditor — a debugging backdoor that
//! makes results lie if it leaks into production paths. This rule
//! subsumes the clippy.toml `disallowed-methods` entries (clippy keeps
//! running for type-resolved coverage; the `policy-sync` check in the
//! engine diagnoses drift between the two lists).
//!
//! Token-level type resolution is impossible, so the `.peek(` pattern
//! only fires in files that mention `Fabric` at all — `BinaryHeap::
//! peek` in `simkit::sched` stays clean without an allow — and never on
//! an empty argument list: `.peek()` cannot be `Fabric::peek(hpa, buf)`,
//! so a heap's `peek()` in a file that does mention `Fabric` is clean
//! too.

use crate::diag::Diagnostic;
use crate::source::FileCtx;

use super::{diag_at, match_seq};

/// The disallowed methods, as full paths. Must stay in sync with
/// clippy.toml's `disallowed-methods` (checked by `policy-sync`).
pub const DISALLOWED: &[&str] = &[
    "cxl_fabric::fabric::Fabric::peek",
    "cxl_fabric::fabric::Fabric::peek_settled",
];

/// Bare method names of [`DISALLOWED`].
pub fn method_names() -> Vec<&'static str> {
    DISALLOWED
        .iter()
        .map(|p| p.rsplit("::").next().expect("non-empty path"))
        .collect()
}

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let methods = method_names();
    let mentions_fabric = (0..ctx.sig.len()).any(|i| ctx.sig_text(i) == "Fabric");
    for i in 0..ctx.sig.len() {
        let Some(t) = ctx.sig_tok(i) else { break };
        if !ctx.is_prod(t.start) {
            continue;
        }
        let text = ctx.sig_text(i);
        if !methods.contains(&text) {
            continue;
        }
        // Skip the definitions themselves (`fn peek…`).
        if i >= 1 && ctx.sig_text(i - 1) == "fn" {
            continue;
        }
        // A UFCS path call `Fabric::peek…` is always a finding; a
        // method call `.peek…(args)` needs the file to mention Fabric
        // (unambiguous `peek_settled` is flagged regardless). Both
        // methods take `(hpa, buf)`, so `.peek()` is someone else's.
        let ufcs =
            i >= 3 && ctx.sig_text(i - 3) == "Fabric" && match_seq(ctx, i - 2, &["::"]).is_some();
        let method_call = i >= 1
            && ctx.sig_text(i - 1) == "."
            && ctx.sig_text(i + 1) == "("
            && ctx.sig_text(i + 2) != ")";
        let unambiguous = text != "peek";
        if ufcs || (method_call && (mentions_fabric || unambiguous)) {
            out.push(diag_at(
                ctx,
                i,
                "fabric-peek",
                format!(
                    "`{text}` outside tests: bypasses caches, latency, and the coherence auditor; use load()/dma_read()"
                ),
            ));
        }
    }
}
