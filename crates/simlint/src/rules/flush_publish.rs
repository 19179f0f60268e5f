//! R8 `flush-before-publish`: the software-coherence write discipline,
//! checked on the CFG.
//!
//! The pooled datapath is only correct if every producer follows
//! write → flush → publish: fill the shared segment with cached
//! `store`s, push them to fabric visibility with `flush` (or register
//! the happens-before edge with `mark_sync_range`), and only then make
//! the data observable — ring the doorbell, bump a ring sequence word
//! with `nt_store`, or `publish` a new generation. A `store` that
//! can reach a publish without an intervening flush on *some* path is
//! a stale-read bug the vector-clock auditor only catches when a seed
//! happens to execute that path; this rule catches it on every path,
//! statically.
//!
//! Abstract machine (see [`crate::dataflow`]): state ∈ {Clean, Dirty}.
//! A `store` call dirties, a `flush`/`mark_sync_range` cleans, and a
//! publish event (`nt_store`/`ring_doorbell`/`publish`) observed in
//! the Dirty state is a finding (and resets to Clean so one bug is
//! reported once per publish site, not once per later publish).
//!
//! Functions *named* after an event (`store`, `flush`, `nt_store`, …)
//! are the discipline's implementation — the fabric primitives and
//! their forwarding shims — and are exempt.

use crate::diag::Diagnostic;
use crate::parser::FileAst;
use crate::source::FileCtx;

use super::{diag_at, is_call, lint_fns};

/// Crates whose production code carries the shared-memory datapath.
const DATAPATH_CRATES: &[&str] = &["cxl-fabric", "pcie-sim", "shmem", "core"];

/// Cached shared-segment writes (dirty).
const WRITES: &[&str] = &["store"];
/// Visibility barriers (clean).
const FLUSHES: &[&str] = &["flush", "mark_sync_range"];
/// Events that make data observable to other hosts.
const PUBLISHES: &[&str] = &["nt_store", "ring_doorbell", "publish"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum St {
    Clean,
    Dirty,
}

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx, ast: &FileAst, out: &mut Vec<Diagnostic>) {
    let in_scope = ctx
        .crate_dir
        .as_deref()
        .is_some_and(|d| DATAPATH_CRATES.contains(&d));
    if !in_scope {
        return;
    }
    lint_fns(ctx, ast, out, |ctx, def, cfg, out| {
        let exempt = WRITES
            .iter()
            .chain(FLUSHES)
            .chain(PUBLISHES)
            .any(|&e| def.name == e);
        if exempt {
            return;
        }
        let transfer = |s: St, i: usize| -> St {
            let t = ctx.sig_text(i);
            if WRITES.contains(&t) && is_call(ctx, i) {
                St::Dirty
            } else if (FLUSHES.contains(&t) || PUBLISHES.contains(&t)) && is_call(ctx, i) {
                // A publish also resets: the violation is reported at
                // the publish site itself, not re-reported downstream.
                St::Clean
            } else {
                s
            }
        };
        let states = crate::dataflow::analyze(cfg, St::Clean, transfer);
        // Re-simulate each block from each reachable entry state to
        // find the publish sites a Dirty state can reach.
        let mut hits = std::collections::BTreeSet::new();
        for (b, entries) in states.iter().enumerate() {
            for &s0 in entries {
                let mut s = s0;
                for seg in &cfg.blocks[b].segs {
                    for i in seg.clone() {
                        let t = ctx.sig_text(i);
                        if s == St::Dirty && PUBLISHES.contains(&t) && is_call(ctx, i) {
                            hits.insert(i);
                        }
                        s = transfer(s, i);
                    }
                }
            }
        }
        for i in hits {
            out.push(diag_at(
                ctx,
                i,
                "flush-before-publish",
                format!(
                    "`{}` is reachable with an unflushed `store` on some path through \
                     fn `{}`; call `flush`/`mark_sync_range` before publishing",
                    ctx.sig_text(i),
                    def.name
                ),
            ));
        }
    });
}
