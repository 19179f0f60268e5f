//! R2 `wall-clock`: no wall-clock or OS entropy in simulation code.
//!
//! Simulated time is the only clock; the seeded RNG forest is the only
//! entropy. `Instant::now`/`SystemTime` tie results to the host,
//! `thread::spawn` introduces scheduling nondeterminism, `thread_rng`
//! is OS-seeded, and `std::env` reads make behavior depend on the
//! invoking shell. Every audit, trace and metrics setting is passed in
//! by its caller, so no simulation crate has a sanctioned exception.

use crate::diag::Diagnostic;
use crate::source::FileCtx;

use super::{diag_at, match_seq};

/// `env::` functions that read the environment.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// Every sanctioned `allow(wall-clock)` site in simulation-production
/// code, as (workspace-relative path, directive count): none today. The
/// workspace self-check (`wall-clock-allowlist`) fails when a file
/// drifts from this table in either direction, so a new wall-clock
/// read cannot ride in silently — adding one means editing this list,
/// which is what review is for.
pub const ALLOWLIST: &[(&str, usize)] = &[];

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        let Some(t) = ctx.sig_tok(i) else { break };
        if !ctx.is_sim_prod(t.start) {
            continue;
        }
        let text = ctx.sig_text(i);
        let found: Option<String> = match text {
            "Instant" if match_seq(ctx, i, &["Instant", "::", "now"]).is_some() => {
                Some("Instant::now()".into())
            }
            "SystemTime" => Some("SystemTime".into()),
            "thread_rng" => Some("thread_rng()".into()),
            "thread" if match_seq(ctx, i, &["thread", "::", "spawn"]).is_some() => {
                Some("thread::spawn".into())
            }
            "env"
                if match_seq(ctx, i, &["env", "::"])
                    .is_some_and(|j| ENV_READS.contains(&ctx.sig_text(j))) =>
            {
                Some(format!("env::{}", ctx.sig_text(i + 3)))
            }
            _ => None,
        };
        if let Some(what) = found {
            out.push(diag_at(
                ctx,
                i,
                "wall-clock",
                format!(
                    "`{}` in sim crate `{}`: host time/entropy leaks into the simulation",
                    what,
                    ctx.crate_dir.as_deref().unwrap_or("?"),
                ),
            ));
        }
    }
}
