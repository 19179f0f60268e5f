//! perfbench: what the pod simulator costs the host, end to end on four
//! workloads, plus a traced per-layer ledger.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pod-nominal|capacity-search|udp-echo|tenant-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` count the checked passes, and `metrics`
//! holds the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`). perfbench/README.md documents every metric.

mod ledger;
mod probes;
mod workloads;
mod yardstick;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ledger::{mean, median, Tracer, PER_LAYER};
use workloads::{Kind, Obs, Pass, Values, Workload};

const USAGE: &str =
    "usage: perfbench --workload <pod-nominal|capacity-search|udp-echo|tenant-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Every end-to-end metric, with its unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_us_per_host_s", "us/s"),
    ("ops_per_host_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Timed passes a run makes however short `--seconds` is.
const MIN_PASSES: u64 = 3;

/// Rounds of the on/off differentials however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".perfbench";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value}"))?;
            }
            "--seconds" => {
                seconds =
                    value.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                        format!("--seconds needs a positive integer, got {value}")
                    })?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Runs passes and checks each against the run's first: its model
/// outputs and deterministic counters repeat exactly, the coherence
/// audit is clean, every echo came back intact, and nothing panicked.
#[derive(Default)]
struct Checker {
    reference: Option<(Values, Values)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// One checked pass; `None` when it panicked.
    fn run(&mut self, wl: &Workload, obs: Obs, tr: &mut Tracer) -> Option<Pass> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| wl.pass(obs, tr))) {
            Ok(pass) => {
                if let Err(e) = self.check(&pass, obs) {
                    self.fail(&e);
                }
                Some(pass)
            }
            Err(_) => {
                self.fail("the workload panicked");
                None
            }
        }
    }

    fn check(&mut self, pass: &Pass, obs: Obs) -> Result<(), String> {
        if pass.violations > 0 {
            return Err(format!("audit reported {} violations", pass.violations));
        }
        if !pass.integrity_ok {
            return Err("an echo came back corrupted".into());
        }
        let Some((model, counters)) = &self.reference else {
            self.reference = Some((pass.model.clone(), pass.counters.clone()));
            return Ok(());
        };
        if let Some(diff) = first_difference(model, &pass.model) {
            return Err(format!("model output {diff} differs from the first pass"));
        }
        // Counters include the audit and trace planes' own, so they
        // repeat only between passes that switch on the same planes.
        if obs == Obs::ON {
            if let Some(diff) = first_difference(counters, &pass.counters) {
                return Err(format!("counter {diff} differs from the first pass"));
            }
        }
        Ok(())
    }

    /// Counts a check that failed outside a pass (a replay or the fig3
    /// comparison).
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {why}");
    }
}

/// The first name whose value differs bit for bit, if any.
fn first_difference(a: &Values, b: &Values) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("count ({} vs {})", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|((ka, va), (kb, vb))| ka != kb || va.to_bits() != vb.to_bits())
        .map(|((k, va), (_, vb))| format!("{k} ({va} vs {vb})"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated ns and ops one pass covers. capacity-search learns them by
/// replaying its trials, which also checks them.
fn work_of(wl: &Workload, pass: &Pass, checker: &mut Checker, tr: &mut Tracer) -> (u64, u64) {
    if wl.kind != Kind::CapacitySearch {
        return (pass.sim_ns, pass.ops);
    }
    match catch_unwind(AssertUnwindSafe(|| wl.replay(&pass.trials, tr))) {
        Ok(Ok(work)) => work,
        Ok(Err(e)) => {
            checker.fail(&e);
            (0, 0)
        }
        Err(_) => {
            checker.fail("the capacity replay panicked");
            (0, 0)
        }
    }
}

/// The end-to-end run: a reference pass, then timed passes for
/// `--seconds` with yardstick units between their parts, with the
/// benchmark's tracing off. Host times are the mean pass (the median for
/// set-up), rescaled to the reference host's usual speed.
fn end_to_end(args: &Args, wl: &Workload, checker: &mut Checker) -> Vec<(&'static str, f64)> {
    let mut tr = Tracer::off();
    let Some(reference) = checker.run(wl, Obs::ON, &mut tr) else {
        return Vec::new();
    };
    let (sim_ns, ops) = work_of(wl, &reference, checker, &mut tr);
    // Read before the yardstick first runs: its tables would count.
    let rss_mb = peak_rss_mb();

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut paced = Tracer::paced();
    let mut timed = 0;
    while timed < MIN_PASSES || start.elapsed() < budget {
        timed += 1;
        if let Some(p) = checker.run(wl, Obs::ON, &mut paced) {
            setup.push(p.setup_s);
            run.push(p.run_s);
        }
    }
    let yardstick = paced.yardstick.unwrap_or_default();
    let scale = yardstick.scale();
    let run_s = mean(&run) * scale;
    let passes: Vec<String> = run.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "perfbench: {} seed {}: run_s of {} timed passes: {}; yardstick unit {:.4} s, scale {:.4}",
        wl.kind.name(),
        args.seed,
        run.len(),
        passes.join(" "),
        yardstick.unit_s(),
        scale
    );
    vec![
        ("setup_s", median(&setup) * scale),
        ("run_s", run_s),
        (
            "sim_us_per_host_s",
            ledger::ratio(sim_ns as f64 / 1e3, run_s),
        ),
        ("ops_per_host_s", ledger::ratio(ops as f64, run_s)),
        ("peak_rss_mb", rss_mb),
    ]
}

/// The traced run: untraced and traced passes alternate for a quarter of
/// `--seconds`; capacity-search then replays its trials traced; the
/// pod workloads switch audit and flight recorder off in turn; the
/// unit-cost probes run last. Spans go to [`SPANS_DIR`].
fn traced(args: &Args, wl: &Workload, checker: &mut Checker) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Some(reference) = checker.run(wl, Obs::ON, &mut Tracer::off()) else {
        return out;
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut overhead) = (Vec::new(), Vec::new());
    let mut tr = loop {
        let untraced = checker.run(wl, Obs::ON, &mut Tracer::off());
        let mut tr = Tracer::on();
        let traced = checker.run(wl, Obs::ON, &mut tr);
        if let (Some(u), Some(t)) = (untraced, traced) {
            plain.push(u.run_s);
            overhead.push(t.run_s - u.run_s);
        }
        if start.elapsed() >= budget / 4 {
            break tr;
        }
    };
    work_of(wl, &reference, checker, &mut tr);
    tr.ledger.metrics(&mut out);
    out.insert("bench.trace_overhead_s", median(&overhead));
    if wl.kind == Kind::UdpEcho {
        let echoes = reference.ops as f64;
        out.insert("udp.host_ns_per_echo", median(&plain) * 1e9 / echoes);
        if wl.is_fig3_seed() {
            if let Err(e) = wl.check_fig3(&reference) {
                checker.fail(&e);
            }
        }
    }

    if wl.has_observability() {
        // Each round runs everything on, audit off, then flight recorder
        // off too, back to back. The median step between neighbours is
        // each plane's host time; pairing within a round cancels drift
        // in the host's speed.
        let variants = [
            Obs::ON,
            Obs {
                audit: false,
                trace: true,
            },
            Obs {
                audit: false,
                trace: false,
            },
        ];
        let (mut audit, mut trace) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed() < budget / 2 {
            rounds += 1;
            let t: Vec<Option<f64>> = variants
                .iter()
                .map(|&obs| checker.run(wl, obs, &mut Tracer::off()).map(|p| p.run_s))
                .collect();
            if let [Some(on), Some(no_audit), Some(neither)] = t[..] {
                audit.push(on - no_audit);
                trace.push(no_audit - neither);
            }
        }
        out.insert("audit.host_s", median(&audit));
        out.insert("trace.host_s", median(&trace));
    }

    let probed = catch_unwind(AssertUnwindSafe(|| {
        let mut probes = BTreeMap::new();
        if wl.kind == Kind::UdpEcho {
            probes::sched_probe(&mut probes);
        } else {
            probes::pod_probes(args.seed, &mut probes);
        }
        probes
    }));
    match probed {
        Ok(probes) => out.extend(probes),
        Err(_) => checker.fail("a unit-cost probe panicked"),
    }

    for (name, value) in &reference.model {
        if let Some(&(known, _, _)) = PER_LAYER.iter().find(|(n, _, _)| n == name) {
            out.insert(known, *value);
        }
    }
    out.insert(
        "bench.check_fail_frac",
        checker.failed as f64 / checker.attempted as f64,
    );
    write_spans(args, wl, &tr);
    out
}

fn write_spans(args: &Args, wl: &Workload, tr: &Tracer) {
    let path = format!(
        "{SPANS_DIR}/spans-{}-seed{}.json",
        wl.kind.name(),
        args.seed
    );
    let written =
        std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, tr.spans_json()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {path}"),
        Err(e) => eprintln!("perfbench: writing {path}: {e}"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = Workload::new(args.kind, args.seed);
    let mut checker = Checker::default();

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let ledger = traced(&args, &wl, &mut checker);
        for name in ledger.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _, _)| n == name),
                "{name} is missing from the per-layer table"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, ledger.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = end_to_end(&args, &wl, &mut checker);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
                (name, v, unit)
            })
            .collect()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
