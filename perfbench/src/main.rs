//! The repository benchmark: one command, three workloads, every metric
//! printed by name with its unit, outputs checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <internet-full|table-ingest|mux-tenants> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics from a
//! traced run (see `NOTES.md`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

// The repository's clippy.toml bans wall-clock types to keep simulation
// code deterministic; measuring host time is this package's purpose.
#![allow(clippy::disallowed_types)]

mod ingest;
mod internet;
mod mux;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.engine.events", "count"),
    ("netsim.engine.self_s", "s"),
    ("netsim.engine.ns_per_event", "ns"),
    ("bgp.speaker.session_msgs", "count"),
    ("bgp.speaker.session_s", "s"),
    ("bgp.fsm.transitions", "count"),
    ("bgp.speaker.updates", "count"),
    ("bgp.speaker.update_prefixes", "count"),
    ("bgp.speaker.update_s", "s"),
    ("bgp.speaker.update_ns_per_prefix", "ns"),
    ("bgp.speaker.deadline_calls", "count"),
    ("bgp.speaker.deadline_s", "s"),
    ("bgp.speaker.ticks", "count"),
    ("bgp.speaker.tick_s", "s"),
    ("workloads.scale.digest_fold_s", "s"),
    ("bgp.speaker.build_s", "s"),
    ("bgp.speaker.drop_s", "s"),
    ("bench.route_s", "s"),
    ("bench.digest_s", "s"),
    ("bgp.decision.runs", "count"),
    ("bgp.decision.prefixes", "count"),
    ("bgp.export.group_computed", "count"),
    ("bgp.export.group_shared", "count"),
    ("bgp.speaker.updates_out", "count"),
    ("bgp.speaker.export_sends_per_route", "ratio"),
    ("bgp.rib.table_bytes", "bytes"),
    ("bgp.attrs.distinct", "count"),
    ("bgp.rib.table_to_rss", "ratio"),
    ("emulation.steps", "count"),
    ("emulation.step_s", "s"),
    ("emulation.ns_per_delivery", "ns"),
    ("netsim.transport.delivered", "count"),
    ("netsim.transport.timers_fired", "count"),
    ("core.mux.harness_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Time of a fixed integer loop, so wall-clock figures can be compared
/// across machines: a result divided by this is in machine-relative
/// units.
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The commit of the checkout, if it is a git working tree; read from
/// `.git` directly so that nothing outside the checkout is consulted.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("internet-full", false) => internet::untraced(args.seed, budget),
        ("internet-full", true) => internet::traced(args.seed),
        ("table-ingest", false) => ingest::untraced(args.seed, budget),
        ("table-ingest", true) => ingest::traced(args.seed),
        ("mux-tenants", false) => mux::untraced(args.seed, budget),
        ("mux-tenants", true) => mux::traced(args.seed),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"calibration_ms\":{:.3},\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        calibration_ms(),
        commit(),
    );
    match report.render(wanted) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
