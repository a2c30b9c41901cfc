//! Result assembly: output checks with failure accounting, metric
//! values, and the final JSON line.

use peering_telemetry::Snapshot;
use std::collections::BTreeMap;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Descriptions of failed checks, in the order they were found.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result (digests, sizes, the
    /// span table).
    pub notes: Vec<String>,
}

impl Report {
    /// Count one attempted operation that passed when `ok` holds and
    /// failed otherwise.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Record a workload-level check that is not itself an operation:
    /// a failure marks the run incorrect without counting operations.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Copy the speaker counters the per-layer metrics read from a
    /// telemetry snapshot, with UPDATEs sent per decided prefix.
    pub fn set_bgp_counters(&mut self, snap: &Snapshot) {
        let counter = |name: &str| snap.counter(name) as f64;
        for name in [
            "bgp.fsm.transitions",
            "bgp.decision.runs",
            "bgp.decision.prefixes",
            "bgp.export.group_computed",
            "bgp.export.group_shared",
            "bgp.speaker.updates_out",
        ] {
            self.set(name, counter(name));
        }
        self.set(
            "bgp.speaker.export_sends_per_route",
            counter("bgp.speaker.updates_out") / counter("bgp.decision.prefixes").max(1.0),
        );
    }

    /// Put the modelled table size (`Speaker::table_memory`) beside the
    /// measured peak resident memory, and their ratio.
    pub fn set_table_memory(&mut self, table_bytes: usize, distinct_attrs: usize, rss_mb: f64) {
        let bytes = table_bytes as f64;
        self.set("bgp.rib.table_bytes", bytes);
        self.set("bgp.attrs.distinct", distinct_attrs as f64);
        self.set("bgp.rib.table_to_rss", bytes / (rss_mb * 1024.0 * 1024.0));
        self.info("peak_rss_mb", rss_mb, "MiB");
    }

    /// Print a figure that is reported for reading but not gated.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("info {name} {value} {unit}"));
    }

    /// The printed lines, ending with the JSON result. Every metric in
    /// `wanted` is reported; a traced run reports 0 for a layer its
    /// workload does not exercise, and an untraced run that lacks an
    /// end-to-end metric is a benchmark bug.
    pub fn render(&self, wanted: &[(&str, &str)]) -> Result<Vec<String>, String> {
        let mut lines = self.notes.clone();
        for p in &self.problems {
            lines.push(format!("FAILED {p}"));
        }
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        lines.push(format!(
            "checks attempted={} failed={} failed_share={:.6} correct={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            correct
        ));
        let mut json = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if crate::PER_LAYER.iter().any(|(n, _)| *n == name) => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            lines.push(format!("metric {name} {value} {unit}"));
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        lines.push(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        ));
        Ok(lines)
    }
}

/// A finite f64 as a JSON number, keeping every digit.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Deterministic 64-bit generator (SplitMix64) for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named input stream.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut s = seed ^ 0x6a09_e667_f3bc_c909;
        for b in stream.bytes() {
            s = (s ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(s)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
