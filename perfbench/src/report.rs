//! Statistics, host spans and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("node_updates_per_s", "1/s"),
    ("programs_per_s", "1/s"),
    ("program_p50_us", "us"),
    ("program_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
/// `vs` is virtual (modelled) seconds, never host seconds.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("somier.reference_s", "s"),
    ("somier.host_overhead_x", "x"),
    ("somier.vtime_s", "vs"),
    ("somier.paper_err_pct", "%"),
    ("devices.copy_s", "s"),
    ("devices.copy_gbps", "GB/s"),
    ("devices.h2d_bytes", "B"),
    ("devices.d2h_bytes", "B"),
    ("devices.dma_ops", "count"),
    ("devices.peak_mem_bytes", "B"),
    ("devices.dma_busy_s", "vs"),
    ("devices.kernel_busy_s", "vs"),
    ("devices.overlap_s", "vs"),
    ("devices.idle_s", "vs"),
    ("sim.replay_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.bus_saturated_s", "vs"),
    ("teams.launches", "count"),
    ("teams.dispatch_us", "us"),
    ("teams.dispatch_s", "s"),
    ("core.constructs", "count"),
    ("core.distribute_us", "us"),
    ("check.oracle_s", "s"),
    ("check.execute_s", "s"),
    ("check.statements", "count"),
    ("trace.spans", "count"),
    ("trace.timeline_s", "s"),
    ("trace.overhead_pct", "%"),
    ("rt.residual_s", "s"),
];

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The process's resident-set high-water mark in bytes (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// One host-time span recorded by the benchmark around a call into a
/// layer. Spans stay in memory until the run ends.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// In-memory span recorder over one host clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<HostSpan>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        self.spans.push(HostSpan {
            name: name.into(),
            parent,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.dur_us = self.epoch.elapsed().as_secs_f64() * 1e6 - s.start_us;
        s.dur_us / 1e6
    }

    /// Time `f` inside a span named `name`; returns its result and seconds.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// The spans as Chrome trace-event JSON (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name.replace(['"', '\\'], "_"),
                s.start_us,
                s.dur_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One row of the per-layer host-time table.
pub struct LayerRow {
    pub layer: &'static str,
    pub what: &'static str,
    pub host_s: f64,
}

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems that are not per-operation failures (drift
    /// of a deterministic quantity, a replay that lost bytes, …).
    pub mismatches: Vec<String>,
    /// The result line's metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed with the result but not part of the result line:
    /// deterministic values the run checks exactly.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// The per-layer host-time table (traced runs).
    pub layers: Vec<LayerRow>,
    /// `wall_s` of the run, the base of the table's shares.
    pub wall_s: f64,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(tracer: Tracer) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            layers: Vec::new(),
            wall_s: 0.0,
            tracer,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Set metric `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Check that the metrics are exactly `expected`, each finite.
    fn validate(&mut self, expected: &[(&str, &str)]) {
        for (name, _) in expected {
            match self.metrics.iter().find(|(n, _)| n == name) {
                None => self
                    .mismatches
                    .push(format!("metric {name} was not measured")),
                Some((_, v)) if !v.is_finite() => self
                    .mismatches
                    .push(format!("metric {name} is not finite: {v}")),
                Some(_) => {}
            }
        }
        for (name, _) in &self.metrics {
            if !expected.iter().any(|(n, _)| n == name) {
                self.mismatches
                    .push(format!("metric {name} is not declared"));
            }
        }
    }

    /// Print the human-readable lines, then the result line last.
    pub fn print(&mut self, expected: &[(&'static str, &'static str)]) {
        self.validate(expected);
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<26} {:>18} unit", "metric", "value");
        for (name, unit) in expected {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |m| m.1);
            println!("{name:<26} {v:>18.6} {unit}");
        }
        for (name, v, unit) in &self.notes {
            println!("{name:<26} {v:>18.6} {unit}");
        }
        println!("{:<26} {failed_frac:>18.6} ratio", "failed_frac");
        if !self.layers.is_empty() {
            println!();
            println!(
                "{:<16} {:<50} {:>10} {:>8}",
                "layer", "measured from outside", "host s", "% wall"
            );
            for row in &self.layers {
                let share = if self.wall_s > 0.0 {
                    100.0 * row.host_s / self.wall_s
                } else {
                    0.0
                };
                println!(
                    "{:<16} {:<50} {:>10.4} {:>7.1}%",
                    row.layer, row.what, row.host_s, share
                );
            }
            println!(
                "{:<16} {:<50} {:>10.4} {:>7.1}%",
                "", "wall of this run (base of % wall)", self.wall_s, 100.0
            );
        }
        for m in &self.mismatches {
            println!("MISMATCH: {m}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in expected {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |m| m.1);
            let v = if v.is_finite() { v } else { 0.0 };
            if !first {
                line.push_str(", ");
            }
            first = false;
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.5);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
