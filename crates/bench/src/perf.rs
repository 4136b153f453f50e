//! Machine-readable sweep timing and the `BENCH_sweep.json` writer.
//!
//! Every sweep-shaped binary fans its experiment grid out through
//! [`rbcast_core::engine`], so wall-clock per sweep, runs/sec, and the
//! worker-thread count are the numbers that matter for throughput work.
//! This module measures them and serialises them to a stable JSON shape
//! (hand-rolled — the workspace is offline and carries no serde) so the
//! baseline can be checked in and diffed across PRs.
//!
//! Timing lives here and nowhere near the simulation: stopwatches come
//! from [`rbcast_core::obs`] (the only module allowed to read the wall
//! clock), and holding or dropping the timer never changes an outcome.
//! The emitted document also carries the process-wide [`obs`] metrics
//! and span-timing snapshots, so a bench run records *what* the sweeps
//! did (deliveries, retries, arena traffic) next to how long they took.
//!
//! [`obs`]: rbcast_core::obs

use rbcast_core::supervisor::{self, SupervisorConfig, SweepReport, TaskReport};
use rbcast_core::{engine, Experiment, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Timing record for one executed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTiming {
    /// Stable sweep key, `"<bin>/<section>"` (e.g. `thresh_byz/achievability`).
    pub label: String,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Number of experiment runs in the sweep.
    pub runs: usize,
    /// Wall-clock duration of the whole sweep, milliseconds.
    pub wall_ms: f64,
}

impl SweepTiming {
    /// Experiment runs completed per second.
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.runs as f64 * 1000.0 / self.wall_ms
        }
    }
}

/// The supervised results of one sweep: healthy outcomes in experiment
/// order (quarantined slots are `None`) plus the quarantine report.
/// Derefs to `[Option<Outcome>]`, so `rows[i]`, `rows.iter().flatten()`
/// and `chunks(n)` all work directly on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRows {
    rows: Vec<Option<Outcome>>,
    /// Quarantined tasks: `(experiment index, error display)`.
    pub quarantined: Vec<(usize, String)>,
}

impl std::ops::Deref for SweepRows {
    type Target = [Option<Outcome>];
    fn deref(&self) -> &Self::Target {
        &self.rows
    }
}

impl SweepRows {
    /// True when no task was quarantined.
    #[must_use]
    pub fn fully_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// The supervisor policy every bench sweep runs under: the environment
/// knobs (`RBCAST_CHAOS`, `RBCAST_RETRIES`, `RBCAST_ROUND_BUDGET`)
/// applied to the defaults. A malformed knob aborts with exit code 2 —
/// a typo must not silently disarm a chaos gate.
fn env_config() -> SupervisorConfig {
    match SupervisorConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Where a sweep's checkpoint journal lives:
/// `results/journal/<label>.jsonl` under the workspace root (anchored
/// at compile time — `cargo bench`/`cargo test` set a per-crate cwd,
/// and journals must not scatter with it), with `/` flattened to `_`.
#[must_use]
pub fn journal_path(label: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("journal")
        .join(format!("{}.jsonl", label.replace('/', "_")))
}

/// Runs `experiments` under the sweep supervisor on `threads` workers
/// and times the sweep. Healthy outcomes come back in experiment order —
/// identical for every thread count — so callers print rows exactly as
/// the serial loops they replace did; failed tasks are quarantined
/// (reported and journalled) instead of killing the bin. Each sweep
/// checkpoints to [`journal_path`]`(label)` as tasks complete (best
/// effort: an unwritable path warns and continues).
#[must_use]
pub fn run_sweep_timed(
    label: &str,
    experiments: &[Experiment],
    threads: usize,
) -> (SweepRows, SweepTiming) {
    let mut config = env_config();
    match supervisor::Journal::create(&journal_path(label)) {
        Ok(journal) => config.journal = Some(journal),
        Err(e) => eprintln!(
            "warning: cannot open journal {}: {e}",
            journal_path(label).display()
        ),
    }
    let t0 = rbcast_core::obs::Stopwatch::start();
    let report = supervisor::run_experiments_supervised(experiments, threads, &config);
    let wall_ms = t0.elapsed_ms();
    (
        rows_of(label, report),
        SweepTiming {
            label: label.to_string(),
            threads,
            runs: experiments.len(),
            wall_ms,
        },
    )
}

/// Flattens a supervised report into [`SweepRows`], printing the
/// quarantine report (if any) so no failure is silent.
fn rows_of(label: &str, report: SweepReport) -> SweepRows {
    let quarantined: Vec<(usize, String)> = report
        .quarantined()
        .into_iter()
        .map(|(i, e)| (i, e.to_string()))
        .collect();
    for (i, error) in &quarantined {
        println!("quarantine {label}: task {i}: {error}");
    }
    let rows = report
        .tasks
        .into_iter()
        .map(|t| match t {
            TaskReport::Done { outcome, .. } => Some(outcome),
            // Bench sweeps never resume; a Resumed slot would mean a
            // stale resume map leaked in — treat it as unavailable.
            TaskReport::Resumed { .. } | TaskReport::Failed { .. } => None,
        })
        .collect();
    SweepRows { rows, quarantined }
}

/// [`run_sweep_timed`] at the ambient thread count
/// ([`engine::thread_count`]`(None)`, i.e. `RBCAST_THREADS` or all
/// cores), printing a one-line sweep summary.
#[must_use]
pub fn run_sweep(label: &str, experiments: &[Experiment]) -> (SweepRows, SweepTiming) {
    let threads = engine::thread_count(None);
    let (rows, timing) = run_sweep_timed(label, experiments, threads);
    let quarantine_note = if rows.fully_healthy() {
        String::new()
    } else {
        format!(", {} quarantined", rows.quarantined.len())
    };
    println!(
        "sweep {label}: {} runs on {threads} thread(s) in {:.1} ms ({:.0} runs/s{quarantine_note})",
        timing.runs,
        timing.wall_ms,
        timing.runs_per_sec()
    );
    (rows, timing)
}

/// Parallel scaling efficiency of one sweep against its bin's
/// single-thread baseline: `rps(threads=N) / (N × rps(threads=1))`,
/// where the baseline is the first `threads == 1` sweep sharing the
/// label's `<bin>/` prefix. Perfect scaling is `1.0` at every thread
/// count; on a single-core host the value decays towards `1/N`. `None`
/// when the bin has no single-thread sweep to compare against.
#[must_use]
pub fn scaling_efficiency(t: &SweepTiming, all: &[SweepTiming]) -> Option<f64> {
    let bin = |label: &str| label.split('/').next().map(str::to_owned);
    let mine = bin(&t.label);
    let base = all
        .iter()
        .find(|b| b.threads == 1 && bin(&b.label) == mine)?;
    let base_rps = base.runs_per_sec();
    if base_rps <= 0.0 {
        return None;
    }
    Some(t.runs_per_sec() / (t.threads as f64 * base_rps))
}

/// Serialises timings to the `BENCH_sweep.json` document: the default
/// thread count, one record per sweep (with its [`scaling_efficiency`]),
/// per-bin totals (keyed by the label's `<bin>/` prefix), the
/// [`rbcast_core::obs::metrics_snapshot`] counter readings, and the
/// [`rbcast_core::obs::timings_snapshot`] span aggregates. Key order is
/// sorted, floats are fixed to three decimals — the output is
/// byte-stable for identical inputs and identical counter state.
#[must_use]
pub fn to_json(default_threads: usize, timings: &[SweepTiming]) -> String {
    let mut bins: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for t in timings {
        let bin = t.label.split('/').next().unwrap_or(&t.label);
        let entry = bins.entry(bin).or_insert((0, 0.0));
        entry.0 += t.runs;
        entry.1 += t.wall_ms;
    }

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"rbcast-bench-sweep/v3\",");
    let _ = writeln!(s, "  \"default_threads\": {default_threads},");
    s.push_str("  \"sweeps\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let efficiency = scaling_efficiency(t, timings)
            .map_or_else(|| "null".to_string(), |e| format!("{e:.3}"));
        let _ = write!(
            s,
            "    {{\"label\": \"{}\", \"threads\": {}, \"runs\": {}, \
             \"wall_ms\": {:.3}, \"runs_per_sec\": {:.3}, \
             \"scaling_efficiency\": {efficiency}}}",
            json_escape(&t.label),
            t.threads,
            t.runs,
            t.wall_ms,
            t.runs_per_sec()
        );
        s.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"bins\": {\n");
    for (i, (bin, (runs, wall_ms))) in bins.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\"runs\": {runs}, \"wall_ms\": {wall_ms:.3}}}",
            json_escape(bin)
        );
        s.push_str(if i + 1 < bins.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n");
    let metrics = rbcast_core::obs::metrics_snapshot();
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(s, "    \"{}\": {value}", json_escape(name));
        s.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n");
    let spans = rbcast_core::obs::timings_snapshot();
    s.push_str("  \"timings\": {\n");
    for (i, (name, stat)) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}}}",
            json_escape(name),
            stat.count,
            stat.total_ms()
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Writes [`to_json`] to `path`. I/O errors are reported, not fatal — a
/// read-only checkout must not fail a bench run.
pub fn write_bench_json(path: &Path, default_threads: usize, timings: &[SweepTiming]) {
    match std::fs::write(path, to_json(default_threads, timings)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One cell of the scale bench: a single fault-free broadcast on an
/// `side × side` torus, timed wall-clock. Throughput is reported two
/// ways — `nodes/sec` (population divided by wall time, the headline
/// scaling number) and `rounds/sec` (simulated rounds per second, the
/// per-step cost of the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCell {
    /// Protocol label (`flood` / `cpa` / `indirect`).
    pub protocol: String,
    /// Torus side length; the population is `side * side`.
    pub side: usize,
    /// Node count (`side * side`).
    pub nodes: usize,
    /// Rounds the run executed.
    pub rounds: u32,
    /// Message deliveries performed.
    pub deliveries: u64,
    /// Local broadcasts performed.
    pub messages: u64,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// The cell's own peak RSS in kilobytes: the process high-water
    /// mark (`VmHWM`), reset by [`reset_peak_rss`] just before the cell
    /// ran and read when it finished. `None` where the probe or the
    /// reset is unavailable — without the reset the mark would be the
    /// running maximum of every earlier cell. Memory regressions (e.g.
    /// per-node evidence blow-up) surface here without any allocator
    /// instrumentation.
    pub peak_rss_kb: Option<u64>,
}

/// Process peak resident-set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Std-only, no allocator hooks; returns
/// `None` on platforms without procfs or if the field is missing.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the process's peak-RSS high-water mark to its current RSS by
/// writing `5` to `/proc/self/clear_refs` (Linux 4.0+), so the next
/// [`peak_rss_kb`] read covers only what ran in between. Returns `false`
/// where the reset is unavailable.
#[must_use]
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

impl ScaleCell {
    /// Nodes simulated per second of wall time.
    #[must_use]
    pub fn nodes_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.nodes as f64 * 1000.0 / self.wall_ms
        }
    }

    /// Simulated rounds per second of wall time.
    #[must_use]
    pub fn rounds_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            f64::from(self.rounds) * 1000.0 / self.wall_ms
        }
    }
}

/// Serialises scale cells to the `BENCH_scale.json` document: the
/// engine label, one record per cell, and the same trailing
/// [`rbcast_core::obs`] metrics / timings snapshots as
/// `BENCH_sweep.json`. Key order is fixed and floats print with three
/// decimals, so the output is byte-stable for identical inputs and
/// identical counter state.
#[must_use]
pub fn to_scale_json(engine: &str, cells: &[ScaleCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"rbcast-bench-scale/v2\",");
    let _ = writeln!(s, "  \"engine\": \"{}\",", json_escape(engine));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"protocol\": \"{}\", \"side\": {}, \"nodes\": {}, \
             \"rounds\": {}, \"deliveries\": {}, \"messages\": {}, \
             \"wall_ms\": {:.3}, \"nodes_per_sec\": {:.3}, \
             \"rounds_per_sec\": {:.3}, \"peak_rss_kb\": {}}}",
            json_escape(&c.protocol),
            c.side,
            c.nodes,
            c.rounds,
            c.deliveries,
            c.messages,
            c.wall_ms,
            c.nodes_per_sec(),
            c.rounds_per_sec(),
            match c.peak_rss_kb {
                Some(kb) => kb.to_string(),
                None => "null".to_string(),
            }
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let metrics = rbcast_core::obs::metrics_snapshot();
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(s, "    \"{}\": {value}", json_escape(name));
        s.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n");
    let spans = rbcast_core::obs::timings_snapshot();
    s.push_str("  \"timings\": {\n");
    for (i, (name, stat)) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}}}",
            json_escape(name),
            stat.count,
            stat.total_ms()
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Writes [`to_scale_json`] to `path`. I/O errors are reported, not
/// fatal, matching [`write_bench_json`].
pub fn write_scale_json(path: &Path, engine: &str, cells: &[ScaleCell]) {
    match std::fs::write(path, to_scale_json(engine, cells)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(label: &str, threads: usize, runs: usize, wall_ms: f64) -> SweepTiming {
        SweepTiming {
            label: label.to_string(),
            threads,
            runs,
            wall_ms,
        }
    }

    #[test]
    fn json_shape_is_stable_and_totals_group_by_bin() {
        let t = [
            timing("byz/a", 4, 32, 100.0),
            timing("byz/b", 4, 8, 25.0),
            timing("cpa/a", 4, 4, 10.0),
        ];
        let j = to_json(4, &t);
        assert!(j.contains("\"schema\": \"rbcast-bench-sweep/v3\""));
        assert!(j.contains("\"default_threads\": 4"));
        assert!(j.contains("\"label\": \"byz/a\", \"threads\": 4, \"runs\": 32"));
        assert!(j.contains("\"byz\": {\"runs\": 40, \"wall_ms\": 125.000}"));
        assert!(j.contains("\"cpa\": {\"runs\": 4, \"wall_ms\": 10.000}"));
        // no threads-1 sweep in either bin → efficiency is null
        assert!(j.contains("\"scaling_efficiency\": null"));
        // v3 carries the observability snapshots
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"flow/augmentations\": "));
        assert!(j.contains("\"timings\": {"));
        // byte-stable for the timing-derived part (the trailing metrics /
        // timings blocks read live process counters, which sibling tests
        // running in parallel may bump between the two calls)
        let stable = |s: &str| s.split("\"metrics\"").next().map(str::to_owned);
        assert_eq!(stable(&j), stable(&to_json(4, &t)));
    }

    #[test]
    fn scaling_efficiency_uses_the_bins_serial_baseline() {
        let t = [
            timing("eng/threads1", 1, 32, 100.0), // 320 rps
            timing("eng/threads2", 2, 32, 100.0), // 320 rps → eff 0.5
            timing("eng/threads4", 4, 32, 25.0),  // 1280 rps → eff 1.0
            timing("other/threads2", 2, 8, 10.0), // no baseline in bin
        ];
        let eff = |i: usize| scaling_efficiency(&t[i], &t);
        assert!((eff(0).unwrap() - 1.0).abs() < 1e-9);
        assert!((eff(1).unwrap() - 0.5).abs() < 1e-9);
        assert!((eff(2).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(eff(3), None);
        let j = to_json(4, &t);
        assert!(j.contains("\"scaling_efficiency\": 1.000"));
        assert!(j.contains("\"scaling_efficiency\": 0.500"));
        assert!(j.contains("\"scaling_efficiency\": null"));
    }

    #[test]
    fn runs_per_sec_handles_zero_wall() {
        assert!(timing("x", 1, 5, 0.0).runs_per_sec().abs() < 1e-12);
        let t = timing("x", 1, 50, 1000.0);
        assert!((t.runs_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_escaped() {
        let j = to_json(1, &[timing("a\"b\\c", 1, 1, 1.0)]);
        assert!(j.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn timed_sweep_returns_outcomes_in_order() {
        use rbcast_core::ProtocolKind;
        let experiments: Vec<Experiment> = (1..=2)
            .map(|r| Experiment::new(r, ProtocolKind::Flood))
            .collect();
        let (rows, timing) = run_sweep_timed("test/order", &experiments, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.fully_healthy());
        assert_eq!(timing.runs, 2);
        let serial = engine::run_experiments(&experiments, 1);
        let healthy: Vec<Outcome> = rows.iter().flatten().cloned().collect();
        assert_eq!(healthy, serial);
        std::fs::remove_file(journal_path("test/order")).ok();
    }

    fn cell(protocol: &str, side: usize, rounds: u32, wall_ms: f64) -> ScaleCell {
        ScaleCell {
            protocol: protocol.to_string(),
            side,
            nodes: side * side,
            rounds,
            deliveries: 40,
            messages: 10,
            wall_ms,
            peak_rss_kb: Some(2048),
        }
    }

    #[test]
    fn scale_json_shape_is_stable_and_rates_are_derived() {
        let cells = [
            cell("flood", 100, 54, 500.0),
            cell("cpa", 1000, 510, 2000.0),
        ];
        let j = to_scale_json("sparse", &cells);
        assert!(j.contains("\"schema\": \"rbcast-bench-scale/v2\""));
        assert!(j.contains("\"engine\": \"sparse\""));
        // 10 000 nodes in 0.5 s → 20 000 nodes/s; 54 rounds → 108 rounds/s
        assert!(j.contains(
            "\"protocol\": \"flood\", \"side\": 100, \"nodes\": 10000, \
             \"rounds\": 54, \"deliveries\": 40, \"messages\": 10, \
             \"wall_ms\": 500.000, \"nodes_per_sec\": 20000.000, \
             \"rounds_per_sec\": 108.000, \"peak_rss_kb\": 2048"
        ));
        // an absent probe serialises as JSON null, not a sentinel
        let mut no_probe = cell("flood", 10, 5, 1.0);
        no_probe.peak_rss_kb = None;
        assert!(to_scale_json("dense", &[no_probe]).contains("\"peak_rss_kb\": null"));
        assert!(j.contains("\"nodes\": 1000000"));
        // the trailing observability blocks ride along, as in sweep v3
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"timings\": {"));
        // byte-stable up to the live counter snapshots
        let stable = |s: &str| s.split("\"metrics\"").next().map(str::to_owned);
        assert_eq!(stable(&j), stable(&to_scale_json("sparse", &cells)));
    }

    #[test]
    fn peak_rss_probe_reports_a_plausible_value_on_procfs_platforms() {
        // On Linux the probe must succeed and report at least a few
        // hundred kB (the test binary alone maps more than that).
        // Elsewhere `None` is the documented answer.
        if std::path::Path::new("/proc/self/status").exists() {
            let kb = peak_rss_kb().expect("VmHWM present on procfs");
            assert!(kb > 100, "implausible peak RSS: {kb} kB");
        } else {
            assert_eq!(peak_rss_kb(), None);
        }
    }

    #[test]
    fn peak_rss_reset_forgets_an_earlier_peak() {
        if !reset_peak_rss() {
            return; // no procfs reset on this platform: nothing to check
        }
        // Touch 64 MiB, free it (large blocks go back to the kernel),
        // and the reset must bring the mark back below that peak.
        let mut block = vec![0u8; 64 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        drop(std::hint::black_box(block));
        let before = peak_rss_kb().expect("VmHWM present on procfs");
        assert!(reset_peak_rss());
        let after = peak_rss_kb().expect("VmHWM present on procfs");
        assert!(
            after + (32 << 10) < before,
            "reset left the peak at {after} kB (was {before} kB)"
        );
    }

    #[test]
    fn scale_rates_handle_zero_wall() {
        let c = cell("flood", 10, 5, 0.0);
        assert!(c.nodes_per_sec().abs() < 1e-12);
        assert!(c.rounds_per_sec().abs() < 1e-12);
    }

    #[test]
    fn journal_paths_flatten_labels_and_anchor_at_the_workspace_root() {
        let p = journal_path("thresh_byz/achievability");
        assert!(p.ends_with("results/journal/thresh_byz_achievability.jsonl"));
        assert!(p.is_absolute());
    }
}
