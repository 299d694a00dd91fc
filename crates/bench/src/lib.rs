//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§4). Each `fig*`/`table*` binary in `src/bin/`
//! prints the same rows/series the paper reports; the functions here do
//! the work so the binaries and integration tests can reuse them.
//!
//! Every simulation is a pure function of a `(program, machine config)`
//! pair, so whole suites fan out across host cores: [`run_suite`] runs
//! the adaptations and then all `4 × N` simulations through
//! [`parallel::map_indexed`], and [`fig2_rows`] does the same for
//! Figure 2's per-benchmark rows. Results are collected by input index,
//! so row order and every number are identical to a serial run — the
//! `fig8`, `fig2`, `table2`, `fig9`, `fig10`, and `perf_report` binaries
//! all fan out this way (worker count from `SSP_THREADS`, default: all
//! cores), while the remaining binaries are serial. The determinism
//! tests compare each fan-out at one worker against several. The
//! single-benchmark entry points ([`run_benchmark_configured`],
//! [`fig2_row`]) run serially on the calling thread.
//!
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! simulator and synthetic workloads; see DESIGN.md), but the *shape* —
//! who wins, by roughly what factor, where the crossovers fall — is the
//! reproduction target recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod cache;
pub mod hand;
pub mod parallel;
pub mod persist;
pub mod trace;

use ssp_core::{AdaptOptions, AdaptReport, MachineConfig, MemoryMode, PostPassTool, SimResult};
use ssp_workloads::Workload;

/// Default deterministic seed for all experiments.
pub const SEED: u64 = 2002;

/// The four configurations of Figures 8–10 for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline in-order machine.
    pub base_io: SimResult,
    /// In-order machine running the SSP-enhanced binary.
    pub ssp_io: SimResult,
    /// Out-of-order machine, original binary.
    pub base_ooo: SimResult,
    /// Out-of-order machine, SSP-enhanced binary.
    pub ssp_ooo: SimResult,
    /// What the post-pass tool emitted.
    pub report: AdaptReport,
}

impl BenchmarkRun {
    /// Speedup of in-order+SSP over baseline in-order (Figure 8, bar 1).
    pub fn speedup_io_ssp(&self) -> f64 {
        self.base_io.cycles as f64 / self.ssp_io.cycles as f64
    }

    /// Speedup of OOO over baseline in-order (Figure 8, bar 2).
    pub fn speedup_ooo(&self) -> f64 {
        self.base_io.cycles as f64 / self.base_ooo.cycles as f64
    }

    /// Speedup of OOO+SSP over baseline in-order (Figure 8, bar 3).
    pub fn speedup_ooo_ssp(&self) -> f64 {
        self.base_io.cycles as f64 / self.ssp_ooo.cycles as f64
    }

    /// Whether the adaptation emitted nothing — the "binary is
    /// byte-identical to the baseline" case. Not an error by itself,
    /// but surfaced per row so a dead row can never pose as a win.
    pub fn is_noop(&self) -> bool {
        self.report.is_noop()
    }

    /// Whether the adapted binary is *slower* than the baseline on the
    /// in-order model.
    pub fn regression_io(&self) -> bool {
        self.ssp_io.cycles > self.base_io.cycles
    }

    /// Whether the adapted binary is *slower* than the baseline on the
    /// out-of-order model.
    pub fn regression_ooo(&self) -> bool {
        self.ssp_ooo.cycles > self.base_ooo.cycles
    }

    /// The row's diagnostic view (see [`SuiteRow`]).
    pub fn suite_row(&self) -> SuiteRow {
        SuiteRow {
            name: self.name.to_owned(),
            base_io: self.base_io.cycles,
            ssp_io: self.ssp_io.cycles,
            base_ooo: self.base_ooo.cycles,
            ssp_ooo: self.ssp_ooo.cycles,
            noop: self.is_noop(),
            regression_io: self.regression_io(),
            regression_ooo: self.regression_ooo(),
        }
    }
}

/// One suite row's cycle counts plus its diagnostic flags — the shape
/// both `perf_report` and the `ssp-serve` daemon render, via
/// [`suite_row_json`], so their outputs are byte-identical by
/// construction (the daemon reconstructs rows from persisted
/// [`SimResult`]s, never from a live [`BenchmarkRun`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SuiteRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline in-order ROI cycles.
    pub base_io: u64,
    /// In-order + SSP ROI cycles.
    pub ssp_io: u64,
    /// Baseline out-of-order ROI cycles.
    pub base_ooo: u64,
    /// Out-of-order + SSP ROI cycles.
    pub ssp_ooo: u64,
    /// The adaptation emitted no slices (binary unchanged).
    pub noop: bool,
    /// Adapted slower than baseline, in-order.
    pub regression_io: bool,
    /// Adapted slower than baseline, out-of-order.
    pub regression_ooo: bool,
}

impl SuiteRow {
    /// Stderr warnings this row deserves, one per line: a silent no-op
    /// or a regression must never scroll past unremarked.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.noop {
            out.push(format!(
                "warning: {}: adaptation emitted no slices (binary unchanged)",
                self.name
            ));
        }
        if self.regression_io {
            out.push(format!(
                "warning: {}: adapted binary is slower than baseline on in-order \
                 ({} -> {} cycles)",
                self.name, self.base_io, self.ssp_io
            ));
        }
        if self.regression_ooo {
            out.push(format!(
                "warning: {}: adapted binary is slower than baseline on out-of-order \
                 ({} -> {} cycles)",
                self.name, self.base_ooo, self.ssp_ooo
            ));
        }
        out
    }
}

/// Render one suite row as a single-line JSON object — the canonical
/// row shape of `ssp-perf-report/5`'s `suite.rows` and of the daemon's
/// workload responses. `regression` is true when either machine model
/// regressed; the per-model split stays in [`SuiteRow`] (and on
/// stderr via [`SuiteRow::warnings`]).
pub fn suite_row_json(r: &SuiteRow) -> String {
    format!(
        concat!(
            "{{\"name\": \"{}\", \"base_io\": {}, \"ssp_io\": {}, ",
            "\"base_ooo\": {}, \"ssp_ooo\": {}, \"noop\": {}, \"regression\": {}}}"
        ),
        r.name,
        r.base_io,
        r.ssp_io,
        r.base_ooo,
        r.ssp_ooo,
        r.noop,
        r.regression_io || r.regression_ooo,
    )
}

/// Run the full tool + simulation pipeline for one benchmark: profile,
/// adapt, then simulate all four configurations (the paper evaluates the
/// same enhanced binary on both machine models), serially on the calling
/// thread. Tests pass cycle-capped machine models so debug-build runs
/// stay fast.
pub fn run_benchmark_configured(
    w: &Workload,
    opts: &AdaptOptions,
    io: &MachineConfig,
    ooo: &MachineConfig,
) -> BenchmarkRun {
    run_suite_configured(std::slice::from_ref(w), opts, io, ooo, 1).remove(0)
}

/// Run the whole suite with the experiments' default configuration,
/// fanning out across [`parallel::threads`] workers.
pub fn run_suite(ws: &[Workload]) -> Vec<BenchmarkRun> {
    run_suite_configured(
        ws,
        &AdaptOptions::default(),
        &MachineConfig::in_order(),
        &MachineConfig::out_of_order(),
        parallel::threads(),
    )
}

/// Run the tool + simulation pipeline over a suite on `workers` threads.
///
/// Two phases, each an indexed fan-out: first every workload is adapted
/// (profile + slice + codegen are independent per binary), then all
/// `4 × N` simulations run as one task list, longest kind first: the
/// adapted binaries out-of-order, then in-order, then the baselines
/// out-of-order and in-order. The long runs start first and the short
/// ones fill in behind them, so one workload on two workers waits only
/// for its adapted out-of-order run. Results are put back by workload
/// and kind, so output order and every statistic match a serial run
/// exactly; with `workers == 1` this *is* the serial run.
pub fn run_suite_configured(
    ws: &[Workload],
    opts: &AdaptOptions,
    io: &MachineConfig,
    ooo: &MachineConfig,
    workers: usize,
) -> Vec<BenchmarkRun> {
    let adapted = parallel::map_indexed(ws, workers, |_, w| {
        PostPassTool::new(io.clone())
            .with_options(opts.clone())
            .run(&w.program)
            .expect("adaptation succeeds")
    });
    let opts_fp = opts.fingerprint();
    let tool_fp = io.fingerprint();
    // All simulations of the suite, kind-major, kind `k` being field `k`
    // of `[base_io, ssp_io, base_ooo, ssp_ooo]`.
    let tasks: Vec<(usize, usize)> =
        [3, 1, 2, 0].into_iter().flat_map(|k| (0..ws.len()).map(move |wi| (wi, k))).collect();
    let sims = parallel::map_indexed(&tasks, workers, |_, &(wi, k)| match k {
        0 => cache::baseline(&ws[wi], io),
        1 => cache::adapted(&ws[wi], &opts_fp, &tool_fp, &adapted[wi].program, io),
        2 => cache::baseline(&ws[wi], ooo),
        _ => cache::adapted(&ws[wi], &opts_fp, &tool_fp, &adapted[wi].program, ooo),
    });
    let mut by_kind: Vec<[Option<SimResult>; 4]> = ws.iter().map(|_| Default::default()).collect();
    for (&(wi, k), sim) in tasks.iter().zip(sims) {
        by_kind[wi][k] = Some(sim);
    }
    ws.iter()
        .zip(adapted)
        .zip(by_kind)
        .map(|((w, a), sims)| {
            let [base_io, ssp_io, base_ooo, ssp_ooo] =
                sims.map(|s| s.expect("four results per workload"));
            BenchmarkRun { name: w.name, base_io, ssp_io, base_ooo, ssp_ooo, report: a.report }
        })
        .collect()
}

/// One benchmark's Figure 2 bars: speedups under perfect memory and
/// perfect delinquent loads, on both machine models.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Perfect memory speedup, in-order.
    pub perfect_mem_io: f64,
    /// Perfect delinquent loads speedup, in-order.
    pub perfect_del_io: f64,
    /// Perfect memory speedup, OOO.
    pub perfect_mem_ooo: f64,
    /// Perfect delinquent loads speedup, OOO.
    pub perfect_del_ooo: f64,
}

/// Compute every benchmark's Figure 2 row, one workload per task,
/// fanning out across [`parallel::threads`] workers in input order.
pub fn fig2_rows(ws: &[Workload]) -> Vec<Fig2Row> {
    parallel::map_indexed(ws, parallel::threads(), |_, w| fig2_row(w))
}

/// Compute Figure 2's bars for one benchmark. Serial.
pub fn fig2_row(w: &Workload) -> Fig2Row {
    let io = MachineConfig::in_order();
    let ooo = MachineConfig::out_of_order();
    let profile = ssp_core::profile(&w.program, &io);
    let delinquent: std::collections::HashSet<_> =
        profile.delinquent_loads(0.9).into_iter().collect();

    // Every run here is a baseline (the *original* binary under some
    // memory mode), so all six go through the process-wide cache — the
    // two Normal-mode denominators are shared with `run_suite`.
    let run = |mc: &MachineConfig, mode: MemoryMode| {
        cache::baseline(w, &mc.clone().with_memory_mode(mode))
    };
    let base_io = run(&io, MemoryMode::Normal);
    let base_ooo = run(&ooo, MemoryMode::Normal);
    Fig2Row {
        name: w.name,
        perfect_mem_io: base_io.cycles as f64 / run(&io, MemoryMode::PerfectAll).cycles as f64,
        perfect_del_io: base_io.cycles as f64
            / run(&io, MemoryMode::PerfectDelinquent(delinquent.clone())).cycles as f64,
        perfect_mem_ooo: base_ooo.cycles as f64 / run(&ooo, MemoryMode::PerfectAll).cycles as f64,
        perfect_del_ooo: base_ooo.cycles as f64
            / run(&ooo, MemoryMode::PerfectDelinquent(delinquent)).cycles as f64,
    }
}

/// Geometric-free arithmetic mean used by the paper ("average of 87%").
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Render a percentage-style speedup (1.87 -> "+87%").
pub fn pct(speedup: f64) -> String {
    format!("{:+.0}%", (speedup - 1.0) * 100.0)
}

/// Fixed-width table cell.
pub fn cell(v: f64) -> String {
    format!("{v:>8.2}")
}

/// Escape `s` for use inside a JSON string: quotes, backslashes and
/// control characters (the reports and the daemon's error lines carry
/// free text, such as a diagnostic or a request's bytes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_pct() {
        assert_eq!(mean([1.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
        assert_eq!(pct(1.87), "+87%");
        assert_eq!(pct(0.95), "-5%");
    }

    #[test]
    fn fig2_row_shapes() {
        let w = ssp_workloads::mcf::build(SEED);
        let row = fig2_row(&w);
        assert!(row.perfect_mem_io > 1.5, "mcf is memory bound: {}", row.perfect_mem_io);
        assert!(
            row.perfect_del_io <= row.perfect_mem_io + 1e-9,
            "fixing a subset of loads cannot beat perfect memory"
        );
        assert!(
            row.perfect_del_io > 0.8 * row.perfect_mem_io,
            "eliminating just the delinquent loads yields most of the perfect-memory win"
        );
        assert!(row.perfect_mem_ooo > 1.5, "the OOO model still has memory headroom");
    }
}
