//! The static-lint verdict over the full workload suite.
//!
//! Adapts every workload under both machine models and reports the
//! verdict of the `ssp-lint` gate inside adaptation, the one lint each
//! adapted binary gets: an adaptation that returns is clean, and one the
//! gate refused returns `AdaptError::Lint` with the diagnostics. Stdout
//! is a deterministic JSON report — byte-identical regardless of
//! `SSP_THREADS`, so CI can diff runs at different thread counts — and
//! a human-readable summary goes to stderr. The exit status is 1 if any
//! adaptation was gated or failed, 0 otherwise.
//!
//! ```text
//! lint            # all workloads x {in_order, out_of_order}
//! ```

use std::fmt::Write as _;

use ssp_bench::{json_escape, parallel, SEED};
use ssp_core::{AdaptError, LintReport, MachineConfig, PostPassTool};

/// One workload x machine-model lint outcome.
struct ComboResult {
    workload: String,
    machine: &'static str,
    /// `clean`, `gated` (the lint gate refused the binary), or `error`
    /// (adaptation failed before the lint stage).
    status: &'static str,
    report: Option<LintReport>,
    error: Option<String>,
}

fn lint_combo(workload: &ssp_workloads::Workload, machine: &'static str) -> ComboResult {
    let mc = match machine {
        "in_order" => MachineConfig::in_order(),
        _ => MachineConfig::out_of_order(),
    };
    let tool = PostPassTool::new(mc);
    let (status, report, error) = match tool.run(&workload.program) {
        Ok(_) => ("clean", None, None),
        Err(AdaptError::Lint(report)) => ("gated", Some(report), None),
        Err(e) => ("error", None, Some(e.to_string())),
    };
    ComboResult { workload: workload.name.to_string(), machine, status, report, error }
}

fn to_json(results: &[ComboResult]) -> String {
    let diags: usize = results.iter().filter_map(|r| r.report.as_ref()).map(|r| r.len()).sum();
    let clean = results.iter().filter(|r| r.status == "clean").count();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"combos\": {},", results.len());
    let _ = writeln!(out, "  \"clean\": {clean},");
    let _ = writeln!(out, "  \"diagnostics\": {diags},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"machine\": \"{}\", \"status\": \"{}\", \"diags\": [",
            json_escape(&r.workload),
            r.machine,
            r.status
        );
        if let Some(report) = &r.report {
            for (j, d) in report.diags.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\"", json_escape(&d.to_string()));
            }
        }
        let _ = write!(out, "]");
        if let Some(e) = &r.error {
            let _ = write!(out, ", \"error\": \"{}\"", json_escape(e));
        }
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "}}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let workloads = ssp_workloads::suite(SEED);
    let combos: Vec<(usize, &'static str)> =
        (0..workloads.len()).flat_map(|i| [(i, "in_order"), (i, "out_of_order")]).collect();
    let workers = parallel::threads();
    let results = parallel::map_indexed(&combos, workers, |_, &(i, machine)| {
        lint_combo(&workloads[i], machine)
    });

    print!("{}", to_json(&results));

    let mut bad = false;
    for r in &results {
        match r.status {
            "clean" => eprintln!("{:<12} {:<12} clean", r.workload, r.machine),
            _ => {
                bad = true;
                let detail = r
                    .report
                    .as_ref()
                    .map(|rep| rep.to_string())
                    .or_else(|| r.error.clone())
                    .unwrap_or_default();
                eprintln!("{:<12} {:<12} {}: {detail}", r.workload, r.machine, r.status);
            }
        }
    }
    std::process::exit(if bad { 1 } else { 0 });
}
