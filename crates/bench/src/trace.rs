//! The `trace_report` harness: structured traces for the whole suite.
//!
//! For every workload this module runs the post-pass tool with phase
//! tracing ([`ssp_core::PostPassTool::run_traced`]) and then simulates
//! the adapted binary with prefetch-timeliness telemetry
//! ([`ssp_core::simulate_traced`]) on both machine models, producing one
//! [`TraceRow`] per workload. Like the rest of the harness it fans out
//! across host cores via [`crate::parallel::map_indexed`] and collects
//! results by input index, so the rendered JSON is byte-identical
//! whatever `SSP_THREADS` says.
//!
//! # JSON schema (`ssp-trace-report/1`)
//!
//! [`render_json`] emits one object:
//!
//! ```text
//! {
//!   "schema": "ssp-trace-report/1",
//!   "seed": <u64>,                 // workload-generation seed
//!   "wall_times": <bool>,          // whether wall_nanos fields are real
//!   "workloads": [ {
//!     "name": <string>,
//!     "delinquent_loads": [<tag>, ...],
//!     "slices": <count>,
//!     "tool_phases": [ {           // fixed order: profile, slicing,
//!       "name": <string>,          //   sched, trigger, codegen
//!       "wall_nanos": <u64>,       // 0 unless wall_times
//!       "counters": { <name>: <u64>, ... }
//!     }, ... ],
//!     "models": [ {                // fixed order: in_order, out_of_order
//!       "model": <string>,
//!       "base_cycles": <u64>, "ssp_cycles": <u64>, "speedup": <float>,
//!       "sim": {
//!         "triggers_fired": <u64>, "triggers_suppressed": <u64>,
//!         "slices_spawned": <u64>, "slices_killed": <u64>,
//!         "live_in_copies": <u64>, "prefetches_issued": <u64>,
//!         "prefetches_dropped": <u64>, "prefetches_completed": <u64>,
//!         "prefetch_table_evictions": <u64>,
//!         "timeliness": {
//!           "total": {"early": .., "timely": .., "late": .., "useless": ..},
//!           "per_load": [ {"load": <tag>, "early": .., "timely": ..,
//!                          "late": .., "useless": ..}, ... ]  // sorted by tag
//!         }
//!       }
//!     }, ... ]
//!   }, ... ],
//!   "suite_totals": { <model>: <sim object as above>, ... }
//! }
//! ```
//!
//! Every field except `wall_nanos` is a deterministic function of the
//! workloads and machine configs. Wall-clock time can never be
//! reproducible, so `wall_nanos` renders as 0 by default and the real
//! values are only emitted when the caller opts in (`trace_report` does
//! so under `SSP_TRACE_WALL=1`); the human summary
//! ([`render_summary`]) always shows the real timings instead.

use crate::parallel;
use ssp_core::{
    prefetch_targets, simulate, simulate_traced, AdaptOptions, MachineConfig, PostPassTool,
    SimTrace, TimelinessCounts, ToolTrace,
};
use ssp_workloads::Workload;

/// One machine model's simulation telemetry for one workload.
#[derive(Clone, Debug)]
pub struct ModelTrace {
    /// Model name (`"in_order"` or `"out_of_order"`).
    pub model: &'static str,
    /// Baseline cycles (original binary).
    pub base_cycles: u64,
    /// Cycles of the SSP-enhanced binary.
    pub ssp_cycles: u64,
    /// Simulator event totals and per-load timeliness histograms.
    pub sim: SimTrace,
}

/// The full trace for one workload: tool-phase spans plus per-model
/// simulation telemetry.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Workload name.
    pub name: &'static str,
    /// Tool-phase spans from the traced adaptation.
    pub tool: ToolTrace,
    /// Delinquent-load tag values, in profile order.
    pub delinquent: Vec<u32>,
    /// Emitted slice count.
    pub slices: usize,
    /// Per-model telemetry, in `[in_order, out_of_order]` order.
    pub models: Vec<ModelTrace>,
}

/// Compute every workload's [`TraceRow`] with the experiments' default
/// configuration on [`parallel::threads`] workers.
pub fn trace_rows(ws: &[Workload]) -> Vec<TraceRow> {
    trace_rows_configured(
        ws,
        &AdaptOptions::default(),
        &MachineConfig::in_order(),
        &MachineConfig::out_of_order(),
        parallel::threads(),
    )
}

/// [`trace_rows`] against explicit options/machines/worker count.
///
/// Two indexed fan-outs, as in [`crate::run_suite_configured`]: first
/// every workload's traced adaptation with the in-order tool (the
/// paper shares one enhanced binary across both models), then all
/// `4 × N` simulations (baseline and traced-SSP on each model),
/// workload-major. Results
/// are reassembled by workload index, so rows — and therefore
/// [`render_json`] output — are identical to a serial run.
pub fn trace_rows_configured(
    ws: &[Workload],
    opts: &AdaptOptions,
    io: &MachineConfig,
    ooo: &MachineConfig,
    workers: usize,
) -> Vec<TraceRow> {
    let adapted = parallel::map_indexed(ws, workers, |_, w| {
        let tool = PostPassTool::new(io.clone()).with_options(opts.clone());
        let (adapted, trace) = tool.run_traced(&w.program).expect("adaptation succeeds");
        let targets = prefetch_targets(&adapted);
        (adapted, trace, targets)
    });
    let tasks: Vec<(usize, u8)> =
        (0..ws.len()).flat_map(|wi| (0..4u8).map(move |k| (wi, k))).collect();
    let sims = parallel::map_indexed(&tasks, workers, |_, &(wi, k)| {
        let (a, _, targets) = &adapted[wi];
        match k {
            0 => (simulate(&ws[wi].program, io).cycles, None),
            1 => {
                let (r, t) = simulate_traced(&a.program, io, targets);
                (r.cycles, Some(t))
            }
            2 => (simulate(&ws[wi].program, ooo).cycles, None),
            _ => {
                let (r, t) = simulate_traced(&a.program, ooo, targets);
                (r.cycles, Some(t))
            }
        }
    });
    let mut sims = sims.into_iter();
    ws.iter()
        .zip(adapted)
        .map(|(w, (a, tool_trace, _))| {
            let mut models = Vec::with_capacity(2);
            for model in ["in_order", "out_of_order"] {
                let (base_cycles, _) = sims.next().expect("four results per workload");
                let (ssp_cycles, sim) = sims.next().expect("four results per workload");
                let sim = sim.expect("ssp simulations are traced");
                models.push(ModelTrace { model, base_cycles, ssp_cycles, sim });
            }
            TraceRow {
                name: w.name,
                tool: tool_trace,
                delinquent: a.report.delinquent.iter().map(|t| t.0).collect(),
                slices: a.report.slice_count(),
                models,
            }
        })
        .collect()
}

fn json_counts(c: &TimelinessCounts) -> String {
    format!(
        "{{\"early\": {}, \"timely\": {}, \"late\": {}, \"useless\": {}}}",
        c.early, c.timely, c.late, c.useless
    )
}

fn json_sim(s: &SimTrace, indent: &str) -> String {
    let per_load: Vec<String> = s
        .per_load
        .iter()
        .map(|(load, c)| {
            format!(
                "{{\"load\": {}, \"early\": {}, \"timely\": {}, \"late\": {}, \"useless\": {}}}",
                load, c.early, c.timely, c.late, c.useless
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "{i}  \"triggers_fired\": {}, \"triggers_suppressed\": {},\n",
            "{i}  \"slices_spawned\": {}, \"slices_killed\": {},\n",
            "{i}  \"live_in_copies\": {}, \"prefetches_issued\": {},\n",
            "{i}  \"prefetches_dropped\": {}, \"prefetches_completed\": {},\n",
            "{i}  \"prefetch_table_evictions\": {},\n",
            "{i}  \"timeliness\": {{\n",
            "{i}    \"total\": {},\n",
            "{i}    \"per_load\": [{}]\n",
            "{i}  }}\n",
            "{i}}}"
        ),
        s.triggers_fired,
        s.triggers_suppressed,
        s.slices_spawned,
        s.slices_killed,
        s.live_in_copies,
        s.prefetches_issued,
        s.prefetches_dropped,
        s.prefetches_completed,
        s.prefetch_table_evictions,
        json_counts(&s.totals()),
        per_load.join(", "),
        i = indent,
    )
}

fn json_list(xs: impl IntoIterator<Item = String>) -> String {
    xs.into_iter().collect::<Vec<_>>().join(", ")
}

/// Render rows as the `ssp-trace-report/1` JSON object (see the module
/// docs for the schema). With `include_wall == false` (the default in
/// `trace_report`) every `wall_nanos` renders as 0, making the output a
/// pure function of the inputs — byte-identical across runs, worker
/// counts, and hosts.
pub fn render_json(rows: &[TraceRow], seed: u64, include_wall: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ssp-trace-report/1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"wall_times\": {include_wall},\n"));
    out.push_str("  \"workloads\": [\n");
    let mut workload_objs = Vec::new();
    for r in rows {
        let phases: Vec<String> = r
            .tool
            .phases
            .iter()
            .map(|p| {
                let wall = if include_wall { p.wall_nanos } else { 0 };
                let counters: Vec<String> =
                    p.counters.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
                format!(
                    "{{\"name\": \"{}\", \"wall_nanos\": {}, \"counters\": {{{}}}}}",
                    p.name,
                    wall,
                    counters.join(", ")
                )
            })
            .collect();
        let models: Vec<String> = r
            .models
            .iter()
            .map(|m| {
                let speedup = m.base_cycles as f64 / m.ssp_cycles.max(1) as f64;
                format!(
                    concat!(
                        "        {{\n",
                        "          \"model\": \"{}\",\n",
                        "          \"base_cycles\": {}, \"ssp_cycles\": {}, ",
                        "\"speedup\": {:.4},\n",
                        "          \"sim\": {}\n",
                        "        }}"
                    ),
                    m.model,
                    m.base_cycles,
                    m.ssp_cycles,
                    speedup,
                    json_sim(&m.sim, "          "),
                )
            })
            .collect();
        workload_objs.push(format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"delinquent_loads\": [{}],\n",
                "      \"slices\": {},\n",
                "      \"tool_phases\": [{}],\n",
                "      \"models\": [\n{}\n      ]\n",
                "    }}"
            ),
            r.name,
            json_list(r.delinquent.iter().map(|t| t.to_string())),
            r.slices,
            phases.join(", "),
            models.join(",\n"),
        ));
    }
    out.push_str(&workload_objs.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"suite_totals\": {\n");
    let mut totals = Vec::new();
    for (mi, model) in ["in_order", "out_of_order"].into_iter().enumerate() {
        let mut sum = SimTrace::default();
        for r in rows {
            if let Some(m) = r.models.get(mi) {
                sum.merge(&m.sim);
            }
        }
        totals.push(format!("    \"{}\": {}", model, json_sim(&sum, "    ")));
    }
    out.push_str(&totals.join(",\n"));
    out.push_str("\n  }\n");
    out.push_str("}\n");
    out
}

/// Render a human summary table: one line per workload/model with the
/// key simulator counters and the timeliness split, followed by the
/// tool-phase wall times (real, not zeroed — this output is for eyes,
/// not diffs).
pub fn render_summary(rows: &[TraceRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<12} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>8}\n",
        "workload",
        "model",
        "triggers",
        "spawned",
        "prefetch",
        "timely%",
        "late%",
        "early%",
        "useless%"
    ));
    for r in rows {
        for m in &r.models {
            let t = m.sim.totals();
            let pct = |x: u64| {
                if t.total() == 0 {
                    0.0
                } else {
                    100.0 * x as f64 / t.total() as f64
                }
            };
            out.push_str(&format!(
                "{:<10} {:<12} {:>8} {:>8} {:>9} {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%\n",
                r.name,
                m.model,
                m.sim.triggers_fired,
                m.sim.slices_spawned,
                m.sim.prefetches_issued,
                pct(t.timely),
                pct(t.late),
                pct(t.early),
                pct(t.useless),
            ));
        }
    }
    out.push_str("\ntool phases (wall ms per workload):\n");
    out.push_str(&format!("{:<10}", "workload"));
    if let Some(r) = rows.first() {
        for p in &r.tool.phases {
            out.push_str(&format!(" {:>9}", p.name));
        }
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<10}", r.name));
        for p in &r.tool.phases {
            out.push_str(&format!(" {:>9.3}", p.wall_nanos as f64 / 1e6));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEED;

    #[test]
    fn trace_row_classifies_all_prefetches() {
        let w = ssp_workloads::mcf::build(SEED);
        let mut io = MachineConfig::in_order();
        io.max_cycles = 120_000;
        let mut ooo = MachineConfig::out_of_order();
        ooo.max_cycles = 120_000;
        let row = trace_rows_configured(&[w], &AdaptOptions::default(), &io, &ooo, 1).remove(0);
        assert!(row.slices >= 1);
        assert!(!row.delinquent.is_empty());
        assert_eq!(row.models.len(), 2);
        for m in &row.models {
            assert_eq!(m.sim.totals().total(), m.sim.prefetches_issued);
        }
        let json = render_json(&[row], SEED, false);
        assert!(json.contains("\"schema\": \"ssp-trace-report/1\""));
        assert!(json.contains("\"wall_nanos\": 0"));
        assert!(!json.contains("NaN"));
    }
}
