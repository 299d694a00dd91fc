//! Table 2: slice characteristics — number of slices, interprocedural
//! slices, average size, average live-in count per benchmark.

use ssp_bench::{parallel, SEED};
use ssp_core::{MachineConfig, PostPassTool};

fn main() {
    println!("Table 2 — slice characteristics");
    println!(
        "{:<12} {:>8} {:>16} {:>12} {:>12}",
        "benchmark", "slices", "interproc", "avg size", "avg live-in"
    );
    let ws = ssp_workloads::suite(SEED);
    let reports = parallel::map_indexed(&ws, parallel::threads(), |_, w| {
        let tool = PostPassTool::new(MachineConfig::in_order());
        tool.run(&w.program).expect("adaptation succeeds").report
    });
    for (w, r) in ws.iter().zip(reports) {
        println!(
            "{:<12} {:>8} {:>16} {:>12.1} {:>12.1}",
            w.name,
            r.slice_count(),
            r.interprocedural_count(),
            r.average_size(),
            r.average_live_ins()
        );
    }
    println!();
    println!("paper (for the real benchmarks): 2-8 slices each, sizes 9.0-28.3,");
    println!("live-ins 2.8-4.8, one interprocedural slice for health and mst.");
}
