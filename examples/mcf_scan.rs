//! Domain example: the full mcf reduced-cost scan benchmark through the
//! whole pipeline, on both machine models — the paper's Figure 3 loop at
//! benchmark scale.
//!
//! ```sh
//! cargo run --release --example mcf_scan
//! ```

use ssp_core::{simulate, MachineConfig, PostPassTool};

fn main() {
    let w = ssp_workloads::mcf::build(7);
    let io = MachineConfig::in_order();
    let ooo = MachineConfig::out_of_order();

    let tool = PostPassTool::new(io.clone());
    let adapted = tool.run(&w.program).expect("adaptation succeeds");
    let r = &adapted.report;
    println!("== {} ==", w.name);
    println!(
        "slices {} (interprocedural {}), avg size {:.1}, avg live-ins {:.1}",
        r.slice_count(),
        r.interprocedural_count(),
        r.average_size(),
        r.average_live_ins()
    );

    for (label, machine) in [("in-order", &io), ("out-of-order", &ooo)] {
        let base = simulate(&w.program, machine);
        let ssp = simulate(&adapted.program, machine);
        println!(
            "{label:<13} base {:>9} cycles | +SSP {:>9} cycles | speedup {:.2}x | {} spec threads",
            base.cycles,
            ssp.cycles,
            base.cycles as f64 / ssp.cycles as f64,
            ssp.threads_spawned,
        );
    }

    // Where do the delinquent loads hit after SSP?
    let base = simulate(&w.program, &io);
    let ssp = simulate(&adapted.program, &io);
    let before = base.load_stats_for(&adapted.report.delinquent);
    let after = ssp.load_stats_for(&adapted.report.delinquent);
    println!("delinquent loads, in-order model:");
    println!(
        "  before SSP: {:5.1}% L1, {:5.1}% L2(+{:4.1}% partial), {:5.1}% mem(+{:4.1}%)",
        pct(before.l1, before.accesses),
        pct(before.l2, before.accesses),
        pct(before.l2_partial, before.accesses),
        pct(before.mem, before.accesses),
        pct(before.mem_partial, before.accesses),
    );
    println!(
        "  after  SSP: {:5.1}% L1, {:5.1}% L2(+{:4.1}% partial), {:5.1}% mem(+{:4.1}%)",
        pct(after.l1, after.accesses),
        pct(after.l2, after.accesses),
        pct(after.l2_partial, after.accesses),
        pct(after.mem, after.accesses),
        pct(after.mem_partial, after.accesses),
    );
}

fn pct(x: u64, total: u64) -> f64 {
    x as f64 / total.max(1) as f64 * 100.0
}
