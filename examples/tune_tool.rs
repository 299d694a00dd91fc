//! Domain example: tuning and ablating the post-pass tool on the
//! breadth-first tree traversal — toggling condition prediction, forcing
//! the precomputation model, and sweeping the chain budget.
//!
//! ```sh
//! cargo run --release --example tune_tool
//! ```

use ssp_core::{simulate, AdaptOptions, MachineConfig, PostPassTool, SpModel};

fn run_with(w: &ssp_workloads::Workload, machine: &MachineConfig, opts: AdaptOptions) -> f64 {
    let tool = PostPassTool::new(machine.clone()).with_options(opts);
    let adapted = tool.run(&w.program).expect("adaptation succeeds");
    let base = simulate(&w.program, machine);
    let ssp = simulate(&adapted.program, machine);
    base.cycles as f64 / ssp.cycles as f64
}

fn main() {
    let w = ssp_workloads::treeadd::build_bf(7);
    let machine = MachineConfig::in_order();

    let default = AdaptOptions::default();
    println!("treeadd.bf on the in-order model:");
    println!("  default tool              : {:.2}x", run_with(&w, &machine, default.clone()));

    // A branch's bias is at most 1, so a threshold above 1 never predicts.
    let mut no_pred = default.clone();
    no_pred.predict_threshold = 1.1;
    println!(
        "  without condition predict : {:.2}x   (the queue-growth condition keeps the loads critical)",
        run_with(&w, &machine, no_pred)
    );

    let mut basic = default.clone();
    basic.force_model = Some(SpModel::Basic);
    basic.min_slack = i64::MIN;
    println!(
        "  forced basic SP           : {:.2}x   (one sequential prefetch thread)",
        run_with(&w, &machine, basic)
    );

    for budget in [4, 16, 64, 512] {
        let mut b = default.clone();
        b.chain_budget = budget;
        println!("  chain budget {budget:>4}         : {:.2}x", run_with(&w, &machine, b));
    }
}
