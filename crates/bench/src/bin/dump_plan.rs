//! Dump per-root slice plans and the adapted program for one benchmark.

use ssp_bench::SEED;
use ssp_core::{AdaptOptions, MachineConfig, PostPassTool};
use ssp_slicing::Slicer;

fn main() {
    let name = std::env::args().nth(1).expect("benchmark name");
    let w = ssp_workloads::by_name(&name, SEED).expect("known benchmark");
    let io = MachineConfig::in_order();
    let profile = ssp_core::profile(&w.program, &io);
    let opts = AdaptOptions::default();
    let mut slicer = Slicer::new(&w.program, &profile, opts.min_block_count);
    let index = w.program.tag_index();
    for tag in profile.delinquent_loads(opts.coverage) {
        let root = index[&tag];
        println!("--- root {tag} at {root}: {}", w.program.inst(root).op);
        match ssp_codegen::plan_for_load(&mut slicer, &w.program, &profile, &io, root, &opts) {
            Err(e) => println!("    SLICE ERROR: {e}"),
            Ok(None) => println!("    NO PLAN"),
            Ok(Some(p)) => {
                println!(
                    "    model={:?} region={:?} trips={:.0} reduced={} slack1={} live_ins={:?} latch={:?} predicted={:?}",
                    p.model, p.blocks, p.trip_count, p.reduced, p.slack_1,
                    p.slice.live_ins, p.latch_branch, p.sched.predicted
                );
                for (i, at) in p.sched.order.iter().enumerate() {
                    let m = if i == p.sched.spawn_pos { " <== SPAWN" } else { "" };
                    println!("      [{i}] {}: {}{}", at, w.program.inst(*at).op, m);
                }
                if p.sched.spawn_pos == p.sched.order.len() {
                    println!("      (spawn at end / basic)");
                }
            }
        }
    }
    if std::env::args().nth(2).as_deref() == Some("-p") {
        let tool = PostPassTool::new(io);
        let adapted = tool.run(&w.program).expect("adaptation succeeds");
        println!("{}", adapted.program);
    }
}
