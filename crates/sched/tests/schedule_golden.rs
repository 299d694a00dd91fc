//! Golden-file tests for the two schedulers on fixed workloads.
//!
//! The property tests check *validity* (dependence-respecting
//! permutations); these check *stability*: the exact instruction order,
//! spawn point, rotation, and dependence heights `schedule_chaining`
//! and `schedule_basic` produce for the mcf and em3d hot loops. Any
//! change to scheduler priorities, rotation, or condition prediction
//! shows up here as a readable diff instead of a silent perf shift.
//!
//! To regenerate after an intentional scheduler change:
//!
//! ```text
//! SSP_BLESS=1 cargo test -p ssp-sched --test schedule_golden
//! ```

use ssp_ir::{BlockId, InstRef};
use ssp_sched::{schedule_basic, schedule_chaining, ScheduledSlice};
use ssp_sim::MachineConfig;
use ssp_slicing::{RegionDepGraph, Slicer};

/// The fixed generator seed shared with the benchmark suite.
const SEED: u64 = 2002;

/// Schedule the hottest delinquent load's slice in `w` both ways and
/// render a textual snapshot.
fn snapshot(w: &ssp_workloads::Workload) -> String {
    let mc = MachineConfig::in_order();
    let profile = ssp_sim::profile(&w.program, &mc);
    let index = w.program.tag_index();
    let root: InstRef = index[&profile.delinquent_loads(0.9)[0]];

    let mut slicer = Slicer::new(&w.program, &profile, 1);
    let blocks: Vec<BlockId> = {
        let fa = slicer.analyses.get(&w.program, root.func);
        let l = fa.loops.innermost(root.block).expect("delinquent load sits in a loop");
        fa.loops.get(l).blocks.clone()
    };
    let slice = slicer.slice_in_region(root, &blocks).expect("root is a load");
    let graph = {
        let fa = slicer.analyses.get(&w.program, root.func);
        RegionDepGraph::build(&w.program, root.func, &blocks, fa, &profile, &mc)
    };
    let keep: std::collections::HashSet<_> = slice.insts.iter().copied().collect();
    let sg = graph.induced(&keep);

    let chaining = schedule_chaining(&sg, &w.program, &profile, &mc, 0.9);
    let basic = schedule_basic(&sg, &w.program, &profile, &mc);

    let mut out = String::new();
    out.push_str(&format!("workload {}\nroot {root}\n", w.name));
    for s in [&chaining, &basic] {
        out.push_str(&render(s));
    }
    out
}

fn render(s: &ScheduledSlice) -> String {
    let mut out = String::new();
    out.push_str(&format!("\nmodel {:?}\n", s.model));
    out.push_str(&format!("rotation {}\n", s.rotation));
    out.push_str(&format!("spawn_pos {}\n", s.spawn_pos));
    out.push_str(&format!("critical_height {}\n", s.critical_height));
    out.push_str(&format!("slice_height {}\n", s.slice_height));
    if let Some(p) = s.predicted {
        out.push_str(&format!("predicted {p}\n"));
    }
    out.push_str("order:\n");
    for at in &s.order {
        let marker = if s.critical.contains(at) { " critical" } else { "" };
        out.push_str(&format!("  {at}{marker}\n"));
    }
    out
}

fn check(name: &str, build: impl Fn(u64) -> ssp_workloads::Workload, golden: &str) {
    let w = build(SEED);
    let actual = snapshot(&w);
    if std::env::var_os("SSP_BLESS").is_some() {
        let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "scheduler snapshot for {name} changed; if intentional, regenerate with \
         `SSP_BLESS=1 cargo test -p ssp-sched --test schedule_golden`"
    );
}

#[test]
fn mcf_schedule_matches_golden() {
    check("mcf", ssp_workloads::mcf::build, include_str!("golden/mcf.txt"));
}

#[test]
fn em3d_schedule_matches_golden() {
    check("em3d", ssp_workloads::em3d::build, include_str!("golden/em3d.txt"));
}
