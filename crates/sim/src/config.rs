//! Machine configuration: the research Itanium models of Table 1.

use ssp_ir::InstTag;
use std::collections::HashSet;

/// Which pipeline the machine uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PipelineKind {
    /// The 12-stage in-order, two-bundle-wide model. Stalls on use of the
    /// destination register of an outstanding load miss.
    InOrder,
    /// The 16-stage out-of-order model: per-thread 255-entry reorder
    /// buffer, 18-entry reservation station, plus four extra front-end
    /// stages for renaming/scheduling.
    OutOfOrder,
}

/// One cache level's geometry and load-use latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Load-use latency in cycles when the access hits at this level.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size / (self.line * self.assoc)
    }
}

/// How the memory subsystem behaves, for the Figure 2 limit studies.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum MemoryMode {
    /// Real cache hierarchy.
    #[default]
    Normal,
    /// "Perfect memory": every load hits in the L1 cache.
    PerfectAll,
    /// "Perfect delinquent loads": the given static loads always hit in
    /// L1; everything else goes through the real hierarchy.
    PerfectDelinquent(HashSet<InstTag>),
}

/// Full machine configuration.
///
/// Defaults come from Table 1 of the paper; construct with
/// [`MachineConfig::in_order`] or [`MachineConfig::out_of_order`] and
/// adjust fields for sensitivity studies.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineConfig {
    /// Pipeline model.
    pub pipeline: PipelineKind,
    /// Number of SMT hardware thread contexts.
    pub num_contexts: usize,
    /// Instructions per bundle (Itanium: 3).
    pub bundle_width: usize,
    /// Bundles fetched/issued per cycle in total across threads.
    pub bundles_per_cycle: usize,
    /// Integer ALUs.
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Branch units.
    pub branch_units: usize,
    /// Memory ports.
    pub mem_ports: usize,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache (shared by all threads).
    pub l2: CacheConfig,
    /// Unified L3 cache (shared by all threads).
    pub l3: CacheConfig,
    /// Fill buffer (MSHR) entries shared by the hierarchy.
    pub fill_buffer: usize,
    /// Main-memory load-use latency in cycles.
    pub mem_latency: u64,
    /// TLB miss penalty in cycles.
    pub tlb_miss_penalty: u64,
    /// TLB entries (page-granular, LRU).
    pub tlb_entries: usize,
    /// Page size in bytes.
    pub page_size: u64,
    /// GSHARE pattern-history-table entries.
    pub gshare_entries: usize,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_assoc: usize,
    /// Cycles lost on a branch misprediction (front-end refill).
    pub mispredict_penalty: u64,
    /// Cycles the main thread loses when `chk.c` raises its spawn
    /// exception (pipeline flush, like exception handling).
    pub spawn_flush_penalty: u64,
    /// Cycles between a `spawn` executing and the child thread's first
    /// fetch (context allocation).
    pub spawn_latency: u64,
    /// Latency of integer ALU ops.
    pub int_latency: u64,
    /// Latency of integer multiply.
    pub mul_latency: u64,
    /// Latency of FP ops.
    pub fp_latency: u64,
    /// Latency of live-in buffer reads/writes (on-chip RSE backing store).
    pub lib_latency: u64,
    /// Live-in buffer slots available for concurrent spawns.
    pub lib_slots: usize,
    /// Words per live-in buffer slot.
    pub lib_slot_words: u8,
    /// Reorder-buffer entries per thread (OOO only).
    pub rob_entries: usize,
    /// Reservation-station entries per thread (OOO only).
    pub rs_entries: usize,
    /// Memory subsystem behaviour.
    pub memory_mode: MemoryMode,
    /// Enable a hardware stride prefetcher (per-PC reference prediction
    /// table): the conventional technique the paper's introduction says
    /// pointer-intensive applications defy. Off by default.
    pub stride_prefetcher: bool,
    /// Stride-prefetch lookahead distance (lines of `stride` ahead).
    pub stride_degree: u64,
    /// Hard cap on instructions a speculative thread may execute before
    /// the hardware kills it (runaway protection).
    pub spec_inst_cap: u64,
    /// Hard cap on total simulated cycles (safety net; 0 = unlimited).
    pub max_cycles: u64,
}

impl MachineConfig {
    /// The baseline in-order research Itanium model (Table 1).
    pub fn in_order() -> Self {
        MachineConfig {
            pipeline: PipelineKind::InOrder,
            num_contexts: 4,
            bundle_width: 3,
            bundles_per_cycle: 2,
            int_units: 4,
            fp_units: 2,
            branch_units: 3,
            mem_ports: 2,
            l1d: CacheConfig { size: 16 * 1024, assoc: 4, line: 64, latency: 2 },
            l2: CacheConfig { size: 256 * 1024, assoc: 4, line: 64, latency: 14 },
            l3: CacheConfig { size: 3072 * 1024, assoc: 12, line: 64, latency: 30 },
            fill_buffer: 16,
            mem_latency: 230,
            tlb_miss_penalty: 30,
            tlb_entries: 128,
            page_size: 4096,
            gshare_entries: 2048,
            btb_entries: 256,
            btb_assoc: 4,
            // The 12-stage pipe resolves branches near the back end.
            mispredict_penalty: 9,
            spawn_flush_penalty: 12,
            spawn_latency: 4,
            int_latency: 1,
            mul_latency: 3,
            fp_latency: 4,
            lib_latency: 1,
            lib_slots: 32,
            lib_slot_words: 16,
            rob_entries: 255,
            rs_entries: 18,
            memory_mode: MemoryMode::Normal,
            stride_prefetcher: false,
            stride_degree: 2,
            spec_inst_cap: 50_000,
            max_cycles: 2_000_000_000,
        }
    }

    /// The out-of-order research Itanium model: 4 extra front-end stages,
    /// per-thread 255-entry ROB, 18-entry reservation station.
    pub fn out_of_order() -> Self {
        MachineConfig {
            pipeline: PipelineKind::OutOfOrder,
            mispredict_penalty: 13,
            spawn_flush_penalty: 16,
            ..Self::in_order()
        }
    }

    /// Same machine with a different memory mode.
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Versioned canonical fingerprint: a field-explicit `key=value`
    /// encoding under a `ssp-machine-config/2` header, stable across
    /// field reorders, rustc versions, and `Debug` format changes —
    /// the identity the `ssp-bench` baseline cache and the `ssp-serve`
    /// on-disk store key their shards by.
    ///
    /// Two configs that compare equal always fingerprint identically
    /// (the one non-canonical field, `MemoryMode::PerfectDelinquent`'s
    /// `HashSet`, is sorted before encoding). The full-struct
    /// destructuring is deliberate: adding a field to `MachineConfig`
    /// breaks this function at compile time, forcing the encoding — and
    /// its version header, if the change is semantic — to be updated.
    pub fn fingerprint(&self) -> String {
        fn cache(c: &CacheConfig) -> String {
            let CacheConfig { size, assoc, line, latency } = c;
            format!("{size}:{assoc}:{line}:{latency}")
        }
        let MachineConfig {
            pipeline,
            num_contexts,
            bundle_width,
            bundles_per_cycle,
            int_units,
            fp_units,
            branch_units,
            mem_ports,
            l1d,
            l2,
            l3,
            fill_buffer,
            mem_latency,
            tlb_miss_penalty,
            tlb_entries,
            page_size,
            gshare_entries,
            btb_entries,
            btb_assoc,
            mispredict_penalty,
            spawn_flush_penalty,
            spawn_latency,
            int_latency,
            mul_latency,
            fp_latency,
            lib_latency,
            lib_slots,
            lib_slot_words,
            rob_entries,
            rs_entries,
            memory_mode,
            stride_prefetcher,
            stride_degree,
            spec_inst_cap,
            max_cycles,
        } = self;
        let pipeline = match pipeline {
            PipelineKind::InOrder => "in-order",
            PipelineKind::OutOfOrder => "out-of-order",
        };
        let mode = match memory_mode {
            MemoryMode::Normal => "normal".to_string(),
            MemoryMode::PerfectAll => "perfect-all".to_string(),
            MemoryMode::PerfectDelinquent(tags) => {
                let mut tags: Vec<u32> = tags.iter().map(|t| t.0).collect();
                tags.sort_unstable();
                let tags: Vec<String> = tags.iter().map(u32::to_string).collect();
                format!("perfect-delinquent:{}", tags.join(","))
            }
        };
        format!(
            "ssp-machine-config/2 pipeline={pipeline} num_contexts={num_contexts} \
             bundle_width={bundle_width} bundles_per_cycle={bundles_per_cycle} \
             int_units={int_units} fp_units={fp_units} branch_units={branch_units} \
             mem_ports={mem_ports} l1d={} l2={} l3={} fill_buffer={fill_buffer} \
             mem_latency={mem_latency} tlb_miss_penalty={tlb_miss_penalty} \
             tlb_entries={tlb_entries} page_size={page_size} gshare_entries={gshare_entries} \
             btb_entries={btb_entries} btb_assoc={btb_assoc} \
             mispredict_penalty={mispredict_penalty} spawn_flush_penalty={spawn_flush_penalty} \
             spawn_latency={spawn_latency} int_latency={int_latency} mul_latency={mul_latency} \
             fp_latency={fp_latency} lib_latency={lib_latency} lib_slots={lib_slots} \
             lib_slot_words={lib_slot_words} rob_entries={rob_entries} rs_entries={rs_entries} \
             memory_mode={mode} stride_prefetcher={stride_prefetcher} \
             stride_degree={stride_degree} spec_inst_cap={spec_inst_cap} \
             max_cycles={max_cycles}",
            cache(l1d),
            cache(l2),
            cache(l3),
        )
    }

    /// Same machine with the hardware stride prefetcher enabled.
    pub fn with_stride_prefetcher(mut self) -> Self {
        self.stride_prefetcher = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let c = MachineConfig::in_order();
        assert_eq!(c.l1d.num_sets(), 16 * 1024 / (64 * 4));
        assert_eq!(c.l2.num_sets(), 256 * 1024 / (64 * 4));
        assert_eq!(c.l3.num_sets(), 3072 * 1024 / (64 * 12));
        assert_eq!(c.num_contexts, 4);
        assert_eq!(c.mem_latency, 230);
    }

    #[test]
    fn ooo_extends_in_order() {
        let io = MachineConfig::in_order();
        let ooo = MachineConfig::out_of_order();
        assert_eq!(ooo.pipeline, PipelineKind::OutOfOrder);
        assert!(ooo.mispredict_penalty > io.mispredict_penalty);
        assert_eq!(ooo.l3, io.l3);
    }

    #[test]
    fn memory_mode_builder() {
        let c = MachineConfig::in_order().with_memory_mode(MemoryMode::PerfectAll);
        assert_eq!(c.memory_mode, MemoryMode::PerfectAll);
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Golden encoding of the Table-1 in-order model. This string is
        // persisted in on-disk store shards: if this test fails because
        // the encoding changed, bump the version header — do not just
        // update the expectation.
        assert_eq!(
            MachineConfig::in_order().fingerprint(),
            "ssp-machine-config/2 pipeline=in-order num_contexts=4 bundle_width=3 \
             bundles_per_cycle=2 int_units=4 fp_units=2 branch_units=3 mem_ports=2 \
             l1d=16384:4:64:2 l2=262144:4:64:14 l3=3145728:12:64:30 fill_buffer=16 \
             mem_latency=230 tlb_miss_penalty=30 tlb_entries=128 page_size=4096 \
             gshare_entries=2048 btb_entries=256 btb_assoc=4 mispredict_penalty=9 \
             spawn_flush_penalty=12 spawn_latency=4 int_latency=1 mul_latency=3 fp_latency=4 \
             lib_latency=1 lib_slots=32 lib_slot_words=16 rob_entries=255 rs_entries=18 \
             memory_mode=normal stride_prefetcher=false stride_degree=2 spec_inst_cap=50000 \
             max_cycles=2000000000"
        );
    }

    #[test]
    fn fingerprint_distinguishes_and_canonicalizes() {
        use ssp_ir::InstTag;
        let io = MachineConfig::in_order();
        assert_ne!(io.fingerprint(), MachineConfig::out_of_order().fingerprint());
        let mut capped = io.clone();
        capped.max_cycles = 1;
        assert_ne!(io.fingerprint(), capped.fingerprint());
        // PerfectDelinquent sets built in different insertion orders
        // (HashSet iteration order is not stable) encode identically.
        let fwd: HashSet<_> = (0..20).map(InstTag).collect();
        let rev: HashSet<_> = (0..20).rev().map(InstTag).collect();
        assert_eq!(
            io.clone().with_memory_mode(MemoryMode::PerfectDelinquent(fwd)).fingerprint(),
            io.clone().with_memory_mode(MemoryMode::PerfectDelinquent(rev)).fingerprint(),
        );
    }
}
