//! [`Memo`], the one sharded, optionally disk-backed memo of this
//! workspace, and its use here: memoized workload simulations.
//!
//! Every experiment binary re-simulates the same original workloads:
//! `fig8`/`fig9`/`fig10` all need `base_io`/`base_ooo`, `fig2` needs
//! them again as the denominators of its perfect-memory bars, and
//! `perf_report` times the whole lot. Those runs are pure functions of
//! `(program, machine config)`, so each distinct pair needs to be
//! simulated exactly once; [`Memo::baseline`] guarantees that.
//! Adapted binaries are pure too, once the adaptation options join the
//! identity: [`Memo::adapted`] keys on `AdaptOptions::fingerprint` plus
//! the tool's profiling machine, so the auto-tuner's candidate plans,
//! the default suite rows, and ablation runs all coexist in one memo.
//!
//! Programs are identified by `(workload name, builder seed)` — the
//! builders are deterministic, so that pair pins the binary bit-for-bit
//! (`next_tag` and the image length ride along in the key as a cheap
//! integrity check). Machine configs are identified by
//! [`MachineConfig::fingerprint`], the versioned field-explicit
//! canonical encoding (never `Debug` formatting, whose output is not
//! stable across field reorders or rustc versions — which the
//! disk-persistent layer could not tolerate). The fingerprint is the
//! memo group, so one machine model's results share a memory shard and
//! a store shard.
//!
//! Tests and services own their instances. The free functions
//! [`baseline`], [`adapted`], [`stats`] and [`attach_store`] use one
//! process-default instance, for the one-shot binaries, whose suite
//! runners share it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::persist::{decode, encode, Store};
use ssp_core::{simulate, MachineConfig, SimResult};
use ssp_ir::{fnv64, Program};
use ssp_workloads::Workload;

/// In-memory shard count of every [`Memo`].
const SHARDS: usize = 16;

/// Cache effectiveness counters of one [`Memo`] instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Distinct keys decoded from the attached store.
    pub disk_hits: u64,
    /// Distinct keys computed: never stored, or stored undecodably.
    pub misses: u64,
}

/// A sharded memo of pure answers, optionally backed by a [`Store`].
///
/// The contract, shared by the simulation memo here, `ssp-serve`'s
/// response memo and `ssp-tune`'s candidate memo:
///
/// * **Per-key `OnceLock`.** Each key maps to its own cell, so when
///   several threads look up one key, the first computes and the rest
///   block on the cell instead of computing it again.
/// * **Counters independent of the thread schedule.** For a fixed
///   multiset of lookups and a fixed store, `misses` is the number of
///   distinct keys computed, `disk_hits` the number of distinct keys
///   decoded from the store, and `hits` every other lookup.
/// * **Disk probe inside the cell.** The first lookup of a key loads
///   its entry from the attached store and decodes it inside the cell,
///   so a stored answer is read and decoded once per instance, plus
///   read once per [`Memo::probe`] made before that lookup; a caller
///   that hands the probed value to the lookup's decoder decodes the
///   entry only once.
/// * **An undecodable entry is a miss.** An entry that is missing,
///   corrupt, or written for a colliding key is computed once and
///   counted as a miss. With the [`crate::persist`] codecs, corrupt
///   includes an entry cut anywhere, even inside its last line: it is
///   never answered as a shorter value.
/// * **Write-back on compute.** A computed answer's persisted text is
///   saved to the store (replacing any corrupt entry) before the cell
///   is filled.
/// * **A panicking compute leaves no trace.** The shard lock is dropped
///   before computing and counters move only after `compute` returns,
///   so a key whose computation panicked stays uncomputed and
///   uncounted, and the next lookup retries it.
///
/// Each lookup names a `group`: its hash picks the memory shard
/// (`fnv64(group) % 16`), and [`Store::shard_of`] of it the store
/// shard. The in-memory value may differ from the persisted text — the
/// server keeps rendered responses in memory and entries on disk — so
/// [`Memo::get`] takes a decoder for the disk form and a compute
/// closure that returns both.
pub struct Memo<V> {
    shards: Vec<Mutex<HashMap<String, Arc<OnceLock<V>>>>>,
    store: OnceLock<Store>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Memo {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            store: OnceLock::new(),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> Memo<V> {
    /// Attach the store that first lookups probe and computed answers
    /// are written to. A memo has at most one store, attached before
    /// use; attaching a second one panics.
    pub fn attach_store(&self, store: Store) {
        if self.store.set(store).is_err() {
            panic!("Memo::attach_store: a store is already attached");
        }
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.get()
    }

    /// This instance's counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Distinct keys held per memory shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().expect("memo shard poisoned").len()).collect()
    }

    /// The memory shard `group` hashes to.
    fn shard(&self, group: &str) -> &Mutex<HashMap<String, Arc<OnceLock<V>>>> {
        &self.shards[(fnv64(group) % SHARDS as u64) as usize]
    }

    /// The answer [`Memo::get`] of `key` in `group` would give without
    /// computing: its cell's value, else the stored entry if `decode`
    /// accepts it, else `None`. A probe neither counts nor fills a
    /// cell, so a later `get` counts exactly as it would have without
    /// it, also when its decoder returns the probed value.
    pub fn probe(
        &self,
        group: &str,
        key: &str,
        decode: impl FnOnce(&str) -> Option<V>,
    ) -> Option<V> {
        let shard = self.shard(group).lock().expect("memo shard poisoned");
        if let Some(value) = shard.get(key).and_then(|cell| cell.get()) {
            return Some(value.clone());
        }
        drop(shard);
        self.store.get()?.load(&Store::shard_of(group), key).and_then(|text| decode(&text))
    }

    /// The answer for `key` in `group`: from memory, else decoded from
    /// the store, else computed and written back (see the type docs).
    pub fn get(
        &self,
        group: &str,
        key: &str,
        decode: impl FnOnce(&str) -> Option<V>,
        compute: impl FnOnce() -> (V, String),
    ) -> V {
        let cell = Arc::clone(
            self.shard(group)
                .lock()
                .expect("memo shard poisoned")
                .entry(key.to_owned())
                .or_default(),
        );
        let mut counter = &self.hits;
        let value = cell.get_or_init(|| {
            let store = self.store.get().map(|s| (s, Store::shard_of(group)));
            if let Some((store, shard)) = &store {
                if let Some(v) = store.load(shard, key).and_then(|text| decode(&text)) {
                    counter = &self.disk_hits;
                    return v;
                }
            }
            counter = &self.misses;
            let (v, text) = compute();
            if let Some((store, shard)) = &store {
                if let Err(e) = store.save(shard, key, &text) {
                    eprintln!("memo: store write failed for {key:?} ({e}); continuing uncached");
                }
            }
            v
        });
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }
}

impl Memo<SimResult> {
    /// Simulate workload `w`'s *original* binary under `cfg`, memoized:
    /// the first lookup of a `(workload, config)` pair runs
    /// [`ssp_core::simulate`] unless the store holds the result.
    pub fn baseline(&self, w: &Workload, cfg: &MachineConfig) -> SimResult {
        self.simulate(w, "baseline", "", &w.program, cfg)
    }

    /// Simulate workload `w`'s *adapted* binary under `cfg`, memoized
    /// like [`Memo::baseline`]. An adapted binary is a pure function of
    /// the workload, the adaptation options, and the tool's profiling
    /// machine, so the key extends the baseline identity with
    /// [`AdaptOptions::fingerprint`] (`opts_fp`) and the profiling
    /// machine's fingerprint (`tool_fp`). `adapted_prog` (the emitted
    /// binary itself) is simulated on a miss; its `next_tag` rides along
    /// in the key as a cheap structural integrity check.
    ///
    /// [`AdaptOptions::fingerprint`]: ssp_core::AdaptOptions::fingerprint
    pub fn adapted(
        &self,
        w: &Workload,
        opts_fp: &str,
        tool_fp: &str,
        adapted_prog: &Program,
        cfg: &MachineConfig,
    ) -> SimResult {
        let adaptation =
            format!("adapted_next_tag={} opts={opts_fp} tool={tool_fp} ", adapted_prog.next_tag);
        self.simulate(w, "adapted", &adaptation, adapted_prog, cfg)
    }

    /// The lookup behind [`Memo::baseline`] and [`Memo::adapted`].
    fn simulate(
        &self,
        w: &Workload,
        kind: &str,
        adaptation: &str,
        prog: &Program,
        cfg: &MachineConfig,
    ) -> SimResult {
        let config = cfg.fingerprint();
        self.get(
            &config,
            &sim_key(kind, w, adaptation, &config),
            |text| decode(text).ok(),
            || {
                let r = simulate(prog, cfg);
                let text = encode(&r);
                (r, text)
            },
        )
    }
}

/// The key of one simulation. The kind keeps baseline and adapted keys
/// disjoint; baseline keys render exactly as they did before adapted
/// entries existed, so older stores stay warm.
fn sim_key(kind: &str, w: &Workload, adaptation: &str, config: &str) -> String {
    format!("{kind} {} {adaptation}{config}", w.identity())
}

/// The process-default simulation memo behind the free functions.
fn process_memo() -> &'static Memo<SimResult> {
    static MEMO: OnceLock<Memo<SimResult>> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// Attach an on-disk store to the process-default memo. Nothing in this
/// workspace calls it: it exists for the benchmark's replayer
/// (`perfbench/tracer`), which attaches its scratch store to this memo.
pub fn attach_store(store: Store) {
    process_memo().attach_store(store);
}

/// [`Memo::baseline`] on the process-default memo.
pub fn baseline(w: &Workload, cfg: &MachineConfig) -> SimResult {
    process_memo().baseline(w, cfg)
}

/// [`Memo::adapted`] on the process-default memo.
pub fn adapted(
    w: &Workload,
    opts_fp: &str,
    tool_fp: &str,
    adapted_prog: &Program,
    cfg: &MachineConfig,
) -> SimResult {
    process_memo().adapted(w, opts_fp, tool_fp, adapted_prog, cfg)
}

/// The process-default memo's counters.
pub fn stats() -> MemoStats {
    process_memo().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{PersistError, Record, RecordReader, RecordWriter, STORE_FORMAT};
    use crate::SEED;
    use ssp_sim::MemoryMode;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssp-memo-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn stored_memo<V: Clone>(root: &PathBuf) -> Memo<V> {
        let memo = Memo::default();
        memo.attach_store(Store::open(root).expect("open store"));
        memo
    }

    fn stats(hits: u64, disk_hits: u64, misses: u64) -> MemoStats {
        MemoStats { hits, disk_hits, misses }
    }

    /// A lookup of `key` that decodes and computes `u64`s, counting its
    /// computations in `computed`.
    fn lookup(memo: &Memo<u64>, key: &str, computed: &AtomicU64) -> u64 {
        memo.get(
            "group",
            key,
            |text| text.parse().ok(),
            || {
                computed.fetch_add(1, Ordering::Relaxed);
                (42, "42".to_owned())
            },
        )
    }

    #[test]
    fn concurrent_lookups_of_one_key_compute_once() {
        let memo = Memo::default();
        let computed = AtomicU64::new(0);
        let answers =
            crate::parallel::map_indexed(&[(); 8], 8, |_, ()| lookup(&memo, "k", &computed));
        assert_eq!(answers, vec![42; 8]);
        assert_eq!(computed.load(Ordering::Relaxed), 1, "one computation per key");
        assert_eq!(memo.stats(), stats(7, 0, 1));
    }

    #[test]
    fn a_restarted_memo_answers_every_miss_from_disk() {
        let root = tmpdir("restart");
        let computed = AtomicU64::new(0);
        let cold = stored_memo(&root);
        for key in ["a", "b", "c", "a"] {
            lookup(&cold, key, &computed);
        }
        assert_eq!(cold.stats(), stats(1, 0, 3));
        let warm = stored_memo(&root);
        for key in ["a", "b", "c", "a"] {
            assert_eq!(lookup(&warm, key, &computed), 42);
        }
        assert_eq!(warm.stats(), stats(1, cold.stats().misses, 0));
        assert_eq!(computed.load(Ordering::Relaxed), 3, "the restart computed nothing");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_recorded_for_another_key_is_a_miss() {
        let root = tmpdir("collision");
        let memo = stored_memo(&root);
        // A decodable entry under `k`'s file name that records another
        // key: the store's key guard must reject it.
        let shard = root.join(Store::shard_of("group"));
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(
            shard.join(format!("{:016x}.entry", fnv64("k"))),
            format!("{STORE_FORMAT}\nkey=not-k\n7"),
        )
        .unwrap();
        let computed = AtomicU64::new(0);
        assert_eq!(lookup(&memo, "k", &computed), 42, "the forged answer must not leak");
        assert_eq!(memo.stats(), stats(0, 0, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A one-field record, so probes see the store grammar's cut check.
    #[derive(Clone, PartialEq, Debug)]
    struct Word(u64);

    impl Record for Word {
        const FORMAT: &'static str = "test-word/1";

        fn write(&self, w: &mut RecordWriter) {
            w.field("value", self.0);
        }

        fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
            Ok(Word(r.parse("value")?))
        }
    }

    #[test]
    fn a_probe_answers_without_counting_or_filling() {
        let root = tmpdir("probe");
        let memo = stored_memo::<Word>(&root);
        let word = |text: &str| decode::<Word>(text).ok();
        let computed = AtomicU64::new(0);
        let get = |key: &str| {
            memo.get("group", key, word, || {
                computed.fetch_add(1, Ordering::Relaxed);
                (Word(7), encode(&Word(7)))
            })
        };
        get("filled");
        let store = memo.store().unwrap();
        let shard = Store::shard_of("group");
        let stored = encode(&Word(4242));
        store.save(&shard, "stored", &stored).unwrap();
        // Cut inside its last line: `value=4242` loses `2\n`.
        store.save(&shard, "cut", &stored[..stored.len() - 2]).unwrap();
        // Decodable, but recorded for another key.
        std::fs::write(
            root.join(&shard).join(format!("{:016x}.entry", fnv64("forged"))),
            format!("{STORE_FORMAT}\nkey=not-forged\n{stored}"),
        )
        .unwrap();

        for (key, answer) in [
            ("filled", Some(Word(7))),
            ("stored", Some(Word(4242))),
            ("missing", None),
            ("cut", None),
            ("forged", None),
        ] {
            assert_eq!(memo.probe("group", key, word), answer, "probe of {key:?}");
        }
        assert_eq!(memo.stats(), stats(0, 0, 1), "a probe counts nothing");
        assert_eq!(memo.shard_sizes().iter().sum::<usize>(), 1, "a probe makes no cell");

        // Each later lookup counts as it would have without the probes,
        // also one whose decoder hands back the probed value.
        let probed = memo.probe("group", "stored", word);
        let unreached = || -> (Word, String) { unreachable!("a stored entry is not computed") };
        assert_eq!(memo.get("group", "stored", |_| probed, unreached), Word(4242));
        assert_eq!(memo.stats(), stats(0, 1, 1));
        assert_eq!(get("stored"), Word(4242));
        assert_eq!(memo.stats(), stats(1, 1, 1));
        for key in ["missing", "cut", "forged"] {
            assert_eq!(get(key), Word(7), "{key:?} is computed");
        }
        assert_eq!(get("filled"), Word(7));
        assert_eq!(memo.stats(), stats(2, 1, 4));
        assert_eq!(computed.load(Ordering::Relaxed), 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn memoizes_and_counts_deterministically() {
        let memo = Memo::default();
        let w = ssp_workloads::mcf::build(SEED);
        let mut cfg = MachineConfig::in_order();
        cfg.max_cycles = 31_337;

        let first = memo.baseline(&w, &cfg);
        assert_eq!(memo.stats(), stats(0, 0, 1), "first request simulates");

        let results = crate::parallel::map_indexed(&[(); 8], 4, |_, ()| memo.baseline(&w, &cfg));
        for r in &results {
            assert_eq!(*r, first, "cached result must be bit-identical");
        }
        assert_eq!(memo.stats(), stats(8, 0, 1), "every repeat request is a hit");
        assert_eq!(first, ssp_core::simulate_stepped(&w.program, &cfg), "memo returns the truth");
    }

    #[test]
    fn adapted_entries_key_on_the_options_fingerprint() {
        let memo = Memo::default();
        let w = ssp_workloads::mcf::build(SEED);
        let mut cfg = MachineConfig::in_order();
        cfg.max_cycles = 17_389;
        let a = memo.adapted(&w, "ssp-adapt-options/1 test=a", "tool", &w.program, &cfg);
        assert_eq!(memo.stats().misses, 1, "first request simulates");
        let b = memo.adapted(&w, "ssp-adapt-options/1 test=b", "tool", &w.program, &cfg);
        assert_eq!(memo.stats().misses, 2, "a different options fingerprint is a different key");
        assert_eq!(a, b, "same program, same config: same truth under either key");
        let again = memo.adapted(&w, "ssp-adapt-options/1 test=a", "tool", &w.program, &cfg);
        assert_eq!(again, a, "repeat request answers from memory");
        // Baseline and adapted entries never collide, even when the
        // "adapted" binary is byte-identical to the original (a no-op
        // adaptation): the key kind keeps the namespaces disjoint.
        let base = memo.baseline(&w, &cfg);
        assert_eq!(base, a);
        assert_eq!(memo.stats(), stats(1, 0, 3), "baseline keys are disjoint from adapted keys");
    }

    #[test]
    fn a_truncated_baseline_entry_is_recomputed_and_repaired() {
        let root = tmpdir("truncated");
        let w = ssp_workloads::mcf::build(SEED);
        let mut cfg = MachineConfig::in_order();
        cfg.max_cycles = 23_011;
        let cold = encode(&stored_memo(&root).baseline(&w, &cfg));

        // Keep the entry's key header; cut its payload in half, then by
        // just its last two bytes (the last number loses a digit).
        let store = Store::open(&root).unwrap();
        let config = cfg.fingerprint();
        let (shard, key) = (Store::shard_of(&config), sim_key("baseline", &w, "", &config));
        let payload = store.load(&shard, &key).expect("the cold run wrote its entry");
        for cut in [payload.len() / 2, payload.len() - 2] {
            store.save(&shard, &key, &payload[..cut]).unwrap();
            let repaired = stored_memo(&root);
            assert_eq!(encode(&repaired.baseline(&w, &cfg)), cold);
            assert_eq!(repaired.stats(), stats(0, 0, 1), "a corrupt entry is a miss");
            let warm = stored_memo(&root);
            assert_eq!(encode(&warm.baseline(&w, &cfg)), cold);
            assert_eq!(warm.stats(), stats(0, 1, 0), "the recompute rewrote the entry");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let memo = Memo::default();
        let w = ssp_workloads::em3d::build(SEED);
        let mut a = MachineConfig::in_order();
        a.max_cycles = 10_007;
        let mut b = a.clone();
        b.max_cycles = 20_021;
        assert_ne!(
            memo.baseline(&w, &a),
            memo.baseline(&w, &b),
            "different caps, different results"
        );
    }

    #[test]
    fn perfect_delinquent_fingerprint_is_order_independent() {
        use ssp_ir::InstTag;
        // Two HashSets built in different insertion orders must land on
        // the same cache key (HashSet iteration order is not stable);
        // the canonical fingerprint sorts the tags.
        let fwd: std::collections::HashSet<_> = (0..20).map(InstTag).collect();
        let rev: std::collections::HashSet<_> = (0..20).rev().map(InstTag).collect();
        let a = MachineConfig::in_order().with_memory_mode(MemoryMode::PerfectDelinquent(fwd));
        let b = MachineConfig::in_order().with_memory_mode(MemoryMode::PerfectDelinquent(rev));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            MachineConfig::in_order().fingerprint(),
            "memory mode is part of the identity"
        );
    }
}
