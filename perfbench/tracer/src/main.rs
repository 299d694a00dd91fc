//! `perfbench-tracer`: replay one perfbench workload's request list
//! in-process, the way the `ssp_serve` daemon answers it.
//!
//! Two modes, run as separate processes so neither warms the other's
//! process-wide caches:
//!
//! * `plain`: every request goes through `ssp_serve::Server::handle_batch`,
//!   the daemon's own request path, framed in memory with the daemon's
//!   frame codec. It gives the untraced per-request time, the responses,
//!   and the time of a second `handle_batch` of every already answered
//!   line (`serve.hit_us`).
//! * `traced`: the same work re-composed from the public functions the
//!   server calls (frame codec, parse, cache key, memo probe, store load and decode,
//!   workload build, profile, adapt, the four simulations, the oracle
//!   steps, the tuner's evaluations, encode, store save, render), with a
//!   span around each call. Spans stay in memory and are written out when
//!   the replay ends. Work the server does inside one call is measured by
//!   *probes* that re-run it after the request's span has closed, so a
//!   probe never counts as request time: the lint gate inside adapt, the
//!   adaptation inside `Tuner::evaluate`, and the engine-regime and
//!   prefetch-timeliness statistics of each adapted binary.
//!
//! Session shape: `warm-restart` first fills the store through a real
//! `Server` (the whole list as one batch, untimed), then replays the list
//! twice on a restarted server; every other workload replays its list
//! once on a fresh server and an empty store.
//!
//! ```text
//! perfbench-tracer --mode plain|traced --workload NAME --requests FILE \
//!                  --dir DIR --responses FILE
//! ```
//!
//! `--dir` is a scratch directory: the store goes there, and a traced
//! replay writes its spans to `DIR/spans.jsonl`, one JSON object per span.
//! Responses go to `--responses`, one line per request; a one-line JSON
//! summary goes to stdout.

use ssp_bench::persist::{PersistError, Store};
use ssp_core::{
    lint_binary, prefetch_targets, AdaptError, AdaptOptions, AdaptedBinary, MachineConfig,
    PostPassTool, Profile, Program, ToolTrace,
};
use ssp_fuzz::oracle::{self, BaselineSnapshots};
use ssp_fuzz::CaseSpec;
use ssp_serve::{
    parse_line, read_frame, write_frame, CaseEntry, Request, Server, ServerConfig, TuneEntry,
    WorkloadEntry,
};
use ssp_sim::{simulate_snapshot_stepped, simulate_traced, simulate_windowed, TrapKind};
use ssp_tune::{classify, moves_for, Eval, Signal, TargetModel, TuneConfig, TuneRow, Tuner};
use ssp_workloads::Workload;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// The daemon's worker pool in the benchmark (`ssp_serve --workers 2`).
const WORKERS: usize = 2;

/// The phases `PostPassTool::run_with_profile_traced` times, in order
/// (profiling happens before it and gets its own span).
const ADAPT_PHASES: [&str; 4] = ["slicing", "sched", "trigger", "codegen"];

fn server_config() -> ServerConfig {
    ServerConfig { workers: WORKERS, ..ServerConfig::default() }
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Args {
    traced: bool,
    workload: String,
    requests: PathBuf,
    dir: PathBuf,
    responses: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut mode = None;
        let (mut workload, mut requests, mut dir, mut responses) = (None, None, None, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--mode" => mode = Some(value),
                "--workload" => workload = Some(value),
                "--requests" => requests = Some(PathBuf::from(value)),
                "--dir" => dir = Some(PathBuf::from(value)),
                "--responses" => responses = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let traced = match mode.as_deref() {
            Some("plain") => false,
            Some("traced") => true,
            _ => return Err("--mode must be plain or traced".to_owned()),
        };
        Ok(Args {
            traced,
            workload: workload.ok_or("--workload is required")?,
            requests: requests.ok_or("--requests is required")?,
            dir: dir.ok_or("--dir is required")?,
            responses: responses.ok_or("--responses is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return ExitCode::from(2);
        }
    };
    let lines: Vec<String> = match std::fs::read_to_string(&args.requests) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).map(str::to_owned).collect(),
        Err(e) => {
            eprintln!("perfbench-tracer: reading {}: {e}", args.requests.display());
            return ExitCode::from(2);
        }
    };
    let store_dir = args.dir.join("store");
    // As the daemon does with `--store`: the bench crate's simulation
    // cache shares the response store's directory.
    ssp_bench::cache::attach_store(open_store(&store_dir));
    let passes = if args.workload == "warm-restart" {
        Server::new(server_config())
            .with_store(open_store(&store_dir))
            .handle_batch(&lines.join("\n"));
        2
    } else {
        1
    };

    let cache_before = ssp_bench::cache::stats();
    let (mut summary, responses) = if args.traced {
        traced(&store_dir, &lines, passes, &args.dir.join("spans.jsonl"))
    } else {
        plain(&store_dir, &lines, passes)
    };
    let cache = ssp_bench::cache::stats();
    let (bytes, entries) = store_size(&store_dir);
    let _ = write!(
        summary,
        ", \"bench_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}}}, \
         \"store\": {{\"bytes\": {bytes}, \"entries\": {entries}}}}}",
        cache.hits - cache_before.hits,
        cache.disk_hits - cache_before.disk_hits,
        cache.misses - cache_before.misses,
    );
    let mut out = responses.join("\n");
    out.push('\n');
    if let Err(e) = std::fs::write(&args.responses, out) {
        eprintln!("perfbench-tracer: writing {}: {e}", args.responses.display());
        return ExitCode::FAILURE;
    }
    println!("{summary}");
    ExitCode::SUCCESS
}

fn open_store(dir: &Path) -> Store {
    Store::open(dir).expect("the scratch store directory is writable")
}

/// Total bytes and `.entry` files under the store directory.
fn store_size(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut entries) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(read) = std::fs::read_dir(&d) else { continue };
        for e in read.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                bytes += meta.len();
                entries += u64::from(e.path().extension().is_some_and(|x| x == "entry"));
            }
        }
    }
    (bytes, entries)
}

/// One request or response through the daemon's frame codec, in memory.
fn frame_round_trip(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut buf, payload).expect("in-memory frame write");
    read_frame(&mut &buf[..]).expect("in-memory frame read").expect("one frame")
}

fn serve_framed(server: &Server, line: &str) -> String {
    let input = frame_round_trip(line.as_bytes());
    let out = server.handle_batch(&String::from_utf8_lossy(&input));
    let back = frame_round_trip(out.as_bytes());
    String::from_utf8(back).expect("responses are UTF-8").trim_end().to_owned()
}

/// The untraced replay through `Server::handle_batch`.
fn plain(store_dir: &Path, lines: &[String], passes: usize) -> (String, Vec<String>) {
    let server = Server::new(server_config()).with_store(open_store(store_dir));
    let mut responses = Vec::new();
    let mut total = 0u64;
    for _ in 0..passes {
        for line in lines {
            let t = Instant::now();
            responses.push(serve_framed(&server, line));
            total += nanos(t);
        }
    }
    // Every line is answered by now: time the in-memory hit path.
    let t = Instant::now();
    for line in lines {
        black_box(server.handle_batch(line));
    }
    let hit_ns = nanos(t) / lines.len().max(1) as u64;
    let summary = format!(
        "{{\"mode\": \"plain\", \"requests\": {}, \"request_ns\": {total}, \"hit_ns\": {hit_ns}",
        responses.len()
    );
    (summary, responses)
}

/// The traced replay: the server's work re-composed from the public
/// layer functions, one span per call.
fn traced(
    store_dir: &Path,
    lines: &[String],
    passes: usize,
    spans_out: &Path,
) -> (String, Vec<String>) {
    let mut replica = Replica {
        config: server_config(),
        store: open_store(store_dir),
        memo: HashMap::new(),
        probes: Vec::new(),
    };
    let mut t = Tracer::new();
    let mut responses = Vec::new();
    for _ in 0..passes {
        for line in lines {
            responses.push(replica.handle(&mut t, line));
        }
    }
    if let Err(e) = std::fs::write(spans_out, t.spans_jsonl()) {
        eprintln!("perfbench-tracer: writing {}: {e}", spans_out.display());
    }
    (t.summary_json(), responses)
}

/// One finished (or open) span. `parent` is the enclosing span; every
/// span of one request shares `request`.
struct Span {
    parent: Option<usize>,
    request: usize,
    name: &'static str,
    start: u64,
    end: u64,
}

/// In-memory span recorder plus additive counters.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: usize,
    counters: BTreeMap<&'static str, f64>,
    /// Wall time measured by probes, by layer name (outside any request).
    probe_ns: BTreeMap<&'static str, u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: 0,
            counters: BTreeMap::new(),
            probe_ns: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        nanos(self.t0)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            request: self.requests,
            name,
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close in nesting order");
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Record work measured elsewhere as a finished child of `parent`,
    /// starting at `at` and clamped to the parent's end. Returns the
    /// child's id and end.
    fn place(&mut self, parent: usize, at: u64, name: &'static str, ns: u64) -> (usize, u64) {
        let p = &self.spans[parent];
        let start = at.clamp(p.start, p.end);
        let end = start.saturating_add(ns).min(p.end);
        let request = p.request;
        self.spans.push(Span { parent: Some(parent), request, name, start, end });
        (self.spans.len() - 1, end)
    }

    /// Lay the tool's phase walls out as consecutive children of the
    /// adapt span; returns the `codegen` child.
    fn adapt_phases(&mut self, adapt: usize, trace: &ToolTrace) -> usize {
        let mut at = self.spans[adapt].start;
        let mut codegen = adapt;
        for name in ADAPT_PHASES {
            let wall = trace.phase(name).map_or(0, |p| p.wall_nanos);
            let (id, end) = self.place(adapt, at, name, wall);
            at = end;
            codegen = id;
        }
        codegen
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    fn probe(&mut self, name: &'static str, ns: u64) {
        *self.probe_ns.entry(name).or_default() += ns;
    }

    fn tool_counters(&mut self, trace: &ToolTrace) {
        let c = |phase: &str, name: &str| trace.phase(phase).map_or(0, |p| p.counter(name)) as f64;
        self.count("slicing.slice_insts", c("slicing", "slice_insts"));
        self.count("trigger.triggers_placed", c("trigger", "triggers_placed"));
        self.count("codegen.insts_added", c("codegen", "insts_added"));
    }

    /// Per span name: inclusive time, self time (inclusive minus the
    /// time its children cover), and call count.
    fn summary_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let e = layers.entry(s.name).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(child_ns[i]);
            e.2 += 1;
        }
        let layers: Vec<String> = layers
            .iter()
            .map(|(n, (incl, own, calls))| {
                format!("\"{n}\": {{\"incl_ns\": {incl}, \"self_ns\": {own}, \"calls\": {calls}}}")
            })
            .collect();
        let counters: Vec<String> =
            self.counters.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
        let probes: Vec<String> =
            self.probe_ns.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
        format!(
            "{{\"mode\": \"traced\", \"requests\": {}, \"layers\": {{{}}}, \"counters\": {{{}}}, \
             \"probe_ns\": {{{}}}",
            self.requests,
            layers.join(", "),
            counters.join(", "),
            probes.join(", "),
        )
    }

    fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Re-runs deferred until the current request's span has closed.
enum Probe {
    /// The lint gate adapt ran inside its codegen phase; the time becomes
    /// a `lint` child of that phase's span.
    Lint { original: Program, adapted: AdaptedBinary, codegen: usize },
    /// Engine regimes and prefetch timeliness of an adapted binary.
    Engine { adapted: AdaptedBinary, models: Vec<(bool, MachineConfig)> },
    /// The adaptation inside one computed `Tuner::evaluate` call.
    EvalAdapt { w: Rc<Workload>, profile: Rc<Profile>, opts: AdaptOptions, eval: usize },
    /// The tuned plan of one tune row, on its target model.
    TunedPlan { w: Rc<Workload>, profile: Rc<Profile>, opts: AdaptOptions, io: bool },
}

/// The server's request path, re-composed from public layer calls.
struct Replica {
    config: ServerConfig,
    store: Store,
    memo: HashMap<String, String>,
    probes: Vec<Probe>,
}

fn render_workload(e: &WorkloadEntry) -> String {
    format!(
        "{{\"kind\": \"workload\", \"row\": {}, \"plan_digest\": \"{}\", \"slices\": {}, \"skipped\": {}}}",
        ssp_bench::suite_row_json(&e.suite_row()),
        e.plan_digest,
        e.slices,
        e.skipped,
    )
}

fn render_case(e: &CaseEntry) -> String {
    format!("{{\"kind\": \"case\", \"case\": {}}}", e.to_json())
}

fn render_tune(e: &TuneEntry) -> String {
    format!(
        "{{\"kind\": \"tune\", \"rounds\": {}, \"io\": {}, \"ooo\": {}}}",
        e.rounds,
        ssp_tune::report::row_json(&e.io_row),
        ssp_tune::report::row_json(&e.ooo_row),
    )
}

impl Replica {
    fn handle(&mut self, t: &mut Tracer, line: &str) -> String {
        let request = t.open("request");
        let input = t.span("serve.frame", |_| frame_round_trip(line.as_bytes()));
        let input = String::from_utf8_lossy(&input).into_owned();
        let response = match t.span("serve.parse", |_| parse_line(&input)) {
            Some(Ok(Request::Workload(name))) => self.workload(t, &name),
            Some(Ok(Request::Tune(name))) => self.tune(t, &name),
            Some(Ok(Request::Case(spec))) => self.case(t, &spec),
            Some(Err(e)) => format!("{{\"kind\": \"error\", \"error\": {:?}}}", e.to_string()),
            None => String::new(),
        };
        let framed =
            t.span("serve.frame", |_| frame_round_trip(format!("{response}\n").as_bytes()));
        t.close(request);
        t.requests += 1;
        self.run_probes(t);
        String::from_utf8(framed).expect("responses are UTF-8").trim_end().to_owned()
    }

    /// The server's memo probe, store probe, compute, write-back and
    /// render, for one entry kind.
    #[allow(clippy::too_many_arguments)]
    fn answer<E>(
        &mut self,
        t: &mut Tracer,
        key: &str,
        fingerprint: &str,
        decode: fn(&str) -> Result<E, PersistError>,
        encode: fn(&E) -> String,
        render: fn(&E) -> String,
        compute: impl FnOnce(&mut Self, &mut Tracer) -> E,
    ) -> String {
        if let Some(hit) = t.span("serve.memo", |_| self.memo.get(key).cloned()) {
            return hit;
        }
        let shard = Store::shard_of(fingerprint);
        let loaded = t.span("persist.load", |_| self.store.load(&shard, key));
        let decoded = loaded.and_then(|text| t.span("persist.decode", |_| decode(&text).ok()));
        let entry = match decoded {
            Some(e) => e,
            None => {
                let e = compute(self, t);
                let payload = t.span("persist.encode", |_| encode(&e));
                if let Err(err) = t.span("persist.save", |_| self.store.save(&shard, key, &payload))
                {
                    eprintln!("perfbench-tracer: store write failed for {key:?}: {err}");
                }
                e
            }
        };
        let response = t.span("serve.render", |_| render(&entry));
        self.memo.insert(key.to_owned(), response.clone());
        response
    }

    fn adapt(
        &mut self,
        t: &mut Tracer,
        original: &Program,
        machine: &MachineConfig,
        profile: Profile,
        opts: &AdaptOptions,
    ) -> Result<AdaptedBinary, AdaptError> {
        let tool = PostPassTool::new(machine.clone()).with_options(opts.clone());
        let mut trace = ToolTrace::standard();
        let id = t.open("core.adapt");
        let adapted = tool.run_with_profile_traced(original, profile, &mut trace);
        t.close(id);
        let codegen = t.adapt_phases(id, &trace);
        t.tool_counters(&trace);
        if let Ok(a) = &adapted {
            self.probes.push(Probe::Lint {
                original: original.clone(),
                adapted: a.clone(),
                codegen,
            });
        }
        adapted
    }

    fn workload(&mut self, t: &mut Tracer, name: &str) -> String {
        let (io_fp, opts_fp, key) = t.span("serve.key", |_| {
            let io_fp = self.config.io.fingerprint();
            let ooo_fp = self.config.ooo.fingerprint();
            let opts_fp = AdaptOptions::default().fingerprint();
            let key = format!(
                "workload name={name} seed={} io={io_fp} ooo={ooo_fp} opts={opts_fp}",
                self.config.seed
            );
            (io_fp, opts_fp, key)
        });
        let compute = |this: &mut Self, t: &mut Tracer| {
            let cfg = this.config.clone();
            let w = t.span("workloads.build", |_| {
                ssp_workloads::by_name(name, cfg.seed).expect("parse_line admits only known names")
            });
            let profile = t.span("sim.profile", |_| ssp_core::profile(&w.program, &cfg.io));
            let adapted = this
                .adapt(t, &w.program, &cfg.io, profile, &AdaptOptions::default())
                .expect("adaptation succeeds");
            let base_io = t.span("sim.baseline_io", |_| ssp_bench::cache::baseline(&w, &cfg.io));
            let ssp_io = t.span("sim.adapted_io", |_| {
                ssp_bench::cache::adapted(&w, &opts_fp, &io_fp, &adapted.program, &cfg.io)
            });
            let base_ooo = t.span("sim.baseline_ooo", |_| ssp_bench::cache::baseline(&w, &cfg.ooo));
            let ssp_ooo = t.span("sim.adapted_ooo", |_| {
                ssp_bench::cache::adapted(&w, &opts_fp, &io_fp, &adapted.program, &cfg.ooo)
            });
            t.count("sim.adapted_cycles", (ssp_io.total_cycles + ssp_ooo.total_cycles) as f64);
            let entry = WorkloadEntry {
                name: name.to_owned(),
                seed: cfg.seed,
                plan_digest: adapted.report.plan_digest(),
                slices: adapted.report.slices.len() as u64,
                skipped: adapted.report.skipped.len() as u64,
                base_io,
                ssp_io,
                base_ooo,
                ssp_ooo,
            };
            let models = vec![(true, cfg.io.clone()), (false, cfg.ooo.clone())];
            this.probes.push(Probe::Engine { adapted, models });
            entry
        };
        self.answer(
            t,
            &key,
            &io_fp,
            WorkloadEntry::decode,
            WorkloadEntry::encode,
            render_workload,
            compute,
        )
    }

    fn case(&mut self, t: &mut Tracer, spec: &CaseSpec) -> String {
        let (fp, key) = t.span("serve.key", |_| {
            let fp = format!("ssp-oracle-config/1 max_cycles={}", self.config.oracle.max_cycles);
            let key = format!("case {spec} {fp}");
            (fp, key)
        });
        self.answer(t, &key, &fp, CaseEntry::decode, CaseEntry::encode, render_case, |this, t| {
            this.run_case(t, spec)
        })
    }

    /// `ssp_fuzz::oracle::run_case`, step by step through the oracle's
    /// public functions.
    fn run_case(&mut self, t: &mut Tracer, spec: &CaseSpec) -> CaseEntry {
        let entry =
            |outcome: &str, kinds: Vec<String>, slices: u64, threads_spawned: u64| CaseEntry {
                spec: spec.to_string(),
                outcome: outcome.to_owned(),
                kinds,
                slices,
                threads_spawned,
            };
        let failed = |kind: &str| entry("violations", vec![kind.to_owned()], 0, 0);
        t.count("fuzz.cases", 1.0);
        let Ok(prog) = t.span("fuzz.gen", |_| ssp_fuzz::gen::generate(spec)) else {
            return failed("generate-verify");
        };
        let mut io = MachineConfig::in_order();
        io.max_cycles = self.config.oracle.max_cycles;
        let mut ooo = MachineConfig::out_of_order();
        ooo.max_cycles = self.config.oracle.max_cycles;
        let base =
            t.span("fuzz.baseline_snapshots", |_| oracle::baseline_snapshots(&prog, &io, &ooo));
        let diverged = t.span("fuzz.engine_check", |_| {
            simulate_snapshot_stepped(&prog, &io, base.bound) != base.io
                || simulate_snapshot_stepped(&prog, &ooo, base.bound) != base.ooo
        });
        if diverged {
            return failed("engine-divergence");
        }
        if base.io.1.trap == TrapKind::CycleCap || base.ooo.1.trap == TrapKind::CycleCap {
            return entry("baseline-capped", Vec::new(), 0, 0);
        }
        let profile = t.span("sim.profile", |_| ssp_core::profile(&prog, &io));
        let Ok(adapted) = self.adapt(t, &prog, &io, profile, &AdaptOptions::default()) else {
            return failed("adapt-error");
        };
        let (violations, a_io, a_ooo) = t.span("fuzz.check_adapted", |_| {
            oracle::check_adapted(&adapted.program, &base, &io, &ooo)
        });
        let adapted_diverged = t.span("fuzz.engine_check", |_| {
            simulate_snapshot_stepped(&adapted.program, &io, base.bound).0 != a_io
                || simulate_snapshot_stepped(&adapted.program, &ooo, base.bound).0 != a_ooo
        });
        let mut kinds: Vec<String> = Vec::new();
        if adapted_diverged {
            kinds.push("engine-divergence".to_owned());
        }
        for v in &violations {
            if !kinds.iter().any(|k| k == v.kind) {
                kinds.push(v.kind.to_owned());
            }
        }
        let outcome = if kinds.is_empty() { "pass" } else { "violations" };
        t.count("fuzz.passes", f64::from(u8::from(kinds.is_empty())));
        entry(
            outcome,
            kinds,
            adapted.report.slice_count() as u64,
            a_io.threads_spawned + a_ooo.threads_spawned,
        )
    }

    fn tune(&mut self, t: &mut Tracer, name: &str) -> String {
        let (io_fp, key) = t.span("serve.key", |_| {
            let io_fp = self.config.io.fingerprint();
            let ooo_fp = self.config.ooo.fingerprint();
            let opts_fp = AdaptOptions::default().fingerprint();
            let key = format!(
                "tune name={name} seed={} rounds={} io={io_fp} ooo={ooo_fp} opts={opts_fp}",
                self.config.seed, self.config.tune_rounds
            );
            (io_fp, key)
        });
        let compute = |this: &mut Self, t: &mut Tracer| {
            let cfg = this.config.clone();
            let w = Rc::new(t.span("workloads.build", |_| {
                ssp_workloads::by_name(name, cfg.seed).expect("parse_line admits only known names")
            }));
            let mut tuner = Tuner::new(TuneConfig {
                seed: cfg.seed,
                io: cfg.io.clone(),
                ooo: cfg.ooo.clone(),
                max_rounds: cfg.tune_rounds,
                workers: 1,
            });
            if let Ok(s) = Store::open(this.store.root()) {
                tuner = tuner.with_store(s);
            }
            let io_row = t.span("tune.row", |t| this.tune_row(t, &tuner, &w, TargetModel::InOrder));
            let ooo_row =
                t.span("tune.row", |t| this.tune_row(t, &tuner, &w, TargetModel::OutOfOrder));
            let s = tuner.stats();
            t.count("tune.memo_hits", s.hits as f64);
            t.count("tune.memo_lookups", (s.hits + s.disk_hits + s.misses) as f64);
            t.count("tune.candidates", (io_row.candidates + ooo_row.candidates) as f64);
            TuneEntry {
                name: name.to_owned(),
                seed: cfg.seed,
                rounds: cfg.tune_rounds as u64,
                io_row,
                ooo_row,
            }
        };
        self.answer(t, &key, &io_fp, TuneEntry::decode, TuneEntry::encode, render_tune, compute)
    }

    fn evaluate(
        &mut self,
        t: &mut Tracer,
        tuner: &Tuner,
        w: &Rc<Workload>,
        profile: &Rc<Profile>,
        base: &BaselineSnapshots,
        opts: &AdaptOptions,
    ) -> Eval {
        let misses = tuner.stats().misses;
        let eval = t.open("tune.eval");
        let e = tuner.evaluate(w, profile, base, opts);
        t.close(eval);
        if tuner.stats().misses > misses {
            self.probes.push(Probe::EvalAdapt {
                w: Rc::clone(w),
                profile: Rc::clone(profile),
                opts: opts.clone(),
                eval,
            });
        }
        e
    }

    /// `Tuner::tune_workload`, step by step through the tuner's public
    /// functions (its worker count is 1 inside the server).
    fn tune_row(
        &mut self,
        t: &mut Tracer,
        tuner: &Tuner,
        w: &Rc<Workload>,
        target: TargetModel,
    ) -> TuneRow {
        let cfg = tuner.config().clone();
        let profile = Rc::new(t.span("sim.profile", |_| ssp_core::profile(&w.program, &cfg.io)));
        let base = t.span("fuzz.baseline_snapshots", |_| {
            oracle::baseline_snapshots(&w.program, &cfg.io, &cfg.ooo)
        });
        let base_cycles = match target {
            TargetModel::InOrder => base.io.0.cycles,
            TargetModel::OutOfOrder => base.ooo.0.cycles,
        };
        let default_opts = AdaptOptions::default();
        let default_eval = self.evaluate(t, tuner, w, &profile, &base, &default_opts);
        let mut candidates = 1u64;
        let mut emitting = u64::from(default_eval.clean() && default_eval.emitting());
        let mut best_candidate =
            if default_eval.clean() { default_eval.cycles(target) } else { u64::MAX };
        let mut cur_opts = default_opts.clone();
        let mut cur_eval = if default_eval.clean() {
            default_eval.clone()
        } else {
            Eval {
                adapt_error: None,
                slices: 0,
                skipped: 0,
                plan_digest: "-".to_owned(),
                violations: Vec::new(),
                io_cycles: base.io.0.cycles,
                ooo_cycles: base.ooo.0.cycles,
            }
        };
        let mut moves: Vec<(String, u64)> = Vec::new();
        let mut rounds = 0u64;
        for _ in 0..cfg.max_rounds {
            rounds += 1;
            let improving = cur_eval.cycles(target) < base_cycles;
            let signal = if !cur_eval.emitting() {
                Signal::Noop
            } else {
                let tel =
                    t.span("tune.telemetry", |_| tuner.telemetry(w, &profile, &cur_opts, target));
                classify(&tel.totals())
            };
            let menu = moves_for(signal, &cur_opts, !improving);
            if menu.is_empty() {
                break;
            }
            let evals: Vec<Eval> =
                menu.iter().map(|(_, o)| self.evaluate(t, tuner, w, &profile, &base, o)).collect();
            let mut accepted: Option<usize> = None;
            for (i, e) in evals.iter().enumerate() {
                candidates += 1;
                if !e.clean() {
                    continue;
                }
                if e.emitting() {
                    emitting += 1;
                }
                best_candidate = best_candidate.min(e.cycles(target));
                let bar = match accepted {
                    None => cur_eval.cycles(target),
                    Some(j) => evals[j].cycles(target),
                };
                if e.cycles(target) < bar {
                    accepted = Some(i);
                }
            }
            match accepted {
                None => break,
                Some(i) => {
                    cur_opts = menu[i].1.clone();
                    cur_eval = evals[i].clone();
                    moves.push((menu[i].0.clone(), cur_eval.cycles(target)));
                }
            }
        }
        let tuned_cycles = cur_eval.cycles(target);
        let verdict = if tuned_cycles < base_cycles { "win" } else { "structural-cap" };
        let timeliness = if cur_eval.emitting() {
            t.span("tune.telemetry", |_| tuner.telemetry(w, &profile, &cur_opts, target)).totals()
        } else {
            Default::default()
        };
        self.probes.push(Probe::TunedPlan {
            w: Rc::clone(w),
            profile: Rc::clone(&profile),
            opts: cur_opts.clone(),
            io: target == TargetModel::InOrder,
        });
        TuneRow {
            name: w.name.to_owned(),
            model: target.name().to_owned(),
            base_cycles,
            default_cycles: if default_eval.clean() {
                default_eval.cycles(target)
            } else {
                base_cycles
            },
            default_noop: !default_eval.emitting(),
            tuned_cycles,
            tuned_slices: cur_eval.slices,
            tuned_plan_digest: cur_eval.plan_digest.clone(),
            tuned_opts: cur_opts.fingerprint(),
            verdict: verdict.to_owned(),
            rounds,
            candidates,
            emitting_candidates: emitting,
            best_candidate_cycles: best_candidate,
            timeliness,
            moves,
        }
    }

    fn run_probes(&mut self, t: &mut Tracer) {
        for probe in std::mem::take(&mut self.probes) {
            match probe {
                Probe::Lint { original, adapted, codegen } => {
                    let start = Instant::now();
                    black_box(lint_binary(&original, &adapted));
                    let at = t.spans[codegen].start;
                    t.place(codegen, at, "lint", nanos(start));
                }
                Probe::Engine { adapted, models } => engine_probe(t, &adapted, &models),
                Probe::EvalAdapt { w, profile, opts, eval } => {
                    let tool = PostPassTool::new(self.config.io.clone()).with_options(opts);
                    let mut trace = ToolTrace::standard();
                    let start = Instant::now();
                    let adapted =
                        tool.run_with_profile_traced(&w.program, (*profile).clone(), &mut trace);
                    let adapt_ns = nanos(start);
                    let eval_ns = t.spans[eval].end - t.spans[eval].start;
                    t.count("tune.eval_adapt_ns", adapt_ns as f64);
                    t.count("tune.eval_computed_ns", eval_ns as f64);
                    t.tool_counters(&trace);
                    let mut lint_ns = 0;
                    if let Ok(a) = &adapted {
                        let start = Instant::now();
                        black_box(lint_binary(&w.program, a));
                        lint_ns = nanos(start);
                    }
                    for name in ADAPT_PHASES {
                        let wall = trace.phase(name).map_or(0, |p| p.wall_nanos);
                        let own =
                            if name == "codegen" { wall.saturating_sub(lint_ns) } else { wall };
                        t.probe(name, own);
                    }
                    t.probe("lint", lint_ns);
                }
                Probe::TunedPlan { w, profile, opts, io } => {
                    let tool = PostPassTool::new(self.config.io.clone()).with_options(opts);
                    // A default plan the tool rejected leaves the search on
                    // the baseline: nothing adapted to probe.
                    if let Ok(adapted) = tool.run_with_profile(&w.program, (*profile).clone()) {
                        let cfg = if io { self.config.io.clone() } else { self.config.ooo.clone() };
                        engine_probe(t, &adapted, &[(io, cfg)]);
                    }
                }
            }
        }
    }
}

/// Engine-regime split (`simulate_windowed`) and prefetch timeliness
/// (`simulate_traced` + `prefetch_targets`) of one adapted binary.
fn engine_probe(t: &mut Tracer, adapted: &AdaptedBinary, models: &[(bool, MachineConfig)]) {
    let targets = prefetch_targets(adapted);
    for (io, cfg) in models {
        let (_, ws) = simulate_windowed(&adapted.program, cfg);
        let (stepped, simulated) = if *io {
            ("sim.adapted_io_stepped_cycles", "sim.adapted_io_simulated_cycles")
        } else {
            ("sim.adapted_ooo_stepped_cycles", "sim.adapted_ooo_simulated_cycles")
        };
        t.count(stepped, ws.stepped_cycles as f64);
        t.count(simulated, ws.simulated() as f64);
        t.count("sim.busy_windows", ws.busy_windows as f64);
        let (_, trace) = simulate_traced(&adapted.program, cfg, &targets);
        let totals = trace.totals();
        t.count("sim.prefetch_classified", totals.total() as f64);
        t.count("sim.prefetch_timely", totals.timely as f64);
        t.count("sim.prefetch_useless", totals.useless as f64);
    }
}
