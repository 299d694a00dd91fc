//! The `ssp-tune-report/1` document and the per-row `ssp-tune-row/1`
//! record (what `ssp-serve` persists for `tune` requests).
//!
//! Rendering is fully deterministic: fields in fixed order, integers
//! only (speedup is rendered with four fixed decimals), moves in
//! acceptance order. Two tune runs over the same inputs produce
//! byte-identical documents regardless of worker count or cache
//! temperature.

use ssp_bench::persist::{parse, split_parse, PersistError, Record, RecordReader, RecordWriter};
use ssp_trace::TimelinessCounts;

/// Versioned schema name of the report document.
pub const REPORT_FORMAT: &str = "ssp-tune-report/1";

/// The outcome of tuning one workload on one machine model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TuneRow {
    /// Workload name.
    pub name: String,
    /// Target model name (`in-order` / `out-of-order`).
    pub model: String,
    /// Unadapted cycles on the target model.
    pub base_cycles: u64,
    /// Cycles of the default-options plan (baseline cycles if that
    /// plan is a no-op or was rejected).
    pub default_cycles: u64,
    /// The default plan emitted nothing.
    pub default_noop: bool,
    /// Cycles of the tuned plan (== `base_cycles` when the best plan
    /// is the no-op).
    pub tuned_cycles: u64,
    /// Slices in the tuned plan.
    pub tuned_slices: u64,
    /// `AdaptReport::plan_digest` of the tuned plan (`-` for no-op).
    pub tuned_plan_digest: String,
    /// `AdaptOptions::fingerprint` of the tuned options.
    pub tuned_opts: String,
    /// `win` (strictly below baseline) or `structural-cap`.
    pub verdict: String,
    /// Greedy rounds executed (including the plateau round).
    pub rounds: u64,
    /// Candidates evaluated (default plan included).
    pub candidates: u64,
    /// Clean candidates that emitted at least one slice.
    pub emitting_candidates: u64,
    /// Minimum target-model cycles over every clean candidate — the
    /// machine-checked evidence behind a `structural-cap` verdict
    /// (must be `>= base_cycles` there).
    pub best_candidate_cycles: u64,
    /// Figure-9 timeliness totals of the tuned plan on the target.
    pub timeliness: TimelinessCounts,
    /// Accepted moves: (knob label, cycles after accepting it).
    pub moves: Vec<(String, u64)>,
}

impl TuneRow {
    /// `base / tuned` (1.0 when the tuned plan is the baseline no-op).
    pub fn speedup(&self) -> f64 {
        self.base_cycles as f64 / self.tuned_cycles as f64
    }

    /// The tuned plan beat the baseline.
    pub fn is_win(&self) -> bool {
        self.verdict == "win"
    }
}

/// One row as a single JSON line.
pub fn row_json(r: &TuneRow) -> String {
    let moves: Vec<String> = r
        .moves
        .iter()
        .map(|(label, cycles)| format!("{{\"move\": \"{label}\", \"cycles\": {cycles}}}"))
        .collect();
    format!(
        concat!(
            "{{\"name\": \"{}\", \"model\": \"{}\", \"base_cycles\": {}, ",
            "\"default_cycles\": {}, \"default_noop\": {}, \"tuned_cycles\": {}, ",
            "\"tuned_slices\": {}, \"speedup\": {:.4}, \"verdict\": \"{}\", ",
            "\"rounds\": {}, \"candidates\": {}, \"emitting_candidates\": {}, ",
            "\"best_candidate_cycles\": {}, ",
            "\"timeliness\": {{\"early\": {}, \"timely\": {}, \"late\": {}, \"useless\": {}}}, ",
            "\"moves\": [{}], \"plan_digest\": \"{}\", \"tuned_opts\": \"{}\"}}"
        ),
        r.name,
        r.model,
        r.base_cycles,
        r.default_cycles,
        r.default_noop,
        r.tuned_cycles,
        r.tuned_slices,
        r.speedup(),
        r.verdict,
        r.rounds,
        r.candidates,
        r.emitting_candidates,
        r.best_candidate_cycles,
        r.timeliness.early,
        r.timeliness.timely,
        r.timeliness.late,
        r.timeliness.useless,
        moves.join(", "),
        r.tuned_plan_digest,
        r.tuned_opts,
    )
}

/// The full report document: schema header, run parameters, one row
/// per line.
pub fn render_report(
    seed: u64,
    max_rounds: usize,
    io_fp: &str,
    ooo_fp: &str,
    rows: &[TuneRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{REPORT_FORMAT}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"max_rounds\": {max_rounds},\n"));
    out.push_str(&format!("  \"io\": \"{io_fp}\",\n"));
    out.push_str(&format!("  \"ooo\": \"{ooo_fp}\",\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    {}{comma}\n", row_json(r)));
    }
    out.push_str("  ]\n}\n");
    out
}

impl Record for TuneRow {
    const FORMAT: &'static str = "ssp-tune-row/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("name", &self.name);
        w.field("model", &self.model);
        w.field("base_cycles", self.base_cycles);
        w.field("default_cycles", self.default_cycles);
        w.field("default_noop", self.default_noop);
        w.field("tuned_cycles", self.tuned_cycles);
        w.field("tuned_slices", self.tuned_slices);
        w.field("plan_digest", &self.tuned_plan_digest);
        w.field("verdict", &self.verdict);
        w.field("rounds", self.rounds);
        w.field("candidates", self.candidates);
        w.field("emitting_candidates", self.emitting_candidates);
        w.field("best_candidate_cycles", self.best_candidate_cycles);
        let TimelinessCounts { early, timely, late, useless } = self.timeliness;
        w.field("timeliness", format_args!("{early},{timely},{late},{useless}"));
        w.field("opts", &self.tuned_opts);
        w.rows("moves", self.moves.iter().map(|(label, cycles)| format!("{cycles} {label}")));
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(TuneRow {
            name: r.str("name")?.to_owned(),
            model: r.str("model")?.to_owned(),
            base_cycles: r.parse("base_cycles")?,
            default_cycles: r.parse("default_cycles")?,
            default_noop: r.parse("default_noop")?,
            tuned_cycles: r.parse("tuned_cycles")?,
            tuned_slices: r.parse("tuned_slices")?,
            tuned_plan_digest: r.str("plan_digest")?.to_owned(),
            verdict: r.str("verdict")?.to_owned(),
            rounds: r.parse("rounds")?,
            candidates: r.parse("candidates")?,
            emitting_candidates: r.parse("emitting_candidates")?,
            best_candidate_cycles: r.parse("best_candidate_cycles")?,
            timeliness: {
                let [early, timely, late, useless] =
                    split_parse("timeliness", r.str("timeliness")?, ',')?;
                TimelinessCounts { early, timely, late, useless }
            },
            tuned_opts: r.str("opts")?.to_owned(),
            moves: r.rows("moves", |row| {
                let (cycles, label) = row
                    .split_once(' ')
                    .ok_or_else(|| PersistError::Malformed(format!("bad move row {row:?}")))?;
                Ok((label.to_owned(), parse("move cycles", cycles)?))
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_bench::persist::{decode, encode};

    fn sample() -> TuneRow {
        TuneRow {
            name: "em3d".to_owned(),
            model: "out-of-order".to_owned(),
            base_cycles: 98634,
            default_cycles: 139867,
            default_noop: false,
            tuned_cycles: 98509,
            tuned_slices: 2,
            tuned_plan_digest: "ab12cd34".to_owned(),
            tuned_opts: "ssp-adapt-options/1 coverage=0.99".to_owned(),
            verdict: "win".to_owned(),
            rounds: 4,
            candidates: 41,
            emitting_candidates: 30,
            best_candidate_cycles: 98509,
            timeliness: TimelinessCounts { early: 1, timely: 22, late: 3, useless: 4 },
            moves: vec![
                ("force_model=basic".to_owned(), 99537),
                ("coverage=0.99".to_owned(), 98738),
            ],
        }
    }

    #[test]
    fn row_roundtrips_through_the_codec() {
        let r = sample();
        assert_eq!(decode(&encode(&r)), Ok(r.clone()));
        assert_eq!(
            encode(&r),
            "ssp-tune-row/1\nname=em3d\nmodel=out-of-order\nbase_cycles=98634\n\
             default_cycles=139867\ndefault_noop=false\ntuned_cycles=98509\ntuned_slices=2\n\
             plan_digest=ab12cd34\nverdict=win\nrounds=4\ncandidates=41\n\
             emitting_candidates=30\nbest_candidate_cycles=98509\ntimeliness=1,22,3,4\n\
             opts=ssp-adapt-options/1 coverage=0.99\nmoves=2\n99537 force_model=basic\n\
             98738 coverage=0.99\n"
        );
        let bare = TuneRow { moves: Vec::new(), ..r };
        assert_eq!(decode(&encode(&bare)), Ok(bare));
        assert!(decode::<TuneRow>("not a row").is_err());
    }

    #[test]
    fn report_rendering_is_stable() {
        let text = render_report(2002, 8, "io-fp", "ooo-fp", &[sample()]);
        assert!(text.starts_with("{\n  \"schema\": \"ssp-tune-report/1\",\n"));
        assert!(text.contains("\"seed\": 2002"));
        assert!(text.contains("\"verdict\": \"win\""));
        assert!(text.contains("\"speedup\": 1.0013"));
        assert!(text.contains("{\"move\": \"force_model=basic\", \"cycles\": 99537}"));
        // Render twice: byte-identical.
        assert_eq!(text, render_report(2002, 8, "io-fp", "ooo-fp", &[sample()]));
    }
}
