//! Canonical serialization and the on-disk store shared by the
//! `ssp-bench` simulation memo, the `ssp-serve` daemon and the
//! `ssp-tune` tuner.
//!
//! Two layers live here:
//!
//! * **Records** — every persisted payload is one [`Record`], written
//!   by [`encode`] and read back by [`decode`]. One line grammar serves
//!   all of them:
//!
//!   ```text
//!   <FORMAT>      version header, e.g. ssp-sim-result/1
//!   key=value     fields, in the fixed order the format writes them
//!   key=N         a counted row list: exactly N row lines follow
//!   <FORMAT>      a nested record: its header, then its own lines
//!   ```
//!
//!   Every line, the last included, ends in `\n`, and a payload holds
//!   exactly one record. So a payload cut anywhere, even inside its
//!   last line, or running on past its record fails to decode with a
//!   [`PersistError`] instead of yielding a shorter value, and a row
//!   count read from disk sizes no allocation. The `SimResult` record
//!   (`ssp-sim-result/1`) is field-explicit (a new `SimResult` field
//!   breaks its encoder at compile time) and canonical (the per-load
//!   map is written sorted by tag), so equal results always serialize
//!   identically.
//! * **[`Store`]** — a sharded directory of versioned entries with
//!   atomic writes. Entries are keyed by an arbitrary key string; the
//!   file name is the key's 64-bit FNV-1a hash, and the full key is
//!   stored inside the entry as a collision guard (a hash collision
//!   reads back as a miss, never as wrong data). Writers create a
//!   temporary file and `rename` it into place, so concurrent readers
//!   only ever observe complete entries.
//!
//! The store layout under its root directory:
//!
//! ```text
//! <root>/FORMAT              "ssp-serve-store/1\n" (version guard)
//! <root>/<shard>/<fnv64(key):016x>.entry
//! ```
//!
//! where `<shard>` is any caller-chosen shard name — every caller uses
//! [`Store::shard_of`] over its memo group (a configuration fingerprint
//! for `ssp-serve` and the simulation memo, the workload identity for
//! the tuner), so one group's entries live together.

use ssp_core::SimResult;
use ssp_ir::{fnv64, InstTag};
use ssp_sim::{CycleBreakdown, LoadStats};
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Version header of the on-disk store (the `FORMAT` file and the first
/// line of every entry).
pub const STORE_FORMAT: &str = "ssp-serve-store/1";

/// Why a persisted payload could not be decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PersistError {
    /// The payload does not start with the expected version header.
    Header {
        /// The header the decoder requires.
        expected: &'static str,
        /// The first line actually found.
        found: String,
    },
    /// A line is missing, unterminated, out of order, or fails to
    /// parse, or the payload runs on past its record.
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Header { expected, found } => {
                write!(f, "bad header: expected {expected:?}, found {found:?}")
            }
            PersistError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// One persisted payload format: a version header line, then the lines
/// [`Record::write`] appends, which [`Record::read`] takes back in the
/// same order (see the module docs for the grammar).
pub trait Record: Sized {
    /// The version header, the record's first line. A change to what
    /// the lines mean needs a new one.
    const FORMAT: &'static str;

    /// Append this value's lines, header excluded.
    fn write(&self, w: &mut RecordWriter);

    /// Read the lines [`Record::write`] appended, header excluded. A
    /// struct expression evaluates its fields in the order written, so
    /// a reader can be one struct literal listing them in line order.
    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError>;
}

/// Serialize `value` as a whole payload: one record, header first.
pub fn encode<R: Record>(value: &R) -> String {
    let mut w = RecordWriter { out: String::new() };
    w.record(value);
    w.out
}

/// Parse a payload produced by [`encode`]: exactly one `R` record.
pub fn decode<R: Record>(text: &str) -> Result<R, PersistError> {
    let mut r = RecordReader { rest: text };
    let value = r.record()?;
    if !r.rest.is_empty() {
        return Err(PersistError::Malformed(format!("data after the {} record", R::FORMAT)));
    }
    Ok(value)
}

/// Appends one payload's lines; see [`Record`].
pub struct RecordWriter {
    out: String,
}

impl RecordWriter {
    fn line(&mut self, line: fmt::Arguments<'_>) {
        self.out.write_fmt(line).expect("writing to a String cannot fail");
        self.out.push('\n');
    }

    /// A `key=value` field.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        self.line(format_args!("{key}={value}"));
    }

    /// A counted row list: `key=N`, then one line per row.
    pub fn rows<I>(&mut self, key: &str, rows: I)
    where
        I: ExactSizeIterator,
        I::Item: fmt::Display,
    {
        self.field(key, rows.len());
        for row in rows {
            self.line(format_args!("{row}"));
        }
    }

    /// A nested record: its header, then its lines.
    pub fn record<R: Record>(&mut self, value: &R) {
        self.line(format_args!("{}", R::FORMAT));
        value.write(self);
    }
}

/// Takes one payload's lines back in order; see [`Record`].
pub struct RecordReader<'a> {
    rest: &'a str,
}

impl<'a> RecordReader<'a> {
    /// The next line, which must end in `\n`: a payload cut inside its
    /// last line is malformed, not a shorter value.
    fn line(&mut self) -> Result<&'a str, PersistError> {
        let (line, rest) = self.rest.split_once('\n').ok_or_else(|| {
            PersistError::Malformed(format!("payload ends early at {:?}", self.rest))
        })?;
        self.rest = rest;
        Ok(line)
    }

    /// The value of the next line, which must be the field `key`.
    pub fn str(&mut self, key: &str) -> Result<&'a str, PersistError> {
        let line = self.line()?;
        match line.split_once('=') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(PersistError::Malformed(format!("expected field {key}, found {line:?}"))),
        }
    }

    /// The next line's field `key`, parsed.
    pub fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, PersistError> {
        parse(key, self.str(key)?)
    }

    /// A counted row list written by [`RecordWriter::rows`], each row
    /// decoded by `row`. The count comes from disk, so it sizes
    /// nothing: rows are taken only while lines remain.
    pub fn rows<T>(
        &mut self,
        key: &str,
        mut row: impl FnMut(&'a str) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        let count: usize = self.parse(key)?;
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(row(self.line()?)?);
        }
        Ok(out)
    }

    /// A nested record written by [`RecordWriter::record`].
    pub fn record<R: Record>(&mut self) -> Result<R, PersistError> {
        let found = self.rest.split('\n').next().unwrap_or_default();
        if found != R::FORMAT {
            return Err(PersistError::Header { expected: R::FORMAT, found: found.to_owned() });
        }
        self.line()?;
        R::read(self)
    }
}

/// Parse one value; `what` names it in the error.
pub fn parse<T: FromStr>(what: &str, v: &str) -> Result<T, PersistError> {
    v.parse().map_err(|_| PersistError::Malformed(format!("{what}: bad value {v:?}")))
}

/// Parse exactly `N` values separated by `sep`: the `a:b:c` and
/// `a,b,c,d` fields and rows.
pub fn split_parse<T: FromStr + Copy + Default, const N: usize>(
    what: &str,
    v: &str,
    sep: char,
) -> Result<[T; N], PersistError> {
    let count =
        || PersistError::Malformed(format!("{what}: expected {N} values split by {sep:?}: {v:?}"));
    let mut parts = v.split(sep);
    let mut out = [T::default(); N];
    for slot in &mut out {
        *slot = parse(what, parts.next().ok_or_else(count)?)?;
    }
    match parts.next() {
        None => Ok(out),
        Some(_) => Err(count()),
    }
}

/// One `tag:accesses:l1:l2:l2_partial:l3:l3_partial:mem:mem_partial`
/// row of a `SimResult`'s load map.
fn load_row(row: &str) -> Result<(InstTag, LoadStats), PersistError> {
    let [tag, accesses, l1, l2, l2_partial, l3, l3_partial, mem, mem_partial] =
        split_parse("load row", row, ':')?;
    let tag = u32::try_from(tag)
        .map_err(|_| PersistError::Malformed(format!("load tag {tag} too large")))?;
    Ok((InstTag(tag), LoadStats { accesses, l1, l2, l2_partial, l3, l3_partial, mem, mem_partial }))
}

impl Record for SimResult {
    const FORMAT: &'static str = "ssp-sim-result/1";

    fn write(&self, w: &mut RecordWriter) {
        // Full destructuring: adding a field to `SimResult` breaks this at
        // compile time, forcing the encoding (and, if the change is
        // semantic, the version header) to be updated.
        let SimResult {
            cycles,
            total_cycles,
            main_insts,
            spec_insts,
            breakdown,
            loads,
            spawns_fired,
            spawns_suppressed,
            threads_spawned,
            spawns_dropped,
            runaway_kills,
            branches,
            mispredicts,
            halted,
        } = self;
        let CycleBreakdown { l3_miss, l2_miss, l1_miss, cache_exec, exec, other } = breakdown;
        w.field("cycles", cycles);
        w.field("total_cycles", total_cycles);
        w.field("main_insts", main_insts);
        w.field("spec_insts", spec_insts);
        w.field(
            "breakdown",
            format_args!("{l3_miss}:{l2_miss}:{l1_miss}:{cache_exec}:{exec}:{other}"),
        );
        w.field("spawns_fired", spawns_fired);
        w.field("spawns_suppressed", spawns_suppressed);
        w.field("threads_spawned", threads_spawned);
        w.field("spawns_dropped", spawns_dropped);
        w.field("runaway_kills", runaway_kills);
        w.field("branches", branches);
        w.field("mispredicts", mispredicts);
        w.field("halted", halted);
        let mut tags: Vec<&InstTag> = loads.keys().collect();
        tags.sort_unstable();
        w.rows(
            "loads",
            tags.into_iter().map(|tag| {
                let LoadStats { accesses, l1, l2, l2_partial, l3, l3_partial, mem, mem_partial } =
                    &loads[tag];
                format!(
                    "{}:{accesses}:{l1}:{l2}:{l2_partial}:{l3}:{l3_partial}:{mem}:{mem_partial}",
                    tag.0
                )
            }),
        );
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(SimResult {
            cycles: r.parse("cycles")?,
            total_cycles: r.parse("total_cycles")?,
            main_insts: r.parse("main_insts")?,
            spec_insts: r.parse("spec_insts")?,
            breakdown: {
                let [l3_miss, l2_miss, l1_miss, cache_exec, exec, other] =
                    split_parse("breakdown", r.str("breakdown")?, ':')?;
                CycleBreakdown { l3_miss, l2_miss, l1_miss, cache_exec, exec, other }
            },
            spawns_fired: r.parse("spawns_fired")?,
            spawns_suppressed: r.parse("spawns_suppressed")?,
            threads_spawned: r.parse("threads_spawned")?,
            spawns_dropped: r.parse("spawns_dropped")?,
            runaway_kills: r.parse("runaway_kills")?,
            branches: r.parse("branches")?,
            mispredicts: r.parse("mispredicts")?,
            halted: r.parse("halted")?,
            loads: r.rows("loads", load_row)?.into_iter().collect(),
        })
    }
}

/// A sharded on-disk store of versioned entries with atomic writes.
///
/// See the module docs for the layout. A `Store` is cheap to open and
/// to clone, and safe to share across threads (all methods take
/// `&self`; the filesystem provides the synchronization via atomic
/// renames).
#[derive(Clone, Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if necessary) a store rooted at `root`.
    ///
    /// Writes the `FORMAT` version file on first open; fails with
    /// `InvalidData` if the directory already holds a store of a
    /// different version — silently reading entries across format
    /// versions is exactly what the version guard exists to prevent.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let format_file = root.join("FORMAT");
        match fs::read_to_string(&format_file) {
            Ok(v) if v.trim() == STORE_FORMAT => {}
            Ok(v) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "store at {} has format {:?}, this build reads {STORE_FORMAT:?}",
                        root.display(),
                        v.trim()
                    ),
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::write(&format_file, format!("{STORE_FORMAT}\n"))?;
            }
            Err(e) => return Err(e),
        }
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shard name for a machine-config fingerprint (or any other
    /// grouping string): two hex digits of its FNV-1a hash, giving up
    /// to 256 shard directories.
    pub fn shard_of(fingerprint: &str) -> String {
        format!("{:02x}", fnv64(fingerprint) & 0xff)
    }

    fn entry_path(&self, shard: &str, key: &str) -> PathBuf {
        self.root.join(shard).join(format!("{:016x}.entry", fnv64(key)))
    }

    /// Load the payload stored under `(shard, key)`, or `None` if the
    /// entry is absent, has a different version, or was written for a
    /// different key (a filename-hash collision) — every failure mode
    /// reads as a miss, never as wrong data.
    pub fn load(&self, shard: &str, key: &str) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(shard, key)).ok()?;
        let rest = text.strip_prefix(STORE_FORMAT)?.strip_prefix('\n')?;
        let (key_line, payload) = rest.split_once('\n')?;
        if key_line.strip_prefix("key=")? != key {
            return None;
        }
        Some(payload.to_owned())
    }

    /// Atomically write `payload` under `(shard, key)`: the entry is
    /// assembled in a temporary file and renamed into place, so a
    /// concurrent [`Store::load`] sees either the old entry or the new
    /// one, never a torn write.
    pub fn save(&self, shard: &str, key: &str, payload: &str) -> io::Result<()> {
        let dir = self.root.join(shard);
        fs::create_dir_all(&dir)?;
        let final_path = self.entry_path(shard, key);
        let tmp = dir.join(format!(".tmp-{:016x}-{}", fnv64(key), std::process::id()));
        fs::write(&tmp, format!("{STORE_FORMAT}\nkey={key}\n{payload}"))?;
        fs::rename(&tmp, final_path)
    }

    /// Entry count per shard, sorted by shard name — the `shards`
    /// section of the daemon's `ssp-serve-report/2`.
    pub fn shard_entry_counts(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        let Ok(dirs) = fs::read_dir(&self.root) else { return out };
        for dir in dirs.flatten() {
            if !dir.file_type().is_ok_and(|t| t.is_dir()) {
                continue;
            }
            let name = dir.file_name().to_string_lossy().into_owned();
            let entries = fs::read_dir(dir.path())
                .map(|d| {
                    d.flatten()
                        .filter(|e| e.file_name().to_string_lossy().ends_with(".entry"))
                        .count()
                })
                .unwrap_or(0);
            out.push((name, entries));
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_sim::MachineConfig;

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ssp-persist-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn sim_result_round_trips() {
        let w = ssp_workloads::mcf::build(7);
        let mut cfg = MachineConfig::in_order();
        cfg.max_cycles = 40_000;
        let r = ssp_core::simulate(&w.program, &cfg);
        assert!(!r.loads.is_empty(), "the round trip must cover the load map");
        let text = encode(&r);
        assert_eq!(decode::<SimResult>(&text).unwrap(), r);
        // Canonical: encoding the decoded result reproduces the text.
        assert_eq!(encode(&decode::<SimResult>(&text).unwrap()), text);

        // The exact bytes, loads sorted by tag.
        let mut small = SimResult {
            cycles: 1000,
            total_cycles: 1200,
            main_insts: 800,
            spec_insts: 150,
            breakdown: CycleBreakdown {
                l3_miss: 1,
                l2_miss: 2,
                l1_miss: 3,
                cache_exec: 4,
                exec: 5,
                other: 6,
            },
            spawns_fired: 7,
            spawns_suppressed: 8,
            threads_spawned: 9,
            spawns_dropped: 10,
            runaway_kills: 11,
            branches: 12,
            mispredicts: 13,
            halted: true,
            ..SimResult::default()
        };
        let far = LoadStats {
            accesses: 10,
            l1: 4,
            l2: 1,
            l2_partial: 1,
            l3: 1,
            l3_partial: 0,
            mem: 2,
            mem_partial: 1,
        };
        small.loads.insert(InstTag(9), far);
        small.loads.insert(InstTag(3), LoadStats { accesses: 2, l1: 2, ..LoadStats::default() });
        assert_eq!(
            encode(&small),
            "ssp-sim-result/1\ncycles=1000\ntotal_cycles=1200\nmain_insts=800\nspec_insts=150\n\
             breakdown=1:2:3:4:5:6\nspawns_fired=7\nspawns_suppressed=8\nthreads_spawned=9\n\
             spawns_dropped=10\nrunaway_kills=11\nbranches=12\nmispredicts=13\nhalted=true\n\
             loads=2\n3:2:2:0:0:0:0:0:0\n9:10:4:1:1:1:0:2:1\n"
        );
        assert_eq!(decode::<SimResult>(&encode(&small)).unwrap(), small);
    }

    #[test]
    fn decode_rejects_bad_payloads() {
        assert!(matches!(
            decode::<SimResult>("nonsense"),
            Err(PersistError::Header { expected: SimResult::FORMAT, .. })
        ));
        let good = encode(&ssp_core::SimResult::default());
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(decode::<SimResult>(&truncated).is_err());
        assert!(decode::<SimResult>(&format!("{good}{good}")).is_err(), "one record a payload");
    }

    #[test]
    fn store_round_trips_and_guards_keys() {
        let root = tmpdir("roundtrip");
        let store = Store::open(&root).unwrap();
        let shard = Store::shard_of("some-fingerprint");
        assert!(store.load(&shard, "k1").is_none(), "empty store misses");
        store.save(&shard, "k1", "payload-1\n").unwrap();
        store.save(&shard, "k2", "payload-2\n").unwrap();
        assert_eq!(store.load(&shard, "k1").as_deref(), Some("payload-1\n"));
        assert_eq!(store.load(&shard, "k2").as_deref(), Some("payload-2\n"));
        // Reopening sees the same entries (this is the warm restart).
        let again = Store::open(&root).unwrap();
        assert_eq!(again.load(&shard, "k1").as_deref(), Some("payload-1\n"));
        assert_eq!(again.shard_entry_counts(), vec![(shard.clone(), 2)]);
        // A forged entry under k3's filename but recording a different
        // key must read as a miss, not as k3's data.
        fs::write(again.entry_path(&shard, "k3"), format!("{STORE_FORMAT}\nkey=not-k3\nforged\n"))
            .unwrap();
        assert!(again.load(&shard, "k3").is_none(), "key guard rejects collisions");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn store_rejects_foreign_formats() {
        let root = tmpdir("format");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("FORMAT"), "ssp-serve-store/999\n").unwrap();
        let err = Store::open(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&root);
    }
}
