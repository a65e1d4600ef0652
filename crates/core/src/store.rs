//! Content-addressed result store: campaign cells cached on disk.
//!
//! Campaign cells are pure functions of their spec — the cell key, the
//! campaign seed, the repetition protocol and the engine code version
//! fully determine the result (that determinism is what
//! [`crate::campaign`] exists to guarantee). The store exploits it:
//! every finished cell is serialized to one fsync'd record file named
//! by a content hash over that identity, so an unchanged cell is never
//! executed twice. Reruns probe the store first; editing one axis value
//! re-executes only the new column of the grid, and an interrupted
//! campaign resumes from whatever records already landed.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   cells/<digest>.cell   one record per finished cell (atomic rename)
//!   manifest.log          append-only journal: "<digest> <cell key>"
//! ```
//!
//! ## Identity
//!
//! A record's address is `fnv1a(identity)` where the identity string
//! canonically encodes everything a cell result depends on: the code
//! salt ([`CODE_SALT`], bumped whenever engine semantics change), the
//! cell key, the campaign seed, the protocol, the run-shaping plan
//! fields, the retry policy, the SLO target, the device floor, any
//! per-campaign run cap, and (for trace cells) a content hash of the
//! trace itself. Records written under a different salt or spec simply
//! hash to different addresses — they are ignored, never corrupted.
//! On load the stored identity line is compared against the recomputed
//! one, so a hash collision or a tampered record degrades to a cache
//! miss, not a wrong result.
//!
//! ## Fidelity
//!
//! Records round-trip [`CellResult`] losslessly: floating-point fields
//! are written with Rust's shortest-round-trip formatting (parsing the
//! text recovers the exact bits), derived fields (summary, coverage)
//! are recomputed by the same pure functions the live path uses, and
//! everything else is integers and labels. A report assembled from
//! records is therefore byte-identical to one assembled from live runs
//! — the property `tests/campaign_store.rs` pins against the committed
//! sweep goldens.
//!
//! Flight-recorder campaigns (`plan.obs.metrics`) are refused by the
//! store: a metrics snapshot is a diagnostic of one live run, not a
//! reproducible measurement, so caching it would be a lie. See
//! `docs/CAMPAIGNS.md`.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use rb_simcore::time::Nanos;
use rb_stats::bootstrap::Interval;
use rb_stats::summary::Summary;

use crate::campaign::{cell_coverage, Cell, CellResult, OpenCellStats, SweepSpec};
use crate::runner::Verdict;

/// Code-version salt folded into every record identity. Bump it when
/// engine semantics change (anything that could alter a cell's numbers
/// for the same spec): every existing record then hashes to a dead
/// address and the grid re-executes, which is exactly the safe default.
pub const CODE_SALT: &str = "rb-store-v2";

/// First line of every record file; the version gate for the format.
const RECORD_HEADER: &str = "rocketbench-cell-record v1";

/// Canonical identity string of one cell under one spec: the content
/// hash preimage. Single line by construction (cell keys and labels
/// never contain newlines).
pub fn cell_identity(spec: &SweepSpec, cell: &Cell, run_cap: Option<u32>) -> String {
    let mut id = String::with_capacity(160);
    let _ = write!(
        id,
        "salt={CODE_SALT};cell={};seed={};protocol={};duration={};window={};tail={};\
         jitter={};cold={};prewarm={};retry={};slo={};device={};cap={}",
        cell.key(),
        spec.plan.base_seed,
        spec.plan.protocol,
        spec.plan.duration.as_nanos(),
        spec.plan.window.as_nanos(),
        spec.plan.tail_windows,
        spec.plan.cache_jitter.as_u64(),
        spec.plan.cold_start,
        spec.plan.prewarm,
        spec.retry.label(),
        spec.slo_p99.map_or(u64::MAX, Nanos::as_nanos),
        spec.device.as_u64(),
        run_cap.map_or(-1i64, i64::from),
    );
    // A trace cell's numbers depend on the trace content, which lives
    // outside the cell key — fold a content hash of the canonical v2
    // serialization into the identity so editing a trace invalidates
    // its cells.
    if let crate::campaign::CellWorkload::Trace { index, .. } = &cell.workload {
        let h = spec
            .traces
            .get(*index)
            .and_then(|s| s.trace.to_text_v2().ok())
            .map_or(0, |text| fnv1a(FNV_OFFSET, text.as_bytes()));
        let _ = write!(id, ";trace={h:016x}");
    }
    id
}

/// The 64-bit content address of an identity string.
pub fn digest(identity: &str) -> u64 {
    fnv1a(FNV_OFFSET, identity.as_bytes())
}

/// A directory of content-addressed cell records.
///
/// Shared by reference across campaign workers; the manifest handle is
/// the only mutable state and is mutex-guarded.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    manifest: Mutex<File>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        fs::create_dir_all(dir.join("cells"))?;
        let manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("manifest.log"))?;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            manifest: Mutex::new(manifest),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when the directory already holds a store (manifest exists):
    /// the `--resume` precondition.
    pub fn exists(dir: &Path) -> bool {
        dir.join("manifest.log").is_file()
    }

    /// Path of the record addressed by `digest`.
    pub fn record_path(&self, digest: u64) -> PathBuf {
        self.dir.join("cells").join(format!("{digest:016x}.cell"))
    }

    /// Number of records in the store (a directory scan; diagnostics
    /// and tests only).
    pub fn record_count(&self) -> usize {
        fs::read_dir(self.dir.join("cells"))
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Probes the store for `cell` under `spec`. A hit is parsed and
    /// verified — the stored identity must equal the recomputed one —
    /// and rebuilt into a full [`CellResult`]. Any mismatch, parse
    /// failure or I/O error degrades to a miss (`None`).
    pub fn load(&self, spec: &SweepSpec, cell: &Cell, run_cap: Option<u32>) -> Option<CellResult> {
        let identity = cell_identity(spec, cell, run_cap);
        let path = self.record_path(digest(&identity));
        let text = fs::read_to_string(path).ok()?;
        decode_record(&text, &identity, spec, cell).ok()
    }

    /// Streams one finished cell to disk: the record is written to a
    /// temp file, fsync'd, atomically renamed to its content address,
    /// and journaled in the manifest (also fsync'd). A crash between
    /// cells therefore loses nothing; a crash mid-cell loses only that
    /// cell's in-flight record.
    pub fn save(
        &self,
        spec: &SweepSpec,
        cell: &Cell,
        run_cap: Option<u32>,
        result: &CellResult,
    ) -> io::Result<()> {
        let identity = cell_identity(spec, cell, run_cap);
        let d = digest(&identity);
        let record = encode_record(&identity, result);
        let tmp = self
            .dir
            .join("cells")
            .join(format!(".tmp-{d:016x}-{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(record.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.record_path(d))?;
        let mut manifest = self.manifest.lock().expect("manifest lock");
        writeln!(manifest, "{d:016x} {}", cell.key())?;
        manifest.sync_data()?;
        Ok(())
    }
}

/// Formats an `Option` scalar as its value or `-`.
fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |x| x.to_string())
}

/// Serializes a [`CellResult`] plus its identity into record text.
///
/// Derived fields (summary, coverage) are omitted: the decoder
/// recomputes them with the same pure functions the live path uses,
/// which keeps the format small and the round-trip honest. Metrics
/// snapshots are never present (the store refuses metrics campaigns).
fn encode_record(identity: &str, r: &CellResult) -> String {
    let mut out = String::with_capacity(256);
    let _ = writeln!(out, "{RECORD_HEADER}");
    let _ = writeln!(out, "identity {identity}");
    let _ = writeln!(out, "key {}", r.cell.key());
    let _ = writeln!(out, "seed {}", r.seed);
    let _ = writeln!(out, "runs {}", r.runs);
    let _ = writeln!(out, "verdict {}", r.verdict.label());
    let _ = writeln!(out, "errors {}", r.errors);
    let _ = writeln!(out, "hit_ratio {}", opt(r.hit_ratio));
    let samples: Vec<String> = r.samples.iter().map(f64::to_string).collect();
    let _ = writeln!(out, "samples {}", samples.join(" "));
    match r.ci {
        Some(ci) => {
            let _ = writeln!(out, "ci {} {} {}", ci.lo, ci.point, ci.hi);
        }
        None => {
            let _ = writeln!(out, "ci -");
        }
    }
    if let Some(open) = &r.open_loop {
        let _ = writeln!(
            out,
            "open {} {} {} {} {} {}",
            open.offered,
            open.dropped,
            opt(open.p50.map(Nanos::as_nanos)),
            opt(open.p99.map(Nanos::as_nanos)),
            opt(open.p999.map(Nanos::as_nanos)),
            opt(open.slo_max_rate),
        );
    }
    if let Some(l) = &r.ledger {
        let _ = writeln!(
            out,
            "ledger {} {} {} {} {} {} {}",
            l.attempted,
            l.succeeded,
            l.retried_ok,
            l.gave_up,
            l.dropped,
            l.retries,
            l.degraded.as_nanos(),
        );
        if let Some(c) = &l.crash {
            let _ = writeln!(
                out,
                "crash {} {} {} {} {}",
                c.at.as_nanos(),
                c.mechanism,
                c.recovery.as_nanos(),
                c.lost_dirty_pages,
                c.consistent,
            );
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// One parse failure mode; every variant degrades to a cache miss.
fn bad(msg: &str) -> SimError {
    SimError::BadConfig(format!("store record: {msg}"))
}

fn parse_field<T: std::str::FromStr>(s: &str, what: &str) -> SimResult<T> {
    s.parse().map_err(|_| bad(&format!("bad {what} `{s}`")))
}

fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> SimResult<Option<T>> {
    if s == "-" {
        Ok(None)
    } else {
        parse_field(s, what).map(Some)
    }
}

/// Parses and verifies record text back into a [`CellResult`].
///
/// `expect_identity` is the recomputed identity for the probing
/// campaign; a stored identity that differs (salt bump, spec drift, a
/// hash collision, tampering) is rejected. Summary and coverage are
/// rebuilt from the parsed samples and the live spec, so a loaded
/// result is indistinguishable from an executed one.
fn decode_record(
    text: &str,
    expect_identity: &str,
    spec: &SweepSpec,
    cell: &Cell,
) -> SimResult<CellResult> {
    let mut lines = text.lines();
    if lines.next() != Some(RECORD_HEADER) {
        return Err(bad("unknown header"));
    }
    let mut identity = None;
    let mut seed = None;
    let mut runs = None;
    let mut verdict = None;
    let mut errors = None;
    let mut hit_ratio = None;
    let mut samples: Option<Vec<f64>> = None;
    let mut ci = None;
    let mut open_loop = None;
    let mut ledger: Option<rb_faults::OutcomeLedger> = None;
    let mut key = None;
    let mut ended = false;
    for line in lines {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "identity" => identity = Some(rest.to_string()),
            "key" => key = Some(rest.to_string()),
            "seed" => seed = Some(parse_field(rest, "seed")?),
            "runs" => runs = Some(parse_field(rest, "runs")?),
            "verdict" => {
                verdict = Some(Verdict::parse(rest).ok_or_else(|| bad("unknown verdict"))?)
            }
            "errors" => errors = Some(parse_field(rest, "errors")?),
            "hit_ratio" => hit_ratio = Some(parse_opt(rest, "hit ratio")?),
            "samples" => {
                samples = Some(
                    rest.split_whitespace()
                        .map(|s| parse_field(s, "sample"))
                        .collect::<SimResult<Vec<f64>>>()?,
                )
            }
            "ci" => {
                ci = Some(if rest == "-" {
                    None
                } else {
                    let mut it = rest.split_whitespace();
                    let mut next = |what| {
                        it.next()
                            .ok_or_else(|| bad(&format!("truncated ci ({what})")))
                            .and_then(|s| parse_field(s, what))
                    };
                    Some(Interval {
                        lo: next("ci lo")?,
                        point: next("ci point")?,
                        hi: next("ci hi")?,
                    })
                })
            }
            "open" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() != 6 {
                    return Err(bad("open line needs 6 fields"));
                }
                open_loop = Some(OpenCellStats {
                    offered: parse_field(f[0], "offered")?,
                    dropped: parse_field(f[1], "dropped")?,
                    p50: parse_opt(f[2], "p50")?.map(Nanos::from_nanos),
                    p99: parse_opt(f[3], "p99")?.map(Nanos::from_nanos),
                    p999: parse_opt(f[4], "p999")?.map(Nanos::from_nanos),
                    slo_max_rate: parse_opt(f[5], "slo rate")?,
                });
            }
            "ledger" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() != 7 {
                    return Err(bad("ledger line needs 7 fields"));
                }
                ledger = Some(rb_faults::OutcomeLedger {
                    attempted: parse_field(f[0], "attempted")?,
                    succeeded: parse_field(f[1], "succeeded")?,
                    retried_ok: parse_field(f[2], "retried_ok")?,
                    gave_up: parse_field(f[3], "gave_up")?,
                    dropped: parse_field(f[4], "dropped")?,
                    retries: parse_field(f[5], "retries")?,
                    degraded: Nanos::from_nanos(parse_field(f[6], "degraded")?),
                    crash: None,
                });
            }
            "crash" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() != 5 {
                    return Err(bad("crash line needs 5 fields"));
                }
                // `mechanism` is a &'static str on the live type; map
                // the stored label back onto the known constants.
                let mechanism = match f[1] {
                    "journal-replay" => "journal-replay",
                    "fsck-scan" => "fsck-scan",
                    other => return Err(bad(&format!("unknown recovery mechanism `{other}`"))),
                };
                let l = ledger
                    .as_mut()
                    .ok_or_else(|| bad("crash line before ledger"))?;
                l.crash = Some(rb_faults::CrashReport {
                    at: Nanos::from_nanos(parse_field(f[0], "crash at")?),
                    mechanism,
                    recovery: Nanos::from_nanos(parse_field(f[2], "recovery")?),
                    lost_dirty_pages: parse_field(f[3], "lost pages")?,
                    consistent: parse_field(f[4], "consistent")?,
                });
            }
            "end" => ended = true,
            _ => return Err(bad(&format!("unknown tag `{tag}`"))),
        }
    }
    if !ended {
        return Err(bad("truncated record (no end marker)"));
    }
    if identity.as_deref() != Some(expect_identity) {
        return Err(bad("identity mismatch"));
    }
    if key.as_deref() != Some(cell.key().as_str()) {
        return Err(bad("key mismatch"));
    }
    let samples = samples.ok_or_else(|| bad("missing samples"))?;
    let summary = Summary::from_sample(&samples).ok_or_else(|| bad("empty sample"))?;
    Ok(CellResult {
        cell: cell.clone(),
        coverage: cell_coverage(spec, cell)?,
        seed: seed.ok_or_else(|| bad("missing seed"))?,
        samples,
        summary,
        ci: ci.ok_or_else(|| bad("missing ci"))?,
        verdict: verdict.ok_or_else(|| bad("missing verdict"))?,
        runs: runs.ok_or_else(|| bad("missing runs"))?,
        hit_ratio: hit_ratio.ok_or_else(|| bad("missing hit ratio"))?,
        errors: errors.ok_or_else(|| bad("missing errors"))?,
        open_loop,
        metrics: None,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_cell;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rb-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        use crate::runner::RunPlan;
        let mut plan = RunPlan::quick(7);
        plan.duration = Nanos::from_millis(300);
        plan.window = Nanos::from_millis(50);
        SweepSpec {
            name: "store-tiny".into(),
            file_sizes: vec![rb_simcore::units::Bytes::mib(8)],
            plan,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn identity_is_deterministic_and_salted() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let a = cell_identity(&spec, cell, None);
        let b = cell_identity(&spec, cell, None);
        assert_eq!(a, b);
        assert!(a.contains(CODE_SALT));
        assert!(a.contains(&cell.key()));
        // A different campaign seed is a different identity.
        let mut other = tiny_spec();
        other.plan.base_seed = 8;
        assert_ne!(a, cell_identity(&other, &other.expand()[0], None));
        // So is a run cap.
        assert_ne!(a, cell_identity(&spec, cell, Some(3)));
    }

    #[test]
    fn record_round_trips_exactly() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let live = run_cell(&spec, cell, None).expect("cell runs");
        let identity = cell_identity(&spec, cell, None);
        let text = encode_record(&identity, &live);
        let back = decode_record(&text, &identity, &spec, cell).expect("decodes");
        assert_eq!(back.samples, live.samples);
        assert_eq!(back.seed, live.seed);
        assert_eq!(back.runs, live.runs);
        assert_eq!(back.verdict, live.verdict);
        assert_eq!(back.errors, live.errors);
        assert_eq!(back.hit_ratio, live.hit_ratio);
        assert_eq!(back.summary.mean, live.summary.mean);
        assert_eq!(back.ci.map(|c| (c.lo, c.hi)), live.ci.map(|c| (c.lo, c.hi)));
        assert_eq!(back.coverage, live.coverage);
        assert_eq!(back.open_loop, live.open_loop);
        assert_eq!(back.ledger, live.ledger);
    }

    #[test]
    fn store_save_then_load_hits() {
        let dir = tmpdir("hit");
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let store = ResultStore::open(&dir).expect("open");
        assert!(store.load(&spec, cell, None).is_none(), "cold store misses");
        let live = run_cell(&spec, cell, None).expect("cell runs");
        store.save(&spec, cell, None, &live).expect("save");
        let hit = store.load(&spec, cell, None).expect("warm store hits");
        assert_eq!(hit.samples, live.samples);
        assert_eq!(store.record_count(), 1);
        assert!(ResultStore::exists(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_record_degrades_to_miss() {
        let dir = tmpdir("tamper");
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let store = ResultStore::open(&dir).expect("open");
        let live = run_cell(&spec, cell, None).expect("cell runs");
        store.save(&spec, cell, None, &live).expect("save");
        // Rewrite the record with a foreign identity at the same
        // address: verification must reject it.
        let path = store.record_path(digest(&cell_identity(&spec, cell, None)));
        let forged = encode_record("salt=other;cell=whatever", &live);
        fs::write(&path, forged).expect("forge");
        assert!(store.load(&spec, cell, None).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
