//! The `campaign-sweep` workload: one grid run cold into a fresh
//! result store, then warm from it, through `run_campaign_with`.

use rb_core::campaign::{
    run_campaign_with, CampaignOptions, CampaignRun, CellWorkload, Personality, StoreOptions,
    SweepSpec, TraceSource,
};
use rb_core::runner::{Protocol, RunPlan};
use rb_core::sched::Arrival;
use rb_core::store::ResultStore;
use rb_core::testbed::FsKind;
use rb_core::trace::{Timing, Trace};
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use std::path::Path;
use std::time::{Duration, Instant};

/// The trace the grid's replay cells run.
const GOLDEN_V2: &str = include_str!("../../examples/golden_v2.trace");

/// The grid: personality × fs × cache × processes × arrival (closed
/// plus a Poisson ladder, so the open-loop path runs), plus the golden
/// v2 trace replayed on every fs × cache: 52 cells. Each is one fixed
/// run of one simulated second, long enough that simulation, not the
/// fsync of its store record (0.2-1 ms on a shared VM disk), dominates
/// a cell's host time. `small` shrinks it
/// for tests.
pub fn grid(small: bool) -> SweepSpec {
    let trace = Trace::from_text(GOLDEN_V2).expect("the committed golden v2 trace parses");
    let mut plan = RunPlan::quick(0);
    plan.protocol = Protocol::FixedRuns(1);
    plan.duration = Nanos::from_secs(1);
    plan.window = plan.duration;
    let mut arrivals = vec![Arrival::Closed];
    arrivals.extend(Arrival::parse_axis("poisson:250..500x2").expect("ladder parses"));
    let mut spec = SweepSpec {
        name: "benchmark-campaign-sweep".into(),
        personalities: vec![Personality::RandomRead, Personality::Fileserver],
        traces: vec![TraceSource::new("golden_v2", trace, Timing::Afap)],
        file_sizes: vec![Bytes::mib(8)],
        file_counts: vec![25],
        filesystems: vec![FsKind::Ext2, FsKind::Xfs],
        cache_capacities: vec![Bytes::mib(4), Bytes::mib(16)],
        processes: vec![1, 4],
        arrivals,
        plan,
        device: Bytes::mib(512),
        ..SweepSpec::default()
    };
    if small {
        spec.plan.duration = Nanos::from_millis(100);
        spec.plan.window = spec.plan.duration;
        spec.filesystems.truncate(1);
        spec.cache_capacities.truncate(1);
        spec.arrivals.truncate(2);
    }
    spec
}

/// Host times the traced pass measures from outside the campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassLayers {
    /// `SweepSpec::expand`.
    pub expand: Duration,
    /// Rendering the warm report as CSV.
    pub report: Duration,
    /// Summed `ResultStore::load` over every cell.
    pub load: Duration,
    /// Loads attempted.
    pub loads: u64,
    /// Loads that found no valid record (must be 0).
    pub misses: u64,
    /// Bytes of the store's cell records.
    pub record_bytes: u64,
    /// Cell records in the store.
    pub records: u64,
}

/// What one pass (cold run plus `warm` warm runs) produced and cost.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Host time of spec expansion and opening the populated store.
    pub setup: Duration,
    /// Host time of the cold run.
    pub cold: Duration,
    /// Host time of each warm run.
    pub warm: Vec<Duration>,
    /// Cells in the grid.
    pub cells: u64,
    /// Simulated ops the cold run executed: each personality run's
    /// throughput times its simulated duration (one window, so this is
    /// its op count), plus runs × length for trace cells.
    pub sim_ops: u64,
    /// FNV-1a of the cold report's CSV bytes.
    pub digest: u64,
    /// Outside-in layer timings, for traced passes.
    pub layers: Option<PassLayers>,
}

fn check(run: &CampaignRun, cached: usize, executed: usize) -> Result<(), String> {
    let s = run.stats;
    if s.expanded != s.cached + s.executed {
        return Err(format!("conservation broken: {s:?}"));
    }
    if (s.cached, s.executed) != (cached, executed) {
        return Err(format!(
            "expected cached={cached} executed={executed}, got {s:?}"
        ));
    }
    Ok(())
}

/// Runs the grid at campaign seed `seed` cold into a fresh store at
/// `dir`, then `warm` times warm, checking conservation, zero warm
/// executions and warm CSV == cold CSV. The store is removed
/// afterwards.
pub fn run_pass(
    base: &SweepSpec,
    seed: u64,
    warm: usize,
    jobs: usize,
    dir: &Path,
    traced: bool,
) -> Result<PassOutput, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let mut spec = base.clone();
    spec.plan.base_seed = seed;
    let result = pass(&spec, warm, jobs, dir, traced);
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn pass(
    spec: &SweepSpec,
    warm: usize,
    jobs: usize,
    dir: &Path,
    traced: bool,
) -> Result<PassOutput, String> {
    let opts = CampaignOptions {
        store: Some(StoreOptions::at(dir)),
    };
    let t = Instant::now();
    let cold = run_campaign_with(spec, jobs, &opts).map_err(|e| format!("cold run: {e}"))?;
    let cold_time = t.elapsed();
    let n = cold.stats.expanded;
    check(&cold, 0, n).map_err(|e| format!("cold run: {e}"))?;
    let csv = cold.report.to_csv();

    // Set-up as a warm rerun pays it: expand the spec, open the
    // populated store. (Creating a fresh store directory is part of the
    // cold run, which opens it itself.)
    let t = Instant::now();
    let cells = spec.expand();
    ResultStore::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let setup = t.elapsed();
    if cells.len() != n {
        return Err(format!("expanded {} cells, the cold run {n}", cells.len()));
    }

    let mut warm_times = Vec::with_capacity(warm);
    let mut last = None;
    for _ in 0..warm {
        let t = Instant::now();
        let run = run_campaign_with(spec, jobs, &opts).map_err(|e| format!("warm run: {e}"))?;
        warm_times.push(t.elapsed());
        check(&run, n, 0).map_err(|e| format!("warm run: {e}"))?;
        last = Some(run);
    }
    let warm_report = last.map_or_else(|| cold.report.clone(), |run| run.report);

    let layers = if traced {
        let t = Instant::now();
        let expanded = spec.expand();
        let expand = t.elapsed();
        let t = Instant::now();
        let warm_csv = warm_report.to_csv();
        let report = t.elapsed();
        if warm_csv != csv {
            return Err("warm CSV differs from cold CSV".into());
        }
        let store =
            ResultStore::open(dir).map_err(|e| format!("cannot reopen {}: {e}", dir.display()))?;
        let mut layers = PassLayers {
            expand,
            report,
            ..PassLayers::default()
        };
        for cell in &expanded {
            let t = Instant::now();
            let hit = store.load(spec, cell, None).is_some();
            layers.load += t.elapsed();
            layers.loads += 1;
            layers.misses += u64::from(!hit);
        }
        let entries = std::fs::read_dir(dir.join("cells"))
            .map_err(|e| format!("cannot list store records: {e}"))?;
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| format!("cannot stat store record: {e}"))?;
            layers.records += 1;
            layers.record_bytes += meta.len();
        }
        Some(layers)
    } else {
        if warm_report.to_csv() != csv {
            return Err("warm CSV differs from cold CSV".into());
        }
        None
    };

    let trace_ops: Vec<u64> = spec.traces.iter().map(|t| t.trace.len() as u64).collect();
    let secs = spec.plan.duration.as_secs_f64();
    let sim_ops = cold
        .report
        .cells
        .iter()
        .map(|c| match &c.cell.workload {
            CellWorkload::Trace { index, .. } => u64::from(c.runs) * trace_ops[*index],
            CellWorkload::Personality(_) => {
                c.samples.iter().map(|s| (s * secs).round() as u64).sum()
            }
        })
        .sum();

    Ok(PassOutput {
        setup,
        cold: cold_time,
        warm: warm_times,
        cells: n as u64,
        sim_ops,
        digest: fnv1a(FNV_OFFSET, csv.as_bytes()),
        layers,
    })
}
