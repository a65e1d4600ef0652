//! rb-benchmark: runs one workload for `--seconds` of host time and
//! prints every metric by name and unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the traced measurement and
//! prints the per-layer metrics. Every run checks a digest of its
//! simulated outputs against the first run of the same seed (and, when
//! traced, against the untraced run); a mismatch or an error counts as
//! a failed run and makes the exit code non-zero.
//!
//! Usage: `cargo run --release --manifest-path benchmark/Cargo.toml --
//! --workload NAME --seed N [--seconds S] [--trace 0|1]`

use rb_benchmark::engine::{run_once, EngineSpec, RunOutput};
use rb_benchmark::speed::HostSpeed;
use rb_benchmark::sweep::{self, PassLayers, PassOutput};
use rb_benchmark::trace::{Layer, Name, TimerCost, Tracer};
use rb_benchmark::{parse_args, Args, WorkloadName, USAGE};
use rb_core::campaign::derive_seed;
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Runs per execution, at least: ten samples lie beyond the p90.
const MIN_RUNS: usize = 100;
/// Distinct seeds of the engine workloads; passes repeat them.
const ENGINE_SEEDS: usize = 20;
/// Distinct campaign seeds; passes repeat them. The simulated work of
/// one cold run varies by ~9% between campaign seeds, so averaging
/// over 25 keeps that out of the spread between executions.
const CAMPAIGN_SEEDS: usize = 25;
/// Warm runs after each cold campaign run: one warm run takes about a
/// millisecond, too short to time on its own.
const WARM_RUNS: usize = 20;
/// Span records kept in memory and written out.
const SPAN_CAP: usize = 1 << 16;
/// Worker threads of the campaign. One worker still runs the pool
/// machinery; a second thread would run on the other vCPU of a 2-vCPU
/// host, where the single-threaded reference kernel cannot see its
/// slow-downs, and made the per-thread allocator arenas (and so the
/// peak RSS) vary between executions.
const CAMPAIGN_JOBS: usize = 1;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `host`, `simulated`, or `n/a` for a metric that does not apply
    /// to the workload (printed as 0).
    base: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str, base: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base,
    }
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Per-seed digest of the first run; later runs must match it.
struct Digests(Vec<Option<u64>>);

impl Digests {
    fn new(n: usize) -> Digests {
        Digests(vec![None; n])
    }

    fn check(&mut self, i: usize, digest: u64) -> bool {
        *self.0[i].get_or_insert(digest) == digest
    }

    fn combined(&self) -> u64 {
        self.0
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.unwrap_or(0).to_le_bytes()))
    }
}

/// What [`passes`] did.
struct Passes {
    attempted: u64,
    failed: u64,
    /// Peak RSS (MiB) at the end of the first pass: what one run of
    /// every seed needs. Printed, not a metric: on `campaign-sweep` it
    /// is bimodal (~10 or ~13 MiB) between identical executions.
    rss_mib: f64,
}

/// Runs `one(i)` for every seed index, pass after pass, until at least
/// `min_runs` runs are done and `budget` has elapsed. `one` returns
/// whether its run was correct.
fn passes(
    seeds: usize,
    budget: Duration,
    min_runs: usize,
    mut one: impl FnMut(usize) -> bool,
) -> Passes {
    let start = Instant::now();
    let min_passes = min_runs.div_ceil(seeds).max(1);
    let mut done = Passes {
        attempted: 0,
        failed: 0,
        rss_mib: 0.0,
    };
    for pass in 1.. {
        for i in 0..seeds {
            done.attempted += 1;
            done.failed += u64::from(!one(i));
        }
        if pass == 1 {
            done.rss_mib = peak_rss_mib();
        }
        if pass >= min_passes && start.elapsed() >= budget {
            break;
        }
    }
    done
}

fn seeds(args: &Args, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| derive_seed(args.seed, &format!("{}/{i}", args.workload.name())))
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Linear-interpolation percentile of an ascending sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics shared by every workload, from per-run
/// samples: `setup` and `run` in seconds, one entry per run.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    report: &mut Report,
    rss_mib: f64,
    setup: &[f64],
    run: &[f64],
    sim_ops: f64,
    cold_cells: f64,
    cold_secs: f64,
    warm_cells: f64,
    warm_secs: f64,
) {
    let run_ms = sorted(run.iter().map(|s| s * 1e3).collect());
    let run_secs: f64 = run.iter().sum();
    let beyond = run_ms.len() - 1 - (0.9 * (run_ms.len() - 1) as f64).floor() as usize;
    report.notes.push(format!(
        "samples: {} runs, {} beyond p90",
        run_ms.len(),
        beyond
    ));
    report.notes.push(format!(
        "peak RSS (VmHWM) after the first pass over the seeds: {rss_mib:.1} MiB"
    ));
    let ok = 1.0 - ratio(report.failed as f64, report.attempted as f64);
    report.metrics.extend([
        m(
            "setup_s",
            percentile(&sorted(setup.to_vec()), 0.5),
            "s",
            "host",
        ),
        m("sim_ops_per_s", ratio(sim_ops, run_secs), "ops/s", "host"),
        m("run_ms_p50", percentile(&run_ms, 0.5), "ms", "host"),
        m("run_ms_p90", percentile(&run_ms, 0.9), "ms", "host"),
        m(
            "cold_cells_per_s",
            ratio(cold_cells, cold_secs),
            "cells/s",
            "host",
        ),
        m(
            "warm_cells_per_s",
            ratio(warm_cells, warm_secs),
            "cells/s",
            "host",
        ),
        m("ok_ratio", ok, "ratio", "host"),
    ]);
}

/// Sums over the runs of an engine workload.
#[derive(Default)]
struct Sums {
    runs: u64,
    ops: u64,
    errors: u64,
    run_secs: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writeback_pages: u64,
    prefetched: u64,
    prefetch_hits: u64,
    allocations: u64,
    disk_requests: u64,
    disk_busy_ns: u64,
    sim_ns: u64,
}

impl Sums {
    /// Adds a run whose host times are scaled by `speed`.
    fn add(&mut self, r: &RunOutput, speed: f64) {
        self.runs += 1;
        self.ops += r.ops;
        self.errors += r.errors;
        self.run_secs += r.run.as_secs_f64() * speed;
        self.hits += r.cache.hits;
        self.misses += r.cache.misses;
        self.evictions += r.cache.evicted_clean + r.cache.evicted_dirty;
        self.writeback_pages += r.cache.evicted_dirty + r.cache.writeback_flushed;
        self.prefetched += r.cache.prefetched;
        self.prefetch_hits += r.cache.prefetch_hits;
        self.allocations += r.stack.allocations;
        self.disk_requests += r.disk_requests;
        self.disk_busy_ns += r.disk_busy.as_nanos();
        self.sim_ns += r.sim_duration.as_nanos();
    }

    fn per_op(&self, n: u64) -> f64 {
        ratio(n as f64, self.ops as f64)
    }

    fn ops_per_sec(&self) -> f64 {
        ratio(self.ops as f64, self.run_secs)
    }

    fn mix_notes(&self, notes: &mut Vec<String>) {
        notes.push(format!(
            "mix (simulated): hit ratio {:.4}, disk requests/op {:.4}, errors/op {:.6}, ops/run {:.1}",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
            self.per_op(self.disk_requests),
            self.per_op(self.errors),
            ratio(self.ops as f64, self.runs as f64),
        ));
    }
}

fn run_engine(spec: &EngineSpec, seed: u64, tracer: Option<&Rc<Tracer>>) -> Option<RunOutput> {
    run_once(spec, seed, tracer)
        .map_err(|e| eprintln!("rb-benchmark: run with seed {seed} failed: {e}"))
        .ok()
}

fn engine_end_to_end(spec: &EngineSpec, args: &Args) -> Report {
    let seeds = seeds(args, ENGINE_SEEDS);
    let mut digests = Digests::new(seeds.len());
    let mut sums = Sums::default();
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut speed = HostSpeed::new();
    let done = passes(
        seeds.len(),
        Duration::from_secs(args.seconds),
        MIN_RUNS,
        |i| {
            let out = run_engine(spec, seeds[i], None);
            let f = speed.factor();
            match out {
                Some(r) => {
                    setup.push(r.setup.as_secs_f64() * f);
                    run.push(r.run.as_secs_f64() * f);
                    sums.add(&r, f);
                    digests.check(i, r.digest)
                }
                None => false,
            }
        },
    );
    let mut report = Report {
        attempted: done.attempted,
        failed: done.failed,
        ..Report::default()
    };
    let cells = run.len() as f64;
    let cold_secs = setup.iter().sum::<f64>() + sums.run_secs;
    end_to_end(
        &mut report,
        done.rss_mib,
        &setup,
        &run,
        sums.ops as f64,
        cells,
        cold_secs,
        cells,
        sums.run_secs,
    );
    sums.mix_notes(&mut report.notes);
    speed_note(&speed, &mut report);
    report
        .notes
        .push(format!("digest: {:016x}", digests.combined()));
    report
}

fn speed_note(speed: &HostSpeed, report: &mut Report) {
    let f = percentile(&sorted(speed.factors().to_vec()), 0.5);
    report.notes.push(format!(
        "host speed: median normalisation factor {f:.3} (raw host time = normalised / factor)"
    ));
}

fn engine_traced(spec: &EngineSpec, args: &Args) -> Report {
    let start = Instant::now();
    let cost = TimerCost::calibrate(100_000, 5);
    let seeds = seeds(args, ENGINE_SEEDS);
    let mut digests = Digests::new(seeds.len());

    // Untraced and traced runs of each seed alternate: the traced run
    // must reproduce the untraced digest, and the untraced throughput
    // sizes the tracing overhead under the same host conditions.
    let tracer = Rc::new(Tracer::new(SPAN_CAP));
    let (mut untraced, mut sums) = (Sums::default(), Sums::default());
    let budget = Duration::from_secs(args.seconds).saturating_sub(start.elapsed());
    let done = passes(2 * seeds.len(), budget, 2 * seeds.len(), |j| {
        let traced = j % 2 == 1;
        match run_engine(spec, seeds[j / 2], traced.then_some(&tracer)) {
            Some(r) => {
                if traced { &mut sums } else { &mut untraced }.add(&r, 1.0);
                digests.check(j / 2, r.digest)
            }
            None => false,
        }
    });
    let mut report = Report {
        attempted: done.attempted,
        failed: done.failed,
        ..Report::default()
    };
    engine_layer_metrics(&mut report, Some((&tracer, &sums, &cost)));
    campaign_layer_metrics(&mut report, None);
    report.metrics.extend([
        m("trace.span_ns", cost.span_ns, "ns", "host"),
        m(
            "trace.overhead_ratio",
            ratio(untraced.ops_per_sec(), sums.ops_per_sec()),
            "ratio",
            "host",
        ),
    ]);

    let (run, stack, fs, disk) = (
        tracer.layer(Layer::Workload),
        tracer.layer(Layer::Stack),
        tracer.layer(Layer::Simfs),
        tracer.layer(Layer::Simdisk),
    );
    sums.mix_notes(&mut report.notes);
    report.notes.push(format!(
        "timer: empty span {:.1} ns, of which {:.1} ns inside the span; simdisk net {:.1} ns/request",
        cost.span_ns,
        cost.inside_ns,
        ratio(cost.net_self_ns(disk), disk.calls as f64)
    ));
    report.notes.push(format!(
        "traced runs: {}, spans: workload {} stack {} simfs {} simdisk {}",
        sums.runs, run.calls, stack.calls, fs.calls, disk.calls
    ));
    write_spans(&tracer, args, &mut report);
    report
        .notes
        .push(format!("digest: {:016x}", digests.combined()));
    report
}

fn write_spans(tracer: &Tracer, args: &Args, report: &mut Report) {
    let path = out_dir().join(format!("{}.spans.tsv", args.workload.name()));
    let (kept, dropped) = tracer.recorded();
    match tracer.write_spans(&path) {
        Ok(()) => report.notes.push(format!(
            "spans: {kept} written to {}, {dropped} beyond the buffer not kept",
            path.display()
        )),
        Err(e) => eprintln!("rb-benchmark: cannot write {}: {e}", path.display()),
    }
}

/// The campaign-layer metrics; zero (n/a) on the engine workloads.
fn campaign_layer_metrics(report: &mut Report, layers: Option<&[PassLayers]>) {
    let base = if layers.is_some() { "host" } else { "n/a" };
    let layers = layers.unwrap_or(&[]);
    let median_ms = |f: fn(&PassLayers) -> Duration| {
        percentile(
            &sorted(layers.iter().map(|l| f(l).as_secs_f64() * 1e3).collect()),
            0.5,
        )
    };
    let sum = |f: fn(&PassLayers) -> u64| layers.iter().map(f).sum::<u64>() as f64;
    let load_secs: f64 = layers.iter().map(|l| l.load.as_secs_f64()).sum();
    report.metrics.extend([
        m("campaign.expand_ms", median_ms(|l| l.expand), "ms", base),
        m("campaign.report_ms", median_ms(|l| l.report), "ms", base),
        m(
            "store.load_us_per_record",
            ratio(load_secs * 1e6, sum(|l| l.loads)),
            "us/record",
            base,
        ),
        m(
            "store.bytes_per_record",
            ratio(sum(|l| l.record_bytes), sum(|l| l.records)),
            "B/record",
            base,
        ),
        m("store.load_misses", sum(|l| l.misses), "count", base),
    ]);
}

/// The engine-layer metrics from a traced run; zero (n/a) on the
/// campaign workload.
fn engine_layer_metrics(report: &mut Report, traced: Option<(&Tracer, &Sums, &TimerCost)>) {
    let base = |b: &'static str| if traced.is_some() { b } else { "n/a" };
    let (host, sim) = (base("host"), base("simulated"));
    let empty = (Tracer::new(0), Sums::default(), TimerCost::default());
    let (tracer, sums, cost) = traced.unwrap_or((&empty.0, &empty.1, &empty.2));
    let run = tracer.layer(Layer::Workload);
    let stack = tracer.layer(Layer::Stack);
    let fs = tracer.layer(Layer::Simfs);
    let disk = tracer.layer(Layer::Simdisk);
    let ops = sums.ops as f64;
    let per_op_ns = |ns: f64| ratio(ns, ops);
    let per_call = |name: Name| {
        let acc = tracer.site(name);
        ratio(acc.total_ns as f64, acc.calls as f64)
    };
    report.metrics.extend([
        m(
            "workload.self_ns_per_op",
            per_op_ns(run.self_ns as f64),
            "ns/op",
            host,
        ),
        m(
            "workload.self_ns_per_op_net",
            per_op_ns(cost.net_self_ns(run)),
            "ns/op",
            host,
        ),
        m(
            "workload.sim_errors_per_op",
            sums.per_op(sums.errors),
            "count/op",
            sim,
        ),
        m(
            "stack.calls_per_op",
            sums.per_op(stack.calls),
            "count/op",
            host,
        ),
        m(
            "stack.self_ns_per_op",
            per_op_ns(stack.self_ns as f64),
            "ns/op",
            host,
        ),
        m(
            "stack.self_ns_per_op_net",
            per_op_ns(cost.net_self_ns(stack)),
            "ns/op",
            host,
        ),
        m(
            "stack.allocations_per_op",
            sums.per_op(sums.allocations),
            "count/op",
            sim,
        ),
        m(
            "simcache.hit_ratio",
            ratio(sums.hits as f64, (sums.hits + sums.misses) as f64),
            "ratio",
            sim,
        ),
        m(
            "simcache.evictions_per_op",
            sums.per_op(sums.evictions),
            "pages/op",
            sim,
        ),
        m(
            "simcache.writeback_pages_per_op",
            sums.per_op(sums.writeback_pages),
            "pages/op",
            sim,
        ),
        m(
            "simcache.prefetch_useful_ratio",
            ratio(sums.prefetch_hits as f64, sums.prefetched as f64),
            "ratio",
            sim,
        ),
        m(
            "simfs.calls_per_op",
            sums.per_op(fs.calls),
            "count/op",
            host,
        ),
        m(
            "simfs.self_ns_per_op",
            per_op_ns(fs.self_ns as f64),
            "ns/op",
            host,
        ),
        m(
            "simfs.self_ns_per_op_net",
            per_op_ns(cost.net_self_ns(fs)),
            "ns/op",
            host,
        ),
        m(
            "simfs.set_size_ns_per_call",
            per_call(Name::FsSetSize),
            "ns/call",
            host,
        ),
        m(
            "simfs.lookup_ns_per_call",
            per_call(Name::FsLookup),
            "ns/call",
            host,
        ),
        m(
            "simfs.map_ns_per_call",
            per_call(Name::FsMap),
            "ns/call",
            host,
        ),
        m(
            "simdisk.requests_per_op",
            sums.per_op(sums.disk_requests),
            "count/op",
            sim,
        ),
        m(
            "simdisk.ns_per_request",
            ratio(disk.self_ns as f64, disk.calls as f64),
            "ns/request",
            host,
        ),
        m(
            "simdisk.busy_share",
            ratio(sums.disk_busy_ns as f64, sums.sim_ns as f64),
            "ratio",
            sim,
        ),
    ]);
}

fn campaign_pass(
    base: &rb_core::campaign::SweepSpec,
    seeds: &[u64],
    i: usize,
    traced: bool,
) -> Option<PassOutput> {
    let dir = out_dir().join(format!("store-{}", std::process::id()));
    sweep::run_pass(base, seeds[i], WARM_RUNS, CAMPAIGN_JOBS, &dir, traced)
        .map_err(|e| eprintln!("rb-benchmark: campaign seed {} failed: {e}", seeds[i]))
        .ok()
}

fn campaign_end_to_end(args: &Args) -> Report {
    let base = sweep::grid(false);
    let seeds = seeds(args, CAMPAIGN_SEEDS);
    let mut digests = Digests::new(seeds.len());
    let mut out: Vec<PassOutput> = Vec::new();
    let mut speed = HostSpeed::new();
    let done = passes(
        seeds.len(),
        Duration::from_secs(args.seconds),
        MIN_RUNS,
        |i| {
            let pass = campaign_pass(&base, &seeds, i, false);
            let f = speed.factor();
            match pass {
                Some(mut p) => {
                    p.setup = p.setup.mul_f64(f);
                    p.cold = p.cold.mul_f64(f);
                    p.warm.iter_mut().for_each(|w| *w = w.mul_f64(f));
                    let ok = digests.check(i, p.digest);
                    out.push(p);
                    ok
                }
                None => false,
            }
        },
    );
    let mut report = Report {
        attempted: done.attempted,
        failed: done.failed,
        ..Report::default()
    };
    let setup: Vec<f64> = out.iter().map(|p| p.setup.as_secs_f64()).collect();
    let cold: Vec<f64> = out.iter().map(|p| p.cold.as_secs_f64()).collect();
    let cells: u64 = out.iter().map(|p| p.cells).sum();
    let warm_secs: f64 = out
        .iter()
        .flat_map(|p| &p.warm)
        .map(Duration::as_secs_f64)
        .sum();
    let warm_cells: u64 = out.iter().map(|p| p.cells * p.warm.len() as u64).sum();
    let sim_ops: u64 = out.iter().map(|p| p.sim_ops).sum();
    end_to_end(
        &mut report,
        done.rss_mib,
        &setup,
        &cold,
        sim_ops as f64,
        cells as f64,
        cold.iter().sum(),
        warm_cells as f64,
        warm_secs,
    );
    report.notes.push(format!(
        "grid: {} cells, {} warm runs after each cold run, {} simulated ops per cold run",
        out.first().map_or(0, |p| p.cells),
        WARM_RUNS,
        out.first().map_or(0, |p| p.sim_ops)
    ));
    speed_note(&speed, &mut report);
    report
        .notes
        .push(format!("digest: {:016x}", digests.combined()));
    report
}

fn campaign_traced(args: &Args) -> Report {
    let start = Instant::now();
    let cost = TimerCost::calibrate(100_000, 5);
    let base = sweep::grid(false);
    let seeds = seeds(args, CAMPAIGN_SEEDS);
    let mut digests = Digests::new(seeds.len());
    let cold_rate = |out: &[PassOutput]| {
        let cells: u64 = out.iter().map(|p| p.cells).sum();
        ratio(
            cells as f64,
            out.iter().map(|p| p.cold.as_secs_f64()).sum::<f64>(),
        )
    };

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds).saturating_sub(start.elapsed());
    let done = passes(2 * seeds.len(), budget, 2 * seeds.len(), |j| {
        let trace = j % 2 == 1;
        match campaign_pass(&base, &seeds, j / 2, trace) {
            Some(p) => {
                let ok = digests.check(j / 2, p.digest);
                if trace { &mut traced } else { &mut untraced }.push(p);
                ok
            }
            None => false,
        }
    });
    let mut report = Report {
        attempted: done.attempted,
        failed: done.failed,
        ..Report::default()
    };
    engine_layer_metrics(&mut report, None);
    let layers: Vec<PassLayers> = traced.iter().filter_map(|p| p.layers).collect();
    campaign_layer_metrics(&mut report, Some(&layers));
    report.metrics.extend([
        m("trace.span_ns", cost.span_ns, "ns", "host"),
        m(
            "trace.overhead_ratio",
            ratio(cold_rate(&untraced), cold_rate(&traced)),
            "ratio",
            "host",
        ),
    ]);
    report.notes.push(format!(
        "traced passes: {}; the campaign is timed from outside, so no spans are recorded",
        traced.len()
    ));
    report
        .notes
        .push(format!("digest: {:016x}", digests.combined()));
    report
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("rb-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (WorkloadName::RandreadHot, false) => {
            engine_end_to_end(&EngineSpec::randread_hot(false), &args)
        }
        (WorkloadName::RandreadHot, true) => engine_traced(&EngineSpec::randread_hot(false), &args),
        (WorkloadName::Fileserver8p, false) => {
            engine_end_to_end(&EngineSpec::fileserver_8p(false), &args)
        }
        (WorkloadName::Fileserver8p, true) => {
            engine_traced(&EngineSpec::fileserver_8p(false), &args)
        }
        (WorkloadName::CampaignSweep, false) => campaign_end_to_end(&args),
        (WorkloadName::CampaignSweep, true) => campaign_traced(&args),
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for x in &report.metrics {
        let value = if x.base == "n/a" {
            "n/a".to_string()
        } else {
            format!("{:.4}", x.value)
        };
        println!("  {:<34} {:>16} {:<10} {}", x.name, value, x.unit, x.base);
    }
    println!(
        "  correct: {} ({} of {} runs failed)",
        report.failed == 0,
        report.failed,
        report.attempted
    );
    println!("{}", json(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
