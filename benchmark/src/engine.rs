//! The two engine workloads: one seeded run builds the paper testbed,
//! creates and prewarms the file set (set-up), then runs the measured
//! phase through `Engine::run_prepared`.

use crate::trace::{Name, Tracer};
use crate::wrap::traced_paper_testbed;
use rb_core::target::Target;
use rb_core::testbed::{FsKind, Testbed};
use rb_core::workload::{personalities, Engine, EngineConfig, Workload};
use rb_simcache::page::CacheStats;
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::stack::StackStats;
use rb_stats::histogram::BUCKETS;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One engine workload: the paper testbed on ext2 and a personality
/// run for a fixed simulated duration.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Formatted device size.
    pub device: Bytes,
    /// Personality and file set.
    pub workload: Workload,
    /// Closed-loop simulated processes.
    pub processes: u32,
    /// Simulated cores they share.
    pub cores: u32,
    /// Simulated duration of the measured phase.
    pub duration: Nanos,
}

impl EngineSpec {
    /// `randread-hot`: 8 KiB random reads of a 256 MiB file under the
    /// 410 MiB cache, prewarmed, so every read hits. `small` shrinks it
    /// for tests.
    pub fn randread_hot(small: bool) -> EngineSpec {
        let (file, secs) = if small { (16, 1) } else { (256, 10) };
        EngineSpec {
            device: Bytes::mib(2 * file),
            workload: personalities::random_read(Bytes::mib(file)),
            processes: 1,
            cores: 1,
            duration: Nanos::from_secs(secs),
        }
    }

    /// `fileserver-8p`: the fileserver mix over 10,000 files (about
    /// 2.5x the cache), 8 closed-loop processes on 4 cores. `small`
    /// shrinks it for tests, keeping it past the 30 s dirty-page age so
    /// the flusher writes pages back and the disk still runs.
    pub fn fileserver_8p(small: bool) -> EngineSpec {
        let (files, secs) = if small { (200, 36) } else { (10_000, 30) };
        EngineSpec {
            device: if small {
                Bytes::mib(256)
            } else {
                Bytes::gib(2)
            },
            workload: personalities::fileserver(files),
            processes: 8,
            cores: 4,
            duration: Nanos::from_secs(secs),
        }
    }
}

/// What one seeded run produced and cost.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Host time to build the testbed, create the file set and
    /// prewarm.
    pub setup: Duration,
    /// Host time of the measured phase.
    pub run: Duration,
    /// Simulated ops completed.
    pub ops: u64,
    /// Simulated ops that failed.
    pub errors: u64,
    /// Page-cache counters over the measured phase.
    pub cache: CacheStats,
    /// Stack counters over the measured phase.
    pub stack: StackStats,
    /// Device requests over the measured phase.
    pub disk_requests: u64,
    /// Simulated device busy time over the measured phase.
    pub disk_busy: Nanos,
    /// Simulated duration of the measured phase.
    pub sim_duration: Nanos,
    /// Digest of the simulated outputs: ops, errors, duration, hit
    /// ratio, latency histogram and the layer counters above.
    pub digest: u64,
}

/// Runs one seeded run on the untraced testbed
/// (`testbed::Testbed::build`), or on the hand-assembled, wrapped one
/// when `tracer` is given; the tracer is active only for the measured
/// phase.
pub fn run_once(spec: &EngineSpec, seed: u64, tracer: Option<&Rc<Tracer>>) -> SimResult<RunOutput> {
    let t0 = Instant::now();
    match tracer {
        None => {
            let mut target = Testbed::paper(FsKind::Ext2, spec.device, seed).build();
            measure(spec, seed, &mut target, t0, None)
        }
        Some(tracer) => {
            let mut target = traced_paper_testbed(FsKind::Ext2, spec.device, seed, tracer);
            measure(spec, seed, &mut target, t0, Some(tracer))
        }
    }
}

fn missing(what: &str) -> SimError {
    SimError::InvalidOperation(format!("simulated target reports no {what}"))
}

fn measure(
    spec: &EngineSpec,
    seed: u64,
    target: &mut dyn Target,
    t0: Instant,
    tracer: Option<&Rc<Tracer>>,
) -> SimResult<RunOutput> {
    let mut sets = Engine::setup(target, &spec.workload, seed)?;
    target.drop_caches();
    Engine::prewarm(target, &sets)?;
    let setup = t0.elapsed();

    let cache0 = target.cache_stats().ok_or_else(|| missing("cache stats"))?;
    let stack0 = target.stack_stats().ok_or_else(|| missing("stack stats"))?;
    let disk0 = target.disk_stats().ok_or_else(|| missing("disk stats"))?;
    let config = EngineConfig {
        duration: spec.duration,
        window: spec.duration,
        seed,
        cold_start: false,
        prewarm: false,
        processes: spec.processes,
        cores: spec.cores,
        ..EngineConfig::default()
    };
    let t1 = Instant::now();
    let rec = match tracer {
        None => Engine::run_prepared(target, &spec.workload, &config, &mut sets),
        Some(tracer) => {
            tracer.set_active(true);
            let rec = tracer.time(Name::Run, || {
                Engine::run_prepared(target, &spec.workload, &config, &mut sets)
            });
            tracer.set_active(false);
            rec
        }
    }?;
    let run = t1.elapsed();

    let cache1 = target.cache_stats().ok_or_else(|| missing("cache stats"))?;
    let stack1 = target.stack_stats().ok_or_else(|| missing("stack stats"))?;
    let disk1 = target.disk_stats().ok_or_else(|| missing("disk stats"))?;
    let cache = CacheStats {
        hits: cache1.hits - cache0.hits,
        misses: cache1.misses - cache0.misses,
        insertions: cache1.insertions - cache0.insertions,
        evicted_clean: cache1.evicted_clean - cache0.evicted_clean,
        evicted_dirty: cache1.evicted_dirty - cache0.evicted_dirty,
        prefetched: cache1.prefetched - cache0.prefetched,
        prefetch_hits: cache1.prefetch_hits - cache0.prefetch_hits,
        writeback_flushed: cache1.writeback_flushed - cache0.writeback_flushed,
    };
    let stack = StackStats {
        reads: stack1.reads - stack0.reads,
        writes: stack1.writes - stack0.writes,
        meta_ops: stack1.meta_ops - stack0.meta_ops,
        fsyncs: stack1.fsyncs - stack0.fsyncs,
        allocations: stack1.allocations - stack0.allocations,
        journal_commits: stack1.journal_commits - stack0.journal_commits,
    };
    let disk_requests = disk1.requests() - disk0.requests();
    let disk_busy = disk1.busy - disk0.busy;

    let mut words = vec![
        rec.ops,
        rec.errors,
        rec.duration.as_nanos(),
        rec.hit_ratio.unwrap_or(-1.0).to_bits(),
        cache.hits,
        cache.misses,
        cache.evicted_clean + cache.evicted_dirty,
        cache.writeback_flushed,
        stack.allocations,
        disk_requests,
        disk_busy.as_nanos(),
    ];
    words.extend((0..BUCKETS).map(|k| rec.histogram.count(k)));
    let digest = words
        .iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));

    Ok(RunOutput {
        setup,
        run,
        ops: rec.ops,
        errors: rec.errors,
        cache,
        stack,
        disk_requests,
        disk_busy,
        sim_duration: rec.duration,
        digest,
    })
}
