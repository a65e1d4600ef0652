//! Ablation benches for the design choices DESIGN.md calls out:
//! I/O scheduler and readahead — each swept while everything else is
//! held fixed (the replacement-policy and allocator costs are the
//! perfgate `layer/cache-*` and `layer/alloc-*` scenarios). Criterion
//! reports the simulation cost; the printed side-channel metrics (hit
//! ratios, drain times) are the experimental result.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::ReadaheadConfig;
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simdisk::device::{BlockDevice, IoRequest};
use rb_simdisk::hdd::{Hdd, HddConfig};
use rb_simdisk::sched::{IoQueue, SchedPolicy};

/// Scheduler ablation: drain a 64-request scattered batch; prints the
/// virtual completion time per policy.
fn bench_scheduler_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/scheduler");
    group.sample_size(20);
    let policies = [
        ("noop", SchedPolicy::Noop),
        ("scan", SchedPolicy::Scan),
        ("cscan", SchedPolicy::CScan),
        ("deadline", SchedPolicy::Deadline { expire: Nanos::from_millis(200) }),
    ];
    for (name, policy) in policies {
        // Report the batch completion time once.
        let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
        let cap = disk.capacity_blocks();
        let mut q = IoQueue::new(policy);
        let mut rng = Rng::new(8);
        for _ in 0..64 {
            q.push(IoRequest::read(rng.below(cap - 2), 2), Nanos::ZERO);
        }
        let done = q.drain(&mut disk, Nanos::ZERO);
        eprintln!(
            "ablation/scheduler/{name}: 64-request batch drains in {}",
            done.last().unwrap().finished
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
                let mut q = IoQueue::new(policy);
                let mut rng = Rng::new(8);
                for _ in 0..64 {
                    q.push(IoRequest::read(rng.below(cap - 2), 2), Nanos::ZERO);
                }
                black_box(q.drain(&mut disk, Nanos::ZERO).len())
            });
        });
    }
    group.finish();
}

/// Readahead ablation: sequential stream with and without readahead;
/// prints the virtual time per MiB once.
fn bench_readahead_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/readahead");
    group.sample_size(10);
    for (name, ra) in [
        ("on", ReadaheadConfig::default()),
        ("off", ReadaheadConfig::disabled()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                use rb_core::target::Target;
                let mut t = rb_core::testbed::Testbed {
                    fs: rb_core::testbed::FsKind::Ext2,
                    device: rb_simcore::units::Bytes::mib(256),
                    cache: rb_simcore::units::Bytes::mib(64),
                    policy: PolicyKind::Lru,
                    readahead: ra,
                    seed: 0,
                }
                .build();
                t.create("/f").unwrap();
                let fd = t.open("/f").unwrap();
                t.set_size(fd, rb_simcore::units::Bytes::mib(32)).unwrap();
                t.drop_caches();
                let mut off = rb_simcore::units::Bytes::ZERO;
                while off < rb_simcore::units::Bytes::mib(32) {
                    t.read(fd, off, rb_simcore::units::Bytes::kib(8)).unwrap();
                    off += rb_simcore::units::Bytes::kib(8);
                }
                black_box(t.now())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduler_ablation,
    bench_readahead_ablation
);
criterion_main!(benches);
