//! Microbenchmarks of the simulation substrate: these guard the
//! simulator's own performance (a slow simulator caps experiment scale).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simdisk::device::{BlockDevice, IoRequest};
use rb_simdisk::hdd::{Hdd, HddConfig};
use rb_stats::histogram::Log2Histogram;

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    c.bench_function("rng/lognormal", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| black_box(rng.lognormal(4096.0, 0.3)));
    });
}

fn bench_hdd(c: &mut Criterion) {
    c.bench_function("hdd/random_read_8k", |b| {
        let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
        let cap = disk.capacity_blocks();
        let mut rng = Rng::new(2);
        let mut now = Nanos::ZERO;
        b.iter(|| {
            let block = rng.below(cap - 2);
            let lat = disk.service(&IoRequest::read(block, 2), now);
            now += lat;
            black_box(lat)
        });
    });
    c.bench_function("hdd/sequential_read_64k", |b| {
        let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
        let mut now = Nanos::ZERO;
        let mut block = 0u64;
        b.iter(|| {
            let lat = disk.service(&IoRequest::read(block, 16), now);
            block = (block + 16) % (disk.capacity_blocks() - 16);
            now += lat;
            black_box(lat)
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("stats/histogram_record", |b| {
        let mut h = Log2Histogram::new();
        let mut rng = Rng::new(4);
        b.iter(|| {
            h.record(Nanos::from_nanos(rng.below(100_000_000)));
            black_box(h.total())
        });
    });
}

criterion_group!(benches, bench_rng, bench_hdd, bench_histogram);
criterion_main!(benches);
