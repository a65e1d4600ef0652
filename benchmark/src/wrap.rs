//! The paper testbed assembled by hand, with a span around every call
//! into the three trait objects the program exposes: the
//! `FileSystem` and `BlockDevice` given to `StorageStack::new`, and the
//! `Target` given to `Engine::run_prepared`.
//!
//! Each wrapper implements every method of its trait, defaulted ones
//! included, by forwarding to the wrapped object: relying on a trait
//! default would silently replace the wrapped type's override and
//! change the program path. `tests/transparency.rs` checks that a run
//! through the wrappers produces the same outputs as
//! `testbed::Testbed::build`. Cheap accessors (clock, counters, names)
//! are forwarded without a span; their cost stays in the caller's self
//! time.

use crate::trace::{Name, Tracer};
use rb_core::target::{SimTarget, Target};
use rb_core::testbed::{FsKind, PAPER_CACHE};
use rb_faults::{CrashReport, FaultSpec, FaultStats, RecoveryPlan};
use rb_simcache::cache::CacheConfig;
use rb_simcache::page::CacheStats;
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::ReadaheadConfig;
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::error::SimResult;
use rb_simcore::time::Nanos;
use rb_simcore::units::{Bytes, PAGE_SIZE};
use rb_simdisk::device::{BlockDevice, DeviceStats, IoRequest};
use rb_simdisk::hdd::{Hdd, HddConfig};
use rb_simfs::intern::{PathId, PathSpec};
use rb_simfs::stack::{Fd, OpCost, StackConfig, StackStats, StorageStack};
use rb_simfs::vfs::{Extent, FileAttr, FileSystem, InodeNo, MetaIo};
use std::rc::Rc;

/// Builds what `testbed::Testbed::paper(fs, device, seed).build()`
/// builds, with every layer wrapped.
pub fn traced_paper_testbed(
    fs: FsKind,
    device: Bytes,
    seed: u64,
    tracer: &Rc<Tracer>,
) -> TracedTarget {
    let device_blocks = device.div_ceil(PAGE_SIZE);
    let fs = TracedFs {
        inner: fs.format(device_blocks),
        tracer: Rc::clone(tracer),
    };
    let mut hdd = HddConfig::maxtor_7l250s0_like();
    hdd.seed = hdd.seed.wrapping_add(seed);
    let disk = TracedDisk {
        inner: Box::new(Hdd::new(hdd)),
        tracer: Rc::clone(tracer),
    };
    let cache = CacheConfig {
        capacity_pages: PAPER_CACHE.div_ceil(PAGE_SIZE),
        policy: PolicyKind::Lru,
        readahead: ReadaheadConfig::default(),
        writeback: WritebackConfig::default(),
    };
    let stack_cfg = StackConfig {
        seed,
        ..Default::default()
    };
    let stack = StorageStack::new(Box::new(fs), cache, Box::new(disk), stack_cfg);
    TracedTarget {
        inner: SimTarget::new(stack),
        tracer: Rc::clone(tracer),
    }
}

/// A `FileSystem` with a span around each call.
pub struct TracedFs {
    inner: Box<dyn FileSystem>,
    tracer: Rc<Tracer>,
}

impl FileSystem for TracedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn block_size(&self) -> Bytes {
        self.inner.block_size()
    }

    fn cluster_pages(&self) -> u64 {
        self.inner.cluster_pages()
    }

    fn intern_path(&mut self, path: &str) -> SimResult<PathSpec> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.intern_path(path))
    }

    fn lookup_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsLookup, || self.inner.lookup_spec(spec))
    }

    fn create_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.create_spec(spec))
    }

    fn mkdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.mkdir_spec(spec))
    }

    fn unlink_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.unlink_spec(spec))
    }

    fn rmdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.rmdir_spec(spec))
    }

    fn readdir_spec(&mut self, spec: &PathSpec) -> SimResult<(u64, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.readdir_spec(spec))
    }

    fn lookup(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer.time(Name::FsLookup, || self.inner.lookup(path))
    }

    fn create(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.create(path))
    }

    fn mkdir(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.mkdir(path))
    }

    fn unlink(&mut self, path: &str) -> SimResult<MetaIo> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.unlink(path))
    }

    fn rmdir(&mut self, path: &str) -> SimResult<MetaIo> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.rmdir(path))
    }

    fn readdir(&mut self, path: &str) -> SimResult<(u64, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.readdir(path))
    }

    fn readdir_names(&mut self, path: &str) -> SimResult<(Vec<String>, MetaIo)> {
        self.tracer
            .time(Name::FsNamespace, || self.inner.readdir_names(path))
    }

    fn attr(&self, ino: InodeNo) -> SimResult<FileAttr> {
        self.tracer.time(Name::FsAttr, || self.inner.attr(ino))
    }

    fn size_of(&self, ino: InodeNo) -> SimResult<Bytes> {
        self.tracer.time(Name::FsSizeOf, || self.inner.size_of(ino))
    }

    fn set_size(&mut self, ino: InodeNo, size: Bytes) -> SimResult<MetaIo> {
        self.tracer
            .time(Name::FsSetSize, || self.inner.set_size(ino, size))
    }

    fn map(&self, ino: InodeNo, logical: u64, max: u64) -> SimResult<Extent> {
        self.tracer
            .time(Name::FsMap, || self.inner.map(ino, logical, max))
    }

    fn avg_file_extents(&self) -> f64 {
        self.inner.avg_file_extents()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn crash_plan(&self) -> RecoveryPlan {
        self.tracer.time(Name::FsOther, || self.inner.crash_plan())
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.tracer
            .time(Name::FsOther, || self.inner.check_consistency())
    }
}

/// A `BlockDevice` with a span around each request.
pub struct TracedDisk {
    inner: Box<dyn BlockDevice>,
    tracer: Rc<Tracer>,
}

impl BlockDevice for TracedDisk {
    fn service(&mut self, req: &IoRequest, now: Nanos) -> Nanos {
        self.tracer
            .time(Name::DiskService, || self.inner.service(req, now))
    }

    fn service_checked(&mut self, req: &IoRequest, now: Nanos) -> SimResult<Nanos> {
        self.tracer
            .time(Name::DiskService, || self.inner.service_checked(req, now))
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn block_size(&self) -> Bytes {
        self.inner.block_size()
    }

    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }
}

/// The simulated stack as a `Target`, with a span around each
/// operation.
pub struct TracedTarget {
    inner: SimTarget,
    tracer: Rc<Tracer>,
}

/// The call site of a timed path operation: by pre-resolved id, or by
/// path string.
fn path_op(id: Option<PathId>) -> Name {
    if id.is_some() {
        Name::StackMeta
    } else {
        Name::StackPath
    }
}

impl Target for TracedTarget {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn advance(&mut self, d: Nanos) {
        self.inner.advance(d)
    }

    fn create(&mut self, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackPath, || self.inner.create(path))
    }

    fn mkdir(&mut self, path: &str) -> SimResult<Nanos> {
        self.tracer.time(Name::StackPath, || self.inner.mkdir(path))
    }

    fn unlink(&mut self, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackPath, || self.inner.unlink(path))
    }

    fn stat(&mut self, path: &str) -> SimResult<Nanos> {
        self.tracer.time(Name::StackPath, || self.inner.stat(path))
    }

    fn open(&mut self, path: &str) -> SimResult<Fd> {
        self.tracer.time(Name::StackPath, || self.inner.open(path))
    }

    fn prepare_path(&mut self, path: &str) -> Option<PathId> {
        self.tracer
            .time(Name::StackMeta, || self.inner.prepare_path(path))
    }

    fn create_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackMeta, || self.inner.create_id(id, path))
    }

    fn mkdir_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackMeta, || self.inner.mkdir_id(id, path))
    }

    fn unlink_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackMeta, || self.inner.unlink_id(id, path))
    }

    fn stat_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackMeta, || self.inner.stat_id(id, path))
    }

    fn open_id(&mut self, id: PathId, path: &str) -> SimResult<Fd> {
        self.tracer
            .time(Name::StackMeta, || self.inner.open_id(id, path))
    }

    fn close(&mut self, fd: Fd) -> SimResult<()> {
        self.tracer.time(Name::StackMeta, || self.inner.close(fd))
    }

    fn set_size(&mut self, fd: Fd, size: Bytes) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackMeta, || self.inner.set_size(fd, size))
    }

    fn read(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackRead, || self.inner.read(fd, offset, len))
    }

    fn write(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        self.tracer
            .time(Name::StackWrite, || self.inner.write(fd, offset, len))
    }

    fn fsync(&mut self, fd: Fd) -> SimResult<Nanos> {
        self.tracer.time(Name::StackFsync, || self.inner.fsync(fd))
    }

    fn drop_caches(&mut self) -> bool {
        self.tracer
            .time(Name::StackFlush, || self.inner.drop_caches())
    }

    fn set_cache_capacity_pages(&mut self, pages: u64) {
        self.tracer.time(Name::StackFlush, || {
            self.inner.set_cache_capacity_pages(pages)
        })
    }

    fn cache_hit_ratio(&self) -> Option<f64> {
        self.inner.cache_hit_ratio()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn cache_policy(&self) -> Option<&'static str> {
        self.inner.cache_policy()
    }

    fn stack_stats(&self) -> Option<StackStats> {
        self.inner.stack_stats()
    }

    fn disk_stats(&self) -> Option<DeviceStats> {
        self.inner.disk_stats()
    }

    fn background_tick(&mut self) {
        self.tracer
            .time(Name::StackFlush, || self.inner.background_tick())
    }

    fn supports_timed(&self) -> bool {
        self.inner.supports_timed()
    }

    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(path_op(id), || self.inner.create_at(id, path, issue))
    }

    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(path_op(id), || self.inner.mkdir_at(id, path, issue))
    }

    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(path_op(id), || self.inner.unlink_at(id, path, issue))
    }

    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(path_op(id), || self.inner.stat_at(id, path, issue))
    }

    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        self.tracer
            .time(path_op(id), || self.inner.open_at(id, path, issue))
    }

    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(Name::StackMeta, || self.inner.set_size_at(fd, size, issue))
    }

    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.tracer.time(Name::StackRead, || {
            self.inner.read_at(fd, offset, len, issue)
        })
    }

    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.tracer.time(Name::StackWrite, || {
            self.inner.write_at(fd, offset, len, issue)
        })
    }

    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        self.tracer
            .time(Name::StackFsync, || self.inner.fsync_at(fd, issue))
    }

    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        self.tracer
            .time(Name::StackFlush, || self.inner.tick_at(issue))
    }

    fn install_faults(&mut self, spec: FaultSpec, seed: u64) -> SimResult<()> {
        self.tracer
            .time(Name::StackOther, || self.inner.install_faults(spec, seed))
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }

    fn crash_recover(&mut self, issue: Nanos) -> SimResult<CrashReport> {
        self.tracer
            .time(Name::StackOther, || self.inner.crash_recover(issue))
    }

    fn set_device_floor(&mut self, floor: Nanos) {
        self.inner.set_device_floor(floor)
    }
}
