//! The system-under-test interface: what a recorder can observe and a
//! replayer can drive.
//!
//! [`Target`] is the contract between every workload driver in the
//! stack — the flowop engine, the trace [`Recorder`](crate::Recorder)
//! and the [replay driver](crate::replay_with) — and whatever is being
//! measured. `rb_core` provides the two canonical implementations: the
//! deterministic simulated storage stack (`SimTarget`) and a real host
//! directory (`RealFsTarget`). The trait lives here, in the replay
//! crate, because replay is the most demanding consumer: a trace is
//! only a portable artifact if *any* target can execute it.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};

/// A system under test.
pub trait Target {
    /// Short name for reports, e.g. `"sim:ext2"`.
    fn name(&self) -> String;

    /// Monotonic time since target creation (virtual or wall).
    fn now(&self) -> Nanos;

    /// Passes time without doing I/O (per-op framework overhead, think
    /// time, recorded inter-arrival gaps). Real targets treat this as a
    /// no-op: their overhead is already real.
    fn advance(&mut self, d: Nanos);

    /// Creates a regular file.
    fn create(&mut self, path: &str) -> SimResult<Nanos>;

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> SimResult<Nanos>;

    /// Removes a file.
    fn unlink(&mut self, path: &str) -> SimResult<Nanos>;

    /// Stats a path.
    fn stat(&mut self, path: &str) -> SimResult<Nanos>;

    /// Opens a file.
    fn open(&mut self, path: &str) -> SimResult<Fd>;

    /// Pre-resolves a path for repeated use, if the target caches path
    /// resolutions. Pure bookkeeping (no simulated cost, no namespace
    /// effect): drivers call it at workload-build or trace-load time so
    /// per-op path work drops to an index. Targets without a resolution
    /// cache return `None`, and drivers fall back to the string forms.
    fn prepare_path(&mut self, path: &str) -> Option<PathId> {
        let _ = path;
        None
    }

    /// [`Target::create`] for a path pre-resolved by
    /// [`Target::prepare_path`]. `path` is the same path, for targets
    /// that ignore ids. Implementations must behave identically to the
    /// string form.
    fn create_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        let _ = id;
        self.create(path)
    }

    /// [`Target::mkdir`] for a pre-resolved path.
    fn mkdir_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        let _ = id;
        self.mkdir(path)
    }

    /// [`Target::unlink`] for a pre-resolved path.
    fn unlink_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        let _ = id;
        self.unlink(path)
    }

    /// [`Target::stat`] for a pre-resolved path.
    fn stat_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        let _ = id;
        self.stat(path)
    }

    /// [`Target::open`] for a pre-resolved path.
    fn open_id(&mut self, id: PathId, path: &str) -> SimResult<Fd> {
        let _ = id;
        self.open(path)
    }

    /// Closes a handle.
    fn close(&mut self, fd: Fd) -> SimResult<()>;

    /// Sets a file's size (pre-allocation).
    fn set_size(&mut self, fd: Fd, size: Bytes) -> SimResult<Nanos>;

    /// Reads `len` bytes at `offset`; returns service latency.
    fn read(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos>;

    /// Writes `len` bytes at `offset`; returns service latency.
    fn write(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos>;

    /// Flushes a file to stable storage.
    fn fsync(&mut self, fd: Fd) -> SimResult<Nanos>;

    /// Empties the page cache if the target can; returns whether it did.
    fn drop_caches(&mut self) -> bool;

    /// Adjusts cache capacity in pages (memory-pressure modelling).
    /// Targets without a controllable cache ignore this.
    fn set_cache_capacity_pages(&mut self, _pages: u64) {}

    /// Cache hit ratio so far, if the target can report one.
    fn cache_hit_ratio(&self) -> Option<f64> {
        None
    }

    /// Cumulative cache statistics snapshot, if the target has a
    /// controllable cache. Used by the engine to compute per-phase hit
    /// ratios as deltas.
    fn cache_stats(&self) -> Option<rb_simcache::page::CacheStats> {
        None
    }

    /// Name of the cache eviction policy, if the target has one (for
    /// attribution in flight-recorder reports).
    fn cache_policy(&self) -> Option<&'static str> {
        None
    }

    /// Cumulative storage-stack counters, if the target is simulated.
    /// The flight recorder snapshots these before and after a run.
    fn stack_stats(&self) -> Option<rb_simfs::stack::StackStats> {
        None
    }

    /// Cumulative device counters, if the target is simulated.
    fn disk_stats(&self) -> Option<rb_simdisk::device::DeviceStats> {
        None
    }

    /// Background maintenance hook (the kernel flusher thread): called
    /// periodically by the engine and by timed replay. Real targets rely
    /// on the host kernel.
    fn background_tick(&mut self) {}

    // ------------------------------------------------------------------
    // Time-parameterized operations (the discrete-event interface).
    //
    // A multi-process driver cannot let the target advance its own
    // clock: N simulated processes contend for cores and the device, so
    // *when* an operation's cost lands is the scheduler's decision. The
    // `*_at` family executes an operation at an explicit `issue`
    // instant, mutates target state exactly as the untimed form would,
    // and returns the cost decomposed into CPU and device components
    // ([`OpCost`]). Targets with a virtual clock implement it without
    // touching that clock and say so through [`Target::supports_timed`].
    // Every other target inherits defaults that run the untimed form at
    // the target's own clock (ignoring `issue`, moving the clock
    // themselves) and report the whole latency as CPU, so a serial
    // driver can use one call path for both kinds.
    // ------------------------------------------------------------------

    /// Whether the `*_at` operations leave the clock to the caller.
    /// `false` means they run at the target's own clock and advance it
    /// (the defaults below); multi-process drivers need `true`.
    fn supports_timed(&self) -> bool {
        false
    }

    /// [`Target::create`] at instant `issue`. `id` is the path
    /// pre-resolved by [`Target::prepare_path`], when the driver has
    /// one.
    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        match id {
            Some(id) => self.create_id(id, path),
            None => self.create(path),
        }
        .map(OpCost::cpu_only)
    }

    /// [`Target::mkdir`] at instant `issue`.
    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        match id {
            Some(id) => self.mkdir_id(id, path),
            None => self.mkdir(path),
        }
        .map(OpCost::cpu_only)
    }

    /// [`Target::unlink`] at instant `issue`.
    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        match id {
            Some(id) => self.unlink_id(id, path),
            None => self.unlink(path),
        }
        .map(OpCost::cpu_only)
    }

    /// [`Target::stat`] at instant `issue`.
    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        match id {
            Some(id) => self.stat_id(id, path),
            None => self.stat(path),
        }
        .map(OpCost::cpu_only)
    }

    /// [`Target::open`] at instant `issue`. The untimed form reports no
    /// latency, so the default charges the clock distance it covered.
    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        let _ = issue;
        let t0 = self.now();
        let fd = match id {
            Some(id) => self.open_id(id, path)?,
            None => self.open(path)?,
        };
        Ok((fd, OpCost::cpu_only(self.now() - t0)))
    }

    /// [`Target::set_size`] at instant `issue`.
    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        self.set_size(fd, size).map(OpCost::cpu_only)
    }

    /// [`Target::read`] at instant `issue`.
    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        self.read(fd, offset, len).map(OpCost::cpu_only)
    }

    /// [`Target::write`] at instant `issue`.
    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        self.write(fd, offset, len).map(OpCost::cpu_only)
    }

    /// [`Target::fsync`] at instant `issue`.
    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        let _ = issue;
        self.fsync(fd).map(OpCost::cpu_only)
    }

    /// [`Target::background_tick`] at instant `issue`: runs the flusher
    /// pass as of `issue` and returns the device time it consumed.
    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        let _ = issue;
        Nanos::ZERO
    }

    // ------------------------------------------------------------------
    // Fault injection (the robustness interface).
    //
    // Only deterministic simulated targets can inject faults — a plan
    // is a pure function of (spec, forked RNG stream, virtual clock) and
    // makes no sense against a real host disk. Real targets keep the
    // default "unsupported" behaviour and drivers gate on the error.
    // ------------------------------------------------------------------

    /// Arms a deterministic fault plan on the target's device path.
    /// Targets that cannot inject faults return `InvalidOperation`.
    fn install_faults(&mut self, spec: rb_faults::FaultSpec, seed: u64) -> SimResult<()> {
        let _ = (spec, seed);
        Err(SimError::InvalidOperation(
            "target cannot inject deterministic faults".into(),
        ))
    }

    /// Cumulative fault-injection counters, if faults are armed.
    fn fault_stats(&self) -> Option<rb_faults::FaultStats> {
        None
    }

    /// Simulates a crash at instant `issue`: drops the page cache (dirty
    /// data is lost), replays the file system's recovery plan against
    /// the device, and reports what recovery cost and whether the
    /// metadata survived consistent.
    fn crash_recover(&mut self, issue: Nanos) -> SimResult<rb_faults::CrashReport> {
        let _ = issue;
        Err(SimError::InvalidOperation(
            "target cannot simulate a crash".into(),
        ))
    }

    /// Informs the target of the device-queue horizon chosen by an
    /// external scheduler: media requests issued after this call are
    /// serviced no earlier than `floor` (the instant the device actually
    /// frees up), so seek distances are evaluated at true service start
    /// rather than at issue. Targets without a device queue ignore it.
    fn set_device_floor(&mut self, _floor: Nanos) {}
}
