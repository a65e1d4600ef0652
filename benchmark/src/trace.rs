//! Host-time spans recorded at layer boundaries, from outside the
//! program.
//!
//! A [`Tracer`] is shared (`Rc`) by the three wrappers in
//! [`crate::wrap`] and by the benchmark loop, which opens one root span
//! per measured run. Every span feeds per-layer aggregates (calls,
//! total time, self time = span minus child spans) and, while the
//! bounded buffer has room, one [`Span`] record that is written out
//! when the benchmark ends. Outside [`Tracer::set_active`] the wrappers
//! only pay a flag check, so set-up and prewarm stay untraced.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The layers the spans are attributed to, named after the modules
/// whose calls they wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `rb_core::workload` and `rb_core::sched`: one root span per
    /// measured run (`Engine::run_prepared`).
    Workload,
    /// `rb_simfs::stack` including the page cache: calls through the
    /// `Target` handed to the engine.
    Stack,
    /// The `FileSystem` handed to `StorageStack::new`.
    Simfs,
    /// The `BlockDevice` handed to `StorageStack::new`.
    Simdisk,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 4;

/// What a span covers: one traced call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One measured run.
    Run,
    /// `Target::read` / `read_at`.
    StackRead,
    /// `Target::write` / `write_at`.
    StackWrite,
    /// `Target::fsync` / `fsync_at`.
    StackFsync,
    /// Namespace and handle operations through the `Target`, on a path
    /// pre-resolved by `prepare_path` or on a handle, and
    /// `prepare_path` itself.
    StackMeta,
    /// Namespace operations that arrive as a path string, without a
    /// pre-resolved id.
    StackPath,
    /// Flusher passes (`background_tick`, `tick_at`) and cache drops.
    StackFlush,
    /// Fault and crash hooks.
    StackOther,
    /// `FileSystem::lookup` / `lookup_spec`.
    FsLookup,
    /// Other namespace calls (create, mkdir, unlink, rmdir, readdir,
    /// intern).
    FsNamespace,
    /// `FileSystem::attr`.
    FsAttr,
    /// `FileSystem::size_of`: the read/write fast path.
    FsSizeOf,
    /// `FileSystem::set_size`: the allocator path.
    FsSetSize,
    /// `FileSystem::map`.
    FsMap,
    /// Crash plan and consistency walk.
    FsOther,
    /// `BlockDevice::service` / `service_checked`.
    DiskService,
}

/// Number of [`Name`] variants.
pub const NAMES: usize = 16;

impl Name {
    /// The layer this call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Run => Layer::Workload,
            Name::StackRead
            | Name::StackWrite
            | Name::StackFsync
            | Name::StackMeta
            | Name::StackPath
            | Name::StackFlush
            | Name::StackOther => Layer::Stack,
            Name::FsLookup
            | Name::FsNamespace
            | Name::FsAttr
            | Name::FsSizeOf
            | Name::FsSetSize
            | Name::FsMap
            | Name::FsOther => Layer::Simfs,
            Name::DiskService => Layer::Simdisk,
        }
    }

    /// Name written into span records.
    pub fn label(self) -> &'static str {
        match self {
            Name::Run => "workload.run",
            Name::StackRead => "stack.read",
            Name::StackWrite => "stack.write",
            Name::StackFsync => "stack.fsync",
            Name::StackMeta => "stack.meta",
            Name::StackPath => "stack.path",
            Name::StackFlush => "stack.flush",
            Name::StackOther => "stack.other",
            Name::FsLookup => "simfs.lookup",
            Name::FsNamespace => "simfs.namespace",
            Name::FsAttr => "simfs.attr",
            Name::FsSizeOf => "simfs.size_of",
            Name::FsSetSize => "simfs.set_size",
            Name::FsMap => "simfs.map",
            Name::FsOther => "simfs.other",
            Name::DiskService => "simdisk.service",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` indexes the enclosing span's record (`u32::MAX` for none);
/// spans caused by one `Target` call share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call site.
    pub name: Name,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the parent record, or `u32::MAX`.
    pub parent: u32,
    /// Identifier shared by the spans of one `Target` call (0 = root).
    pub op: u64,
}

/// Aggregates of one layer (or one call site).
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed span durations minus their direct children's, ns.
    pub self_ns: u64,
    /// Direct child spans opened inside this layer's spans.
    pub children: u64,
}

struct Open {
    name: Name,
    start: Instant,
    child_ns: u64,
    children: u64,
    slot: u32,
}

struct State {
    open: Vec<Open>,
    layers: [Acc; LAYERS],
    sites: [Acc; NAMES],
    spans: Vec<Span>,
    dropped: u64,
    op: u64,
}

/// Shared span recorder. See the module docs.
pub struct Tracer {
    epoch: Instant,
    cap: usize,
    active: Cell<bool>,
    state: RefCell<State>,
}

impl Tracer {
    /// A tracer keeping at most `cap` span records (aggregates are
    /// unbounded). Starts inactive.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            cap,
            active: Cell::new(false),
            state: RefCell::new(State {
                open: Vec::with_capacity(8),
                layers: [Acc::default(); LAYERS],
                sites: [Acc::default(); NAMES],
                spans: Vec::with_capacity(cap.min(1 << 16)),
                dropped: 0,
                op: 0,
            }),
        }
    }

    /// Turns span recording on or off.
    pub fn set_active(&self, on: bool) {
        self.active.set(on);
    }

    /// Runs `f` inside a span named `name` when the tracer is active;
    /// otherwise just runs `f`.
    #[inline]
    pub fn time<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.active.get() {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    fn begin(&self, name: Name) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if name.layer() == Layer::Stack && st.open.len() == 1 {
            st.op += 1;
        }
        let parent = st.open.last().map_or(u32::MAX, |o| o.slot);
        let start = Instant::now();
        let slot = if st.spans.len() < self.cap {
            st.spans.push(Span {
                name,
                start: (start - self.epoch).as_nanos() as u64,
                end: 0,
                parent,
                op: if name == Name::Run { 0 } else { st.op },
            });
            (st.spans.len() - 1) as u32
        } else {
            st.dropped += 1;
            u32::MAX
        };
        st.open.push(Open {
            name,
            start,
            child_ns: 0,
            children: 0,
            slot,
        });
    }

    fn end(&self) {
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let o = st.open.pop().expect("span end without begin");
        let dur = (end - o.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(o.child_ns);
        for acc in [
            &mut st.layers[o.name.layer() as usize],
            &mut st.sites[o.name as usize],
        ] {
            acc.calls += 1;
            acc.total_ns += dur;
            acc.self_ns += self_ns;
            acc.children += o.children;
        }
        if let Some(rec) = st.spans.get_mut(o.slot as usize) {
            rec.end = (end - self.epoch).as_nanos() as u64;
        }
        if let Some(parent) = st.open.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
    }

    /// Aggregates of one layer.
    pub fn layer(&self, layer: Layer) -> Acc {
        self.state.borrow().layers[layer as usize]
    }

    /// Aggregates of one call site.
    pub fn site(&self, name: Name) -> Acc {
        self.state.borrow().sites[name as usize]
    }

    /// Span records kept, and spans not kept because the buffer was
    /// full.
    pub fn recorded(&self) -> (usize, u64) {
        let st = self.state.borrow();
        (st.spans.len(), st.dropped)
    }

    /// Writes the kept span records as tab-separated lines
    /// (`name start_ns end_ns parent op`; `parent` is a 0-based data
    /// row index, `-` for none).
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.state.borrow().spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name.label(),
                s.start,
                s.end,
                parent,
                s.op
            )?;
        }
        out.flush()
    }
}

/// The measured cost of tracing itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// Host ns an empty span adds to the interval enclosing it.
    pub span_ns: f64,
    /// Host ns an empty span records as its own duration.
    pub inside_ns: f64,
}

impl TimerCost {
    /// Measures empty spans nested in one outer span, `reps` times, and
    /// keeps the median repetition.
    pub fn calibrate(spans: u32, reps: usize) -> TimerCost {
        let mut samples: Vec<TimerCost> = (0..reps.max(1))
            .map(|_| {
                let t = Tracer::new(0);
                t.set_active(true);
                t.time(Name::Run, || {
                    for _ in 0..spans {
                        t.time(Name::StackRead, || ());
                    }
                });
                let outer = t.layer(Layer::Workload);
                let inner = t.layer(Layer::Stack);
                TimerCost {
                    span_ns: outer.total_ns as f64 / f64::from(spans),
                    inside_ns: inner.total_ns as f64 / f64::from(spans),
                }
            })
            .collect();
        samples.sort_by(|a, b| a.span_ns.total_cmp(&b.span_ns));
        samples[samples.len() / 2]
    }

    /// A layer's self time with the timer's share removed: each of its
    /// own spans records `inside_ns` of timer work, and each direct
    /// child span leaves the rest of `span_ns` in the parent's self
    /// time.
    pub fn net_self_ns(&self, acc: Acc) -> f64 {
        let timer = acc.calls as f64 * self.inside_ns
            + acc.children as f64 * (self.span_ns - self.inside_ns);
        (acc.self_ns as f64 - timer).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_records_parents() {
        let t = Tracer::new(16);
        t.set_active(true);
        t.time(Name::Run, || {
            t.time(Name::StackRead, || {
                t.time(Name::FsMap, || std::hint::black_box(1));
                t.time(Name::DiskService, || std::hint::black_box(2));
            });
            t.time(Name::StackWrite, || ());
        });
        let run = t.layer(Layer::Workload);
        let stack = t.layer(Layer::Stack);
        assert_eq!((run.calls, run.children), (1, 2));
        assert_eq!((stack.calls, stack.children), (2, 2));
        assert_eq!(t.layer(Layer::Simfs).calls, 1);
        assert!(run.self_ns <= run.total_ns - stack.total_ns + 1);
        let st = t.state.borrow();
        let ops: Vec<u64> = st.spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, [0, 1, 1, 1, 2]);
        let parents: Vec<u32> = st.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [u32::MAX, 0, 1, 1, 0]);
    }

    #[test]
    fn buffer_is_bounded_and_inactive_tracer_records_nothing() {
        let t = Tracer::new(2);
        t.time(Name::StackRead, || ());
        assert_eq!(t.layer(Layer::Stack).calls, 0);
        t.set_active(true);
        for _ in 0..5 {
            t.time(Name::StackRead, || ());
        }
        assert_eq!(t.recorded(), (2, 3));
        assert_eq!(t.layer(Layer::Stack).calls, 5);
    }
}
