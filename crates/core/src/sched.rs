//! The discrete-event process scheduler: concurrency as a substrate.
//!
//! The paper's fifth dimension — scaling under concurrent load — used
//! to be faked by a sidecar simulation (the old `scaling::run_point`,
//! deleted in this refactor): one file, uniform 8 KiB reads, its own
//! private cache and disk plumbing. This module promotes that buried
//! logic into the substrate every driver shares: N simulated processes
//! run closed loops over *any* workload against the *real* storage
//! stack, contending for
//!
//! * **cores** — each operation's think phase (the engine's per-op
//!   framework overhead, [`SchedConfig::think`]) claims the
//!   earliest-free core token and queues behind other processes when
//!   all cores are busy ([`CoreSet`]). The stack-level CPU residue
//!   ([`OpCost::cpu`]: syscall entry + memory copies, a few µs) is
//!   charged to the process's own timeline without a token — it is
//!   small against the framework overhead and letting it overlap keeps
//!   the event pump simple;
//! * **the device** — each operation's media phase serializes on the
//!   shared spindle behind both other processes' I/O and background
//!   writeback ([`DeviceQueue`]).
//!
//! Operations execute against the shared stack through the
//! time-parameterized [`Target`](crate::target::Target) interface
//! (`*_at`), which mutates cache/fs/device state at an explicit
//! instant and hands the decomposed [`OpCost`] back to the scheduler
//! instead of advancing a private clock.
//!
//! Determinism is load-bearing, exactly as in the campaign engine: the
//! interleaving is a pure function of (workload, config, seed). Events
//! pop from the shared [`EventQueue`] in time order with FIFO tie-break,
//! core claims resolve ties toward the lowest-index core, and each
//! process draws from its own forked RNG stream, so adding draws in one
//! process never perturbs another.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::events::EventQueue;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simfs::stack::OpCost;
use std::collections::VecDeque;

// The contention tokens live next to the event queue in rb-simcore so
// every driver — including the replay crate, which rb-core depends on
// and therefore cannot import from it — shares one implementation.
pub use rb_simcore::events::{CoreSet, DeviceQueue};

/// Closed-loop scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Concurrent closed-loop processes.
    pub processes: u32,
    /// CPU cores available to them.
    pub cores: u32,
    /// Virtual instant the measured phase starts (the target clock's
    /// position when the scheduler takes over).
    pub start: Nanos,
    /// Measured duration: processes stop issuing once `start + duration`
    /// is reached, and in-flight operations drain.
    pub duration: Nanos,
    /// Per-operation framework overhead claimed on a core before the
    /// operation itself executes (the flowop engine's `op_overhead`).
    pub think: Nanos,
    /// Background-flusher cadence ([`Nanos::ZERO`] disables ticks).
    pub tick_every: Nanos,
}

/// One operation's life, reported to the caller at its completion
/// instant. Completions are delivered in completion-time order (FIFO
/// among ties), which is what lets the caller feed windowed series
/// directly.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The process that ran the operation.
    pub process: u32,
    /// When the process arrived (started waiting for a core).
    pub arrived: Nanos,
    /// When the operation was issued against the stack (core wait and
    /// think time already paid; `issued - arrived - think` is the core
    /// queueing delay).
    pub issued: Nanos,
    /// The core that served the think phase (for per-core utilization
    /// and trace track ids).
    pub core: u32,
    /// When the operation completed (CPU + queueing + device).
    pub completed: Nanos,
    /// The operation's raw cost, excluding queueing delays.
    pub cost: OpCost,
}

/// A failed operation: its error, and the time it spent before giving
/// up — retry backoff as CPU, crash recovery as device time.
#[derive(Debug)]
pub struct Failed {
    /// Why the operation failed.
    pub error: SimError,
    /// What the attempts cost the process before it gave up.
    pub spent: OpCost,
}

impl From<SimError> for Failed {
    /// A failure that spent nothing.
    fn from(error: SimError) -> Failed {
        Failed {
            error,
            spent: OpCost::default(),
        }
    }
}

/// What the scheduler pops from its event queue.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Process `p` wants to start its next operation.
    Arrive(u32),
    /// Process `p` got its CPU phase; execute the operation now.
    Issue {
        process: u32,
        arrived: Nanos,
        core: u32,
    },
    /// An operation completed (recorded in completion-time order).
    Done {
        process: u32,
        arrived: Nanos,
        issued: Nanos,
        core: u32,
        cost: OpCost,
    },
    /// Background-flusher tick.
    Tick,
}

/// The outcome of a scheduled run.
#[derive(Debug, Clone, Copy)]
pub struct SchedOutcome {
    /// The virtual instant the last completion (or the deadline,
    /// whichever is later) landed at.
    pub finished: Nanos,
}

/// What the scheduler drives: the operation source, the background
/// flusher, and the completion/error observers, bundled as one object
/// so a driver can hold the target and all bookkeeping state behind a
/// single mutable borrow.
pub trait SchedDriver {
    /// Executes `process`'s next operation at instant `now` against the
    /// shared state and returns its decomposed cost. A failure is
    /// routed to [`SchedDriver::on_error`]; what the op spent before it
    /// gave up ([`Failed::spent`]) holds the process exactly like a
    /// completed op's cost, on top of the think time already paid.
    fn exec(&mut self, process: u32, now: Nanos) -> Result<OpCost, Failed>;

    /// Runs the background flusher as of instant `start`, returning the
    /// device time consumed. The scheduler charges it to the shared
    /// device queue, so writeback interference delays process I/O
    /// exactly as it does in the serial engine.
    fn tick(&mut self, start: Nanos) -> Nanos;

    /// Observes one successful operation. Completions arrive in
    /// completion-time order (FIFO among ties). Returning an error
    /// aborts the run.
    fn on_complete(&mut self, completion: &Completion) -> SimResult<()>;

    /// Observes one failed operation at its issue instant. Returning an
    /// error aborts the run (e.g. the engine's consecutive-failure
    /// limit).
    fn on_error(&mut self, process: u32, now: Nanos, error: SimError) -> SimResult<()>;

    /// Publishes the shared device queue's next-free instant to the
    /// driver, immediately before each [`SchedDriver::exec`]. A target
    /// with a mechanical device model can then evaluate seek distance
    /// at *actual service start* rather than at issue — without this, a
    /// request issued while the device is busy would charge the seek
    /// from wherever the head was at issue time, not where the queued
    /// work leaves it. Drivers without a positional device ignore it.
    fn set_device_floor(&mut self, _floor: Nanos) {}
}

/// Reusable event-pump state: the event queues and per-run buffers
/// that used to be rebuilt (and re-grown from empty) on every run.
///
/// A campaign executes thousands of scheduled runs back to back; with
/// a scratch held across them, each run starts with pre-sized arenas
/// ([`EventQueue::clear`] keeps the allocation and resets the FIFO
/// counter, so reuse is observationally identical to a fresh queue).
#[derive(Debug, Default)]
pub struct SchedScratch {
    closed: EventQueue<Event>,
    open: EventQueue<OpenEvent>,
    pending: VecDeque<Nanos>,
    idle: Vec<bool>,
    samples: Vec<(Nanos, u32)>,
}

thread_local! {
    /// Per-thread scratch behind the plain `run_closed_loop` /
    /// `run_open_loop` entry points, so every caller gets queue reuse
    /// without threading a scratch through its signature.
    static SCRATCH: std::cell::RefCell<SchedScratch> =
        std::cell::RefCell::new(SchedScratch::default());
}

/// Drives `config.processes` closed-loop workers over a shared target.
///
/// The schedule is a pure function of the inputs: same driver state,
/// same config — byte-identical event order.
pub fn run_closed_loop<D: SchedDriver + ?Sized>(
    config: &SchedConfig,
    driver: &mut D,
) -> SimResult<SchedOutcome> {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => run_closed_loop_in(&mut scratch, config, driver),
        // Re-entrant call (a driver running a nested loop): fall back
        // to a one-shot scratch rather than panicking on the borrow.
        Err(_) => run_closed_loop_in(&mut SchedScratch::default(), config, driver),
    })
}

/// [`run_closed_loop`] against caller-held scratch state.
pub fn run_closed_loop_in<D: SchedDriver + ?Sized>(
    scratch: &mut SchedScratch,
    config: &SchedConfig,
    driver: &mut D,
) -> SimResult<SchedOutcome> {
    let end = config.start + config.duration;
    let queue = &mut scratch.closed;
    queue.clear();
    queue.reserve(config.processes.max(1) as usize + 2);
    let mut cores = CoreSet::new(config.cores);
    let mut device = DeviceQueue::new();
    let mut live = config.processes.max(1);
    let mut finished = end;

    for p in 0..config.processes.max(1) {
        queue.schedule(config.start, Event::Arrive(p));
    }
    if !config.tick_every.is_zero() {
        queue.schedule(config.start + config.tick_every, Event::Tick);
    }

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Arrive(p) => {
                if now >= end {
                    // The process retires; in-flight work drains.
                    live -= 1;
                    continue;
                }
                let (core, cpu_done) = cores.claim_indexed(now, config.think);
                queue.schedule(
                    cpu_done,
                    Event::Issue {
                        process: p,
                        arrived: now,
                        core,
                    },
                );
            }
            Event::Issue {
                process,
                arrived,
                core,
            } => match issue(driver, &mut device, process, now)? {
                (completed, Some(cost)) => queue.schedule(
                    completed,
                    Event::Done {
                        process,
                        arrived,
                        issued: now,
                        core,
                        cost,
                    },
                ),
                // A failed op rearrives once its spent time is paid.
                (released, None) => queue.schedule(released, Event::Arrive(process)),
            },
            Event::Done {
                process,
                arrived,
                issued,
                core,
                cost,
            } => {
                finished = finished.max(now);
                driver.on_complete(&Completion {
                    process,
                    arrived,
                    issued,
                    core,
                    completed: now,
                    cost,
                })?;
                queue.schedule(now, Event::Arrive(process));
            }
            Event::Tick => {
                if live == 0 || now >= end {
                    // Every process has retired, or the deadline has
                    // passed and only in-flight work is draining: a
                    // flusher pass now would charge device time past
                    // the horizon and inflate the virtual end-time of
                    // short runs. Stop rescheduling and let the queue
                    // drain.
                    continue;
                }
                tick(driver, &mut device, now);
                queue.schedule(now + config.tick_every, Event::Tick);
            }
        }
    }
    Ok(SchedOutcome { finished })
}

/// The Issue step both pumps share: executes `process`'s operation at
/// `now` and returns the instant it releases the process (CPU on the
/// process's own timeline, then the shared device queue) with the cost
/// of a success. A failed op is routed to [`SchedDriver::on_error`],
/// yields no cost, and is released once its spent time is charged the
/// same way.
fn issue<D: SchedDriver + ?Sized>(
    driver: &mut D,
    device: &mut DeviceQueue,
    process: u32,
    now: Nanos,
) -> SimResult<(Nanos, Option<OpCost>)> {
    driver.set_device_floor(device.next_free());
    let (cost, ok) = match driver.exec(process, now) {
        Ok(cost) => (cost, true),
        Err(failed) => {
            driver.on_error(process, now, failed.error)?;
            (failed.spent, false)
        }
    };
    let after_cpu = now + cost.cpu;
    let released = if cost.device.is_zero() {
        after_cpu
    } else {
        device.serve(after_cpu, cost.device)
    };
    Ok((released, ok.then_some(cost)))
}

/// The Tick step both pumps share: one flusher pass starting when the
/// device frees up, its media time charged to the device queue.
fn tick<D: SchedDriver + ?Sized>(driver: &mut D, device: &mut DeviceQueue, now: Nanos) {
    let start = device.next_free().max(now);
    let spent = driver.tick(start);
    if !spent.is_zero() {
        device.serve(start, spent);
    }
}

/// How requests arrive at the system.
///
/// [`Arrival::Closed`] is the classic benchmark loop: each worker
/// issues its next operation the instant the previous one completes,
/// so the offered load always equals the capacity and queueing delay
/// is structurally invisible. The open variants model *offered* load —
/// requests arrive on their own schedule whether or not the system
/// keeps up, which is what exposes the latency-vs-load hockey stick
/// real services live on.
///
/// Rates are whole operations per second (integer, so an arrival mode
/// can sit in hashable cell identities); all randomness comes from a
/// forked, seed-deterministic [`Rng`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arrival {
    /// Closed loop: issue-on-completion, no arrival process.
    Closed,
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1/rate`.
    Poisson {
        /// Mean offered load, operations per second.
        rate: u64,
    },
    /// ON-OFF bursts: alternating 100 ms phases; the ON phase offers
    /// Poisson arrivals at `2 * rate`, the OFF phase offers none, so
    /// the long-run average is `rate`.
    Bursty {
        /// Long-run average offered load, operations per second.
        rate: u64,
    },
    /// Diurnal ramp: instantaneous Poisson rate climbs linearly from
    /// `0.5 * rate` at the start of the run to `1.5 * rate` at the
    /// end (average `rate`) — a compressed day of traffic.
    Diurnal {
        /// Average offered load, operations per second.
        rate: u64,
    },
}

impl Arrival {
    /// Whether this is an open-loop mode (any variant but `Closed`).
    pub fn is_open(self) -> bool {
        !matches!(self, Arrival::Closed)
    }

    /// The configured average rate, when open.
    pub fn rate(self) -> Option<u64> {
        match self {
            Arrival::Closed => None,
            Arrival::Poisson { rate } | Arrival::Bursty { rate } | Arrival::Diurnal { rate } => {
                Some(rate)
            }
        }
    }

    /// The same arrival shape at a different average rate (`Closed`
    /// stays `Closed`) — how the SLO bisection probes a cell.
    pub fn with_rate(self, rate: u64) -> Arrival {
        match self {
            Arrival::Closed => Arrival::Closed,
            Arrival::Poisson { .. } => Arrival::Poisson { rate },
            Arrival::Bursty { .. } => Arrival::Bursty { rate },
            Arrival::Diurnal { .. } => Arrival::Diurnal { rate },
        }
    }

    /// Canonical label: `closed`, `poisson:RATE`, `bursty:RATE`,
    /// `diurnal:RATE`. Stable — it is part of campaign cell keys.
    /// Allocates; key-building hot paths write the identical bytes
    /// through the [`std::fmt::Display`] impl instead.
    pub fn label(self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`Arrival::label`] (also the CLI
    /// `--arrival` syntax). Rates must be positive integers.
    pub fn parse(s: &str) -> Result<Arrival, String> {
        if s == "closed" {
            return Ok(Arrival::Closed);
        }
        let (kind, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("bad arrival {s:?}: expected closed or KIND:RATE"))?;
        let rate: u64 = rate
            .parse()
            .map_err(|_| format!("bad arrival rate {rate:?}: expected ops/sec as an integer"))?;
        if rate == 0 {
            return Err(format!("bad arrival {s:?}: rate must be positive"));
        }
        match kind {
            "poisson" => Ok(Arrival::Poisson { rate }),
            "bursty" => Ok(Arrival::Bursty { rate }),
            "diurnal" => Ok(Arrival::Diurnal { rate }),
            other => Err(format!(
                "unknown arrival process {other:?} (try poisson, bursty, diurnal or closed)"
            )),
        }
    }

    /// Parses one `--arrival` axis entry, which is either a single
    /// [`Arrival::parse`] label or a declarative **rate ladder**
    /// `KIND:LO..HIxFACTOR` — the geometric sequence `LO, LO*FACTOR, …`
    /// up to and including `HI` when the ladder lands on it exactly.
    /// `poisson:1000..16000x2` expands to the five rates
    /// `1000, 2000, 4000, 8000, 16000`, each an ordinary arrival whose
    /// label round-trips through [`Arrival::parse`] — the SLO
    /// hockey-stick grid without enumerating every rung by hand.
    pub fn parse_axis(s: &str) -> Result<Vec<Arrival>, String> {
        let Some((kind, range)) = s.split_once(':').filter(|(_, r)| r.contains("..")) else {
            return Arrival::parse(s).map(|a| vec![a]);
        };
        let (lo, rest) = range
            .split_once("..")
            .expect("checked: range contains `..`");
        let (hi, factor) = rest
            .split_once('x')
            .ok_or_else(|| format!("bad arrival ladder {s:?}: expected KIND:LO..HIxFACTOR"))?;
        let parse_rate = |r: &str| -> Result<u64, String> {
            r.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad arrival ladder rate {r:?}: expected positive ops/sec"))
        };
        let lo = parse_rate(lo)?;
        let hi = parse_rate(hi)?;
        let factor = parse_rate(factor)?;
        if factor < 2 {
            return Err(format!(
                "bad arrival ladder {s:?}: factor must be at least 2"
            ));
        }
        if hi < lo {
            return Err(format!("bad arrival ladder {s:?}: {hi} is below {lo}"));
        }
        let mut rungs = Vec::new();
        let mut rate = lo;
        loop {
            rungs.push(Arrival::parse(&format!("{kind}:{rate}"))?);
            match rate.checked_mul(factor) {
                Some(next) if next <= hi => rate = next,
                _ => break,
            }
        }
        Ok(rungs)
    }
}

impl std::fmt::Display for Arrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arrival::Closed => f.write_str("closed"),
            Arrival::Poisson { rate } => write!(f, "poisson:{rate}"),
            Arrival::Bursty { rate } => write!(f, "bursty:{rate}"),
            Arrival::Diurnal { rate } => write!(f, "diurnal:{rate}"),
        }
    }
}

/// ON-phase length of the bursty arrival process.
const BURST_ON: Nanos = Nanos::from_millis(100);
/// Full ON+OFF period of the bursty arrival process.
const BURST_PERIOD: Nanos = Nanos::from_millis(200);

/// A deterministic arrival-instant generator: a pure function of
/// (arrival mode, RNG stream, run horizon).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    arrival: Arrival,
    rng: Rng,
    start: Nanos,
    duration: Nanos,
}

impl ArrivalGen {
    /// Builds a generator for an open arrival mode over
    /// `[start, start + duration)`. `Closed` is rejected — there is no
    /// arrival process to generate.
    pub fn new(arrival: Arrival, rng: Rng, start: Nanos, duration: Nanos) -> SimResult<ArrivalGen> {
        if !arrival.is_open() {
            return Err(SimError::BadConfig(
                "closed-loop mode has no arrival process".into(),
            ));
        }
        Ok(ArrivalGen {
            arrival,
            rng,
            start,
            duration,
        })
    }

    /// One exponential inter-arrival draw at `rate` ops/sec, floored at
    /// a nanosecond so the generator always makes progress.
    fn exp_gap(&mut self, rate: u64) -> Nanos {
        let mean_ns = 1e9 / rate.max(1) as f64;
        Nanos::from_nanos((self.rng.exponential(mean_ns)).max(1.0) as u64)
    }

    /// The next arrival instant strictly after `t`. Callers stop the
    /// stream once this crosses the run horizon.
    pub fn next_after(&mut self, t: Nanos) -> Nanos {
        match self.arrival {
            Arrival::Closed => unreachable!("ArrivalGen::new rejects Closed"),
            Arrival::Poisson { rate } => t + self.exp_gap(rate),
            Arrival::Bursty { rate } => {
                let mut t = t.max(self.start);
                loop {
                    let phase = Nanos::from_nanos(
                        (t - self.start).as_nanos() % BURST_PERIOD.as_nanos().max(1),
                    );
                    if phase >= BURST_ON {
                        // In the OFF phase: jump to the next ON start.
                        t += BURST_PERIOD - phase;
                        continue;
                    }
                    t += self.exp_gap(rate.saturating_mul(2));
                    let phase = Nanos::from_nanos(
                        (t - self.start).as_nanos() % BURST_PERIOD.as_nanos().max(1),
                    );
                    if phase < BURST_ON {
                        return t;
                    }
                    // The draw crossed into an OFF phase; loop to skip
                    // forward and draw again.
                }
            }
            Arrival::Diurnal { rate } => {
                let elapsed = t.saturating_sub(self.start);
                let frac = if self.duration.is_zero() {
                    0.5
                } else {
                    (elapsed.as_secs_f64() / self.duration.as_secs_f64()).clamp(0.0, 1.0)
                };
                let instantaneous = ((rate as f64) * (0.5 + frac)).max(1.0);
                let mean_ns = 1e9 / instantaneous;
                t + Nanos::from_nanos((self.rng.exponential(mean_ns)).max(1.0) as u64)
            }
        }
    }
}

/// Open-loop scheduler configuration: the closed-loop substrate
/// ([`SchedConfig`], whose `processes` become the service workers) plus
/// the arrival process, the admission queue bound and the queue-depth
/// sampling cadence.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Worker/core/device substrate. `sched.processes` is the number of
    /// service workers; `sched.duration` is the arrival horizon
    /// (in-flight and queued work drains past it).
    pub sched: SchedConfig,
    /// The arrival process (must be open).
    pub arrival: Arrival,
    /// Bounded admission queue: arrivals beyond this many waiting
    /// requests are dropped (counted, never served).
    pub queue_cap: u32,
    /// Queue-depth sampling cadence ([`Nanos::ZERO`] disables the
    /// timeline).
    pub sample_every: Nanos,
}

/// What the open-loop pump pops from its event queue.
#[derive(Debug, Clone, Copy)]
enum OpenEvent {
    /// The next generated request arrives.
    Arrive,
    /// Worker `worker` got its CPU phase; execute the request that
    /// arrived at `arrived` now.
    Issue {
        worker: u32,
        arrived: Nanos,
        core: u32,
    },
    /// A request completed.
    Done {
        worker: u32,
        arrived: Nanos,
        issued: Nanos,
        core: u32,
        cost: OpCost,
    },
    /// A worker whose request failed has paid the time it spent.
    Free(u32),
    /// Background-flusher tick.
    Tick,
    /// Queue-depth sample.
    Sample,
}

/// The outcome of an open-loop run: the end-to-end accounting that a
/// closed loop cannot produce. `offered` always equals
/// `completed + failed + dropped` — every generated request is either
/// served, failed at the target, or rejected at the full queue.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// The virtual instant the last completion (or the deadline,
    /// whichever is later) landed at.
    pub finished: Nanos,
    /// Requests generated by the arrival process within the horizon.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests that reached the target but failed.
    pub failed: u64,
    /// Requests rejected because the admission queue was full.
    pub dropped: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u32,
    /// `(instant - start, queue depth)` samples on the configured
    /// cadence, within the horizon.
    pub depth_timeline: Vec<(Nanos, u32)>,
}

/// Drives an open-loop run: the arrival process feeds a bounded queue
/// in front of `sched.processes` service workers, each serving one
/// request at a time through the same core/device contention model as
/// [`run_closed_loop`].
///
/// [`Completion::arrived`] is the request's *arrival* instant, so the
/// latency a driver records (`completed - arrived`) includes the queue
/// wait — the quantity closed loops structurally hide. The schedule is
/// a pure function of (driver state, config, `arrival_rng`).
pub fn run_open_loop<D: SchedDriver + ?Sized>(
    config: &OpenLoopConfig,
    arrival_rng: Rng,
    driver: &mut D,
) -> SimResult<OpenOutcome> {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => run_open_loop_in(&mut scratch, config, arrival_rng, driver),
        Err(_) => run_open_loop_in(&mut SchedScratch::default(), config, arrival_rng, driver),
    })
}

/// [`run_open_loop`] against caller-held scratch state.
pub fn run_open_loop_in<D: SchedDriver + ?Sized>(
    scratch: &mut SchedScratch,
    config: &OpenLoopConfig,
    arrival_rng: Rng,
    driver: &mut D,
) -> SimResult<OpenOutcome> {
    let sched = &config.sched;
    let end = sched.start + sched.duration;
    let workers = sched.processes.max(1) as usize;
    let queue = &mut scratch.open;
    queue.clear();
    queue.reserve(workers + 3);
    let mut cores = CoreSet::new(sched.cores);
    let mut device = DeviceQueue::new();
    let pending = &mut scratch.pending;
    pending.clear();
    scratch.idle.clear();
    scratch.idle.resize(workers, true);
    let idle = &mut scratch.idle;
    scratch.samples.clear();
    let samples = &mut scratch.samples;
    let mut gen = ArrivalGen::new(config.arrival, arrival_rng, sched.start, sched.duration)?;
    let mut out = OpenOutcome {
        finished: end,
        offered: 0,
        completed: 0,
        failed: 0,
        dropped: 0,
        max_queue_depth: 0,
        depth_timeline: Vec::new(),
    };

    let first = gen.next_after(sched.start);
    if first < end {
        queue.schedule(first, OpenEvent::Arrive);
    }
    if !sched.tick_every.is_zero() {
        queue.schedule(sched.start + sched.tick_every, OpenEvent::Tick);
    }
    if !config.sample_every.is_zero() {
        queue.schedule(sched.start + config.sample_every, OpenEvent::Sample);
    }

    while let Some((now, event)) = queue.pop() {
        // The worker this event frees, if any: it takes the oldest
        // queued request or goes idle.
        let freed = match event {
            OpenEvent::Arrive => {
                out.offered += 1;
                // Lowest-index idle worker first: deterministic, like
                // the core tie-break.
                if let Some(w) = idle.iter().position(|&free| free) {
                    idle[w] = false;
                    let (core, cpu_done) = cores.claim_indexed(now, sched.think);
                    queue.schedule(
                        cpu_done,
                        OpenEvent::Issue {
                            worker: w as u32,
                            arrived: now,
                            core,
                        },
                    );
                } else if (pending.len() as u32) < config.queue_cap {
                    pending.push_back(now);
                    out.max_queue_depth = out.max_queue_depth.max(pending.len() as u32);
                } else {
                    out.dropped += 1;
                }
                let next = gen.next_after(now);
                if next < end {
                    queue.schedule(next, OpenEvent::Arrive);
                }
                None
            }
            OpenEvent::Issue {
                worker,
                arrived,
                core,
            } => match issue(driver, &mut device, worker, now)? {
                (completed, Some(cost)) => {
                    queue.schedule(
                        completed,
                        OpenEvent::Done {
                            worker,
                            arrived,
                            issued: now,
                            core,
                            cost,
                        },
                    );
                    None
                }
                (released, None) => {
                    // The request is consumed (open loops don't retry);
                    // the worker frees once its spent time is paid.
                    out.failed += 1;
                    if released == now {
                        Some(worker)
                    } else {
                        queue.schedule(released, OpenEvent::Free(worker));
                        None
                    }
                }
            },
            OpenEvent::Free(worker) => Some(worker),
            OpenEvent::Done {
                worker,
                arrived,
                issued,
                core,
                cost,
            } => {
                out.finished = out.finished.max(now);
                out.completed += 1;
                driver.on_complete(&Completion {
                    process: worker,
                    arrived,
                    issued,
                    core,
                    completed: now,
                    cost,
                })?;
                Some(worker)
            }
            OpenEvent::Tick => {
                if now >= end {
                    // Same horizon discipline as the closed loop: no
                    // flusher interference while the tail drains.
                    continue;
                }
                tick(driver, &mut device, now);
                queue.schedule(now + sched.tick_every, OpenEvent::Tick);
                None
            }
            OpenEvent::Sample => {
                if now >= end {
                    continue;
                }
                samples.push((now - sched.start, pending.len() as u32));
                queue.schedule(now + config.sample_every, OpenEvent::Sample);
                None
            }
        };
        if let Some(worker) = freed {
            match pending.pop_front() {
                Some(arrived) => {
                    let (core, cpu_done) = cores.claim_indexed(now, sched.think);
                    queue.schedule(
                        cpu_done,
                        OpenEvent::Issue {
                            worker,
                            arrived,
                            core,
                        },
                    );
                }
                None => idle[worker as usize] = true,
            }
        }
    }
    out.depth_timeline = coalesce_depth_timeline(samples);
    Ok(out)
}

/// Fixed upper bound on the entries a reported queue-depth timeline
/// may carry.
pub const DEPTH_TIMELINE_BUCKETS: usize = 256;

/// Coalesces raw queue-depth samples — an unbounded series, one entry
/// per sampling window, that grows without limit on long runs — into at
/// most [`DEPTH_TIMELINE_BUCKETS`] entries. Adjacent samples merge into
/// a bucket reported at the bucket's first instant with the *maximum*
/// depth seen inside it, so backlog peaks survive the summarization.
/// Series that already fit pass through unchanged.
fn coalesce_depth_timeline(samples: &[(Nanos, u32)]) -> Vec<(Nanos, u32)> {
    let n = samples.len();
    if n <= DEPTH_TIMELINE_BUCKETS {
        return samples.to_vec();
    }
    let mut out = Vec::with_capacity(DEPTH_TIMELINE_BUCKETS);
    for b in 0..DEPTH_TIMELINE_BUCKETS {
        let lo = b * n / DEPTH_TIMELINE_BUCKETS;
        let hi = ((b + 1) * n / DEPTH_TIMELINE_BUCKETS).max(lo + 1).min(n);
        let at = samples[lo].0;
        let depth = samples[lo..hi].iter().map(|&(_, d)| d).max().unwrap_or(0);
        out.push((at, depth));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // CoreSet/DeviceQueue have their own unit tests next to their
    // implementation in rb_simcore::events.

    #[test]
    fn arrival_axis_expands_geometric_ladders() {
        let rungs = Arrival::parse_axis("poisson:1000..16000x2").expect("ladder parses");
        let rates: Vec<u64> = rungs.iter().filter_map(|a| a.rate()).collect();
        assert_eq!(rates, [1000, 2000, 4000, 8000, 16000]);
        assert!(rungs.iter().all(|a| matches!(a, Arrival::Poisson { .. })));
        // A ladder that overshoots its top stops at the last rung <= HI.
        let rungs = Arrival::parse_axis("bursty:100..1000x3").expect("ladder parses");
        let rates: Vec<u64> = rungs.iter().filter_map(|a| a.rate()).collect();
        assert_eq!(rates, [100, 300, 900]);
        // Degenerate ladder: LO == HI is the single rung.
        let rungs = Arrival::parse_axis("diurnal:500..500x2").expect("ladder parses");
        assert_eq!(rungs, [Arrival::Diurnal { rate: 500 }]);
    }

    #[test]
    fn arrival_axis_ladder_rungs_round_trip_labels() {
        for rung in Arrival::parse_axis("poisson:250..4000x2").expect("ladder parses") {
            let label = rung.label();
            assert_eq!(Arrival::parse(&label), Ok(rung), "label {label}");
            assert_eq!(Arrival::parse_axis(&label), Ok(vec![rung]));
        }
    }

    #[test]
    fn arrival_axis_plain_labels_unchanged() {
        for label in ["closed", "poisson:2000", "bursty:64", "diurnal:9999"] {
            let axis = Arrival::parse_axis(label).expect("plain label parses");
            assert_eq!(axis, vec![Arrival::parse(label).expect("parses")]);
        }
    }

    #[test]
    fn arrival_axis_rejects_malformed_ladders() {
        for bad in [
            "poisson:1000..16000",  // no factor
            "poisson:1000..500x2",  // reversed bounds
            "poisson:1000..2000x1", // factor below 2
            "poisson:0..2000x2",    // zero rate
            "warble:1..2x2",        // unknown process
            "poisson:a..bx2",       // non-numeric
        ] {
            assert!(Arrival::parse_axis(bad).is_err(), "{bad} should fail");
        }
    }

    /// A scripted test driver: `costs(i)` is the i-th executed op's
    /// outcome; issue order, completions and tick instants are logged.
    struct Script<F: FnMut(u64) -> SimResult<OpCost>> {
        costs: F,
        executed: u64,
        issued: Vec<u32>,
        completions: Vec<Nanos>,
        ticks: Vec<Nanos>,
        errors_seen: u64,
        abort_after_errors: Option<u64>,
    }

    impl<F: FnMut(u64) -> SimResult<OpCost>> Script<F> {
        fn new(costs: F) -> Self {
            Script {
                costs,
                executed: 0,
                issued: Vec::new(),
                completions: Vec::new(),
                ticks: Vec::new(),
                errors_seen: 0,
                abort_after_errors: None,
            }
        }
    }

    impl<F: FnMut(u64) -> SimResult<OpCost>> SchedDriver for Script<F> {
        fn exec(&mut self, process: u32, _now: Nanos) -> Result<OpCost, Failed> {
            self.issued.push(process);
            let i = self.executed;
            self.executed += 1;
            Ok((self.costs)(i)?)
        }

        fn tick(&mut self, start: Nanos) -> Nanos {
            self.ticks.push(start);
            Nanos::ZERO
        }

        fn on_complete(&mut self, completion: &Completion) -> SimResult<()> {
            self.completions.push(completion.completed);
            Ok(())
        }

        fn on_error(&mut self, _process: u32, _now: Nanos, _error: SimError) -> SimResult<()> {
            self.errors_seen += 1;
            match self.abort_after_errors {
                Some(n) if self.errors_seen >= n => {
                    Err(SimError::InvalidOperation("too many failures".into()))
                }
                _ => Ok(()),
            }
        }
    }

    /// Equal-instant events drain FIFO: with several processes arriving
    /// at t=0, the issue order is exactly the process order, repeatably.
    #[test]
    fn equal_instant_events_drain_fifo() {
        let run = || {
            let config = SchedConfig {
                processes: 5,
                cores: 5,
                start: Nanos::ZERO,
                duration: Nanos::from_nanos(1),
                think: Nanos::ZERO,
                tick_every: Nanos::ZERO,
            };
            let mut driver = Script::new(|_| Ok(OpCost::cpu_only(Nanos::from_micros(1))));
            run_closed_loop(&config, &mut driver).unwrap();
            driver.issued
        };
        let order = run();
        assert_eq!(&order[..5], &[0, 1, 2, 3, 4]);
        assert_eq!(order, run());
    }

    #[test]
    fn completions_arrive_in_time_order() {
        let config = SchedConfig {
            processes: 3,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_micros(50),
            think: Nanos::from_micros(3),
            tick_every: Nanos::ZERO,
        };
        // Alternate fast CPU-only and slow device-bound ops so raw
        // completion instants would interleave without the Done events.
        let mut driver = Script::new(|i| {
            Ok(if i % 2 == 0 {
                OpCost {
                    cpu: Nanos::from_micros(1),
                    device: Nanos::from_micros(9),
                }
            } else {
                OpCost::cpu_only(Nanos::from_micros(1))
            })
        });
        run_closed_loop(&config, &mut driver).unwrap();
        assert!(driver.completions.len() > 3);
        assert!(
            driver.completions.windows(2).all(|w| w[0] <= w[1]),
            "completions out of order: {:?}",
            driver.completions
        );
    }

    #[test]
    fn ticks_follow_cadence_and_stop_at_retirement() {
        let config = SchedConfig {
            processes: 1,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(16),
            think: Nanos::from_secs(1),
            tick_every: Nanos::from_secs(5),
        };
        let mut driver = Script::new(|_| Ok(OpCost::cpu_only(Nanos::from_millis(1))));
        run_closed_loop(&config, &mut driver).unwrap();
        // Ticks at 5, 10, 15 s — never falling behind the cadence.
        assert_eq!(driver.ticks.len(), 3, "{:?}", driver.ticks);
    }

    /// A tick popped past the horizon while operations are still in
    /// flight must neither run the flusher nor reschedule: a short run
    /// with one long op used to have its drain inflated by post-horizon
    /// writeback.
    #[test]
    fn ticks_past_the_horizon_are_skipped_during_drain() {
        let config = SchedConfig {
            processes: 1,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(2),
            think: Nanos::from_micros(1),
            tick_every: Nanos::from_secs(5),
        };
        // One op that outlives the whole run: in flight at the 5 s tick.
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(1),
                device: Nanos::from_secs(10),
            })
        });
        run_closed_loop(&config, &mut driver).unwrap();
        assert!(
            driver.ticks.is_empty(),
            "post-horizon tick ran the flusher at {:?}",
            driver.ticks
        );
    }

    #[test]
    fn arrival_labels_round_trip() {
        for a in [
            Arrival::Closed,
            Arrival::Poisson { rate: 5000 },
            Arrival::Bursty { rate: 250 },
            Arrival::Diurnal { rate: 12 },
        ] {
            assert_eq!(Arrival::parse(&a.label()), Ok(a));
        }
        assert!(Arrival::parse("poisson").is_err());
        assert!(Arrival::parse("poisson:0").is_err());
        assert!(Arrival::parse("poisson:-3").is_err());
        assert!(Arrival::parse("sawtooth:100").is_err());
    }

    fn open_config(duration: Nanos, arrival: Arrival, workers: u32, cap: u32) -> OpenLoopConfig {
        OpenLoopConfig {
            sched: SchedConfig {
                processes: workers,
                cores: workers,
                start: Nanos::ZERO,
                duration,
                think: Nanos::from_micros(10),
                tick_every: Nanos::ZERO,
            },
            arrival,
            queue_cap: cap,
            sample_every: Nanos::ZERO,
        }
    }

    /// Every generated request is accounted for: served, failed or
    /// dropped — under overload, with a tiny queue, with errors mixed in.
    #[test]
    fn open_loop_accounting_sums_to_offered() {
        let config = open_config(Nanos::from_secs(1), Arrival::Poisson { rate: 20_000 }, 2, 8);
        // Service slower than arrivals (2 workers x ~10k ops/s max each
        // on device time alone), every 7th op fails.
        let mut driver = Script::new(|i| {
            if i % 7 == 3 {
                Err(SimError::NotFound("flaky".into()))
            } else {
                Ok(OpCost {
                    cpu: Nanos::from_micros(20),
                    device: Nanos::from_micros(120),
                })
            }
        });
        let out = run_open_loop(&config, Rng::new(7).fork("arrivals"), &mut driver).unwrap();
        assert!(out.offered > 0);
        assert!(out.dropped > 0, "overload never filled the 8-slot queue");
        assert!(out.failed > 0);
        assert_eq!(out.offered, out.completed + out.failed + out.dropped);
        assert_eq!(out.completed, driver.completions.len() as u64);
    }

    /// The open-loop schedule is a pure function of (config, seed).
    #[test]
    fn open_loop_is_seed_deterministic() {
        let run = |seed: u64| {
            let config = open_config(
                Nanos::from_millis(200),
                Arrival::Bursty { rate: 5_000 },
                3,
                64,
            );
            let mut driver = Script::new(|i| {
                Ok(OpCost {
                    cpu: Nanos::from_micros(5),
                    device: Nanos::from_micros(50 + (i % 5) * 20),
                })
            });
            let out = run_open_loop(&config, Rng::new(seed).fork("arrivals"), &mut driver).unwrap();
            (out.offered, out.completed, out.dropped, driver.completions)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "seed had no effect on arrivals");
    }

    /// An under-loaded open loop keeps the queue shallow and drops
    /// nothing; latencies (completed - arrived) include no queueing to
    /// speak of.
    #[test]
    fn underload_drops_nothing() {
        let config = open_config(Nanos::from_secs(1), Arrival::Poisson { rate: 500 }, 2, 16);
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(10),
                device: Nanos::from_micros(100),
            })
        });
        let out = run_open_loop(&config, Rng::new(0).fork("arrivals"), &mut driver).unwrap();
        assert_eq!(out.dropped, 0);
        assert!(out.offered > 300, "rate 500/s over 1 s offered too little");
        assert_eq!(out.offered, out.completed);
    }

    /// The depth timeline samples on its cadence, inside the horizon.
    #[test]
    fn depth_timeline_follows_cadence() {
        let mut config = open_config(
            Nanos::from_secs(1),
            Arrival::Poisson { rate: 20_000 },
            1,
            1_000_000,
        );
        config.sample_every = Nanos::from_millis(100);
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(10),
                device: Nanos::from_micros(200),
            })
        });
        let out = run_open_loop(&config, Rng::new(1).fork("arrivals"), &mut driver).unwrap();
        assert_eq!(out.depth_timeline.len(), 9, "{:?}", out.depth_timeline);
        // Saturated at 1 worker: the unbounded queue grows monotonically.
        let depths: Vec<u32> = out.depth_timeline.iter().map(|&(_, d)| d).collect();
        assert!(depths.windows(2).all(|w| w[1] >= w[0]), "{depths:?}");
        // Arrivals keep pushing after the last sample, so the true max
        // is at least the sampled max.
        assert!(out.max_queue_depth >= *depths.iter().max().unwrap());
    }

    /// Each completion's instants form an exact integer partition of
    /// its latency: core wait + think + cpu + device queue wait +
    /// device service == completed - arrived. The flight recorder's
    /// latency decomposition is built on this identity.
    #[test]
    fn completion_decomposition_is_exact() {
        struct Check {
            think: Nanos,
            cores: u32,
            n: u64,
        }
        impl SchedDriver for Check {
            fn exec(&mut self, _p: u32, _now: Nanos) -> Result<OpCost, Failed> {
                Ok(OpCost {
                    cpu: Nanos::from_micros(2),
                    device: Nanos::from_micros(50),
                })
            }
            fn tick(&mut self, _s: Nanos) -> Nanos {
                Nanos::ZERO
            }
            fn on_complete(&mut self, c: &Completion) -> SimResult<()> {
                self.n += 1;
                assert!(c.core < self.cores, "core id out of range");
                let latency = c.completed - c.arrived;
                let core_wait = c.issued - c.arrived - self.think;
                let queue_wait = c.completed - c.issued - c.cost.cpu - c.cost.device;
                assert_eq!(
                    core_wait + self.think + c.cost.cpu + queue_wait + c.cost.device,
                    latency
                );
                Ok(())
            }
            fn on_error(&mut self, _p: u32, _now: Nanos, _e: SimError) -> SimResult<()> {
                Ok(())
            }
        }
        let config = SchedConfig {
            processes: 4,
            cores: 2,
            start: Nanos::ZERO,
            duration: Nanos::from_millis(10),
            think: Nanos::from_micros(5),
            tick_every: Nanos::ZERO,
        };
        let mut closed = Check {
            think: config.think,
            cores: config.cores,
            n: 0,
        };
        run_closed_loop(&config, &mut closed).unwrap();
        assert!(closed.n > 10, "closed loop barely ran: {}", closed.n);

        let open = OpenLoopConfig {
            sched: config,
            arrival: Arrival::Poisson { rate: 100_000 },
            queue_cap: 64,
            sample_every: Nanos::ZERO,
        };
        let mut open_check = Check {
            think: config.think,
            cores: config.cores,
            n: 0,
        };
        run_open_loop(&open, Rng::new(11).fork("arrivals"), &mut open_check).unwrap();
        assert!(open_check.n > 10, "open loop barely ran: {}", open_check.n);
    }

    #[test]
    fn errors_abort_when_handler_says_so() {
        let config = SchedConfig {
            processes: 2,
            cores: 2,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(1),
            think: Nanos::from_micros(10),
            tick_every: Nanos::ZERO,
        };
        let mut driver = Script::new(|_| Err(SimError::NotFound("gone".into())));
        driver.abort_after_errors = Some(5);
        let result = run_closed_loop(&config, &mut driver);
        assert!(result.is_err());
        assert_eq!(driver.errors_seen, 5);
    }

    /// Fails every op after it spent 500 µs of backoff and 500 µs of
    /// recovery.
    struct GiveUp {
        issues: Vec<Nanos>,
    }

    impl SchedDriver for GiveUp {
        fn exec(&mut self, _p: u32, now: Nanos) -> Result<OpCost, Failed> {
            self.issues.push(now);
            Err(Failed {
                error: SimError::NotFound("gone".into()),
                spent: OpCost {
                    cpu: Nanos::from_micros(500),
                    device: Nanos::from_micros(500),
                },
            })
        }
        fn tick(&mut self, _s: Nanos) -> Nanos {
            Nanos::ZERO
        }
        fn on_complete(&mut self, _c: &Completion) -> SimResult<()> {
            unreachable!("every op fails")
        }
        fn on_error(&mut self, _p: u32, _now: Nanos, _e: SimError) -> SimResult<()> {
            Ok(())
        }
    }

    /// A failed op holds its process for the time it spent: each cycle
    /// is think + backoff + recovery, 1010 µs, not the think time alone.
    #[test]
    fn closed_loop_charges_a_failed_ops_spent_time() {
        let config = SchedConfig {
            processes: 1,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_millis(10),
            think: Nanos::from_micros(10),
            tick_every: Nanos::ZERO,
        };
        let mut driver = GiveUp { issues: Vec::new() };
        run_closed_loop(&config, &mut driver).unwrap();
        let want: Vec<Nanos> = (0..10).map(|k| Nanos::from_micros(10 + 1010 * k)).collect();
        assert_eq!(driver.issues, want);
    }

    /// The open loop frees a failed request's worker only once its
    /// spent time is paid, so one saturated worker fails one request
    /// per 1010 µs cycle.
    #[test]
    fn open_loop_charges_a_failed_ops_spent_time() {
        let config = open_config(
            Nanos::from_millis(10),
            Arrival::Poisson { rate: 1_000_000 },
            1,
            1_000_000,
        );
        let mut driver = GiveUp { issues: Vec::new() };
        let out = run_open_loop(&config, Rng::new(3).fork("arrivals"), &mut driver).unwrap();
        assert_eq!(out.completed, 0);
        assert_eq!(out.failed, driver.issues.len() as u64);
        for pair in driver.issues.windows(2) {
            assert!(pair[1] - pair[0] >= Nanos::from_micros(1010), "{pair:?}");
        }
    }
}
