//! Host-speed normalisation of host times.
//!
//! On a shared host, other tenants slow the benchmark by up to ~1.8x
//! for seconds at a time (measured on a 2-vCPU VM: a fixed hash-map
//! kernel alternates between ~15 and ~25 ms per run). Raw run times
//! then spread by 20-30% between executions, far more than any bound a
//! benchmark could usefully hold. Every measured run is therefore
//! bracketed by a fixed reference kernel that depends on the standard
//! library only, so no change to rocketbench moves it; the run's host
//! times are scaled by `NOMINAL_MS / mean(reference before, reference
//! after)`. A change that makes rocketbench 10% faster still shows as
//! 10% faster; a busier host cancels out as long as it slows the
//! reference and the run alike.

use std::collections::HashMap;
use std::time::Instant;

/// The reference kernel's host time on an unloaded host of the kind
/// the benchmark was tuned on; normalised times read as host times on
/// such a host.
pub const NOMINAL_MS: f64 = 15.0;

/// Runs the reference kernel once (800,000 updates of a 65,536-key
/// `HashMap` at pseudo-random keys) and returns its host time in ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..800_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & 0xFFFF).or_insert(0) += i;
    }
    std::hint::black_box(&map);
    t.elapsed().as_secs_f64() * 1e3
}

/// Brackets consecutive runs with the reference kernel.
pub struct HostSpeed {
    last: f64,
    factors: Vec<f64>,
}

impl HostSpeed {
    /// Measures the first reference.
    pub fn new() -> HostSpeed {
        HostSpeed {
            last: reference_ms(),
            factors: Vec::new(),
        }
    }

    /// Measures the reference again and returns the factor that
    /// normalises host times measured since the previous call.
    pub fn factor(&mut self) -> f64 {
        let now = reference_ms();
        let f = NOMINAL_MS / ((self.last + now) / 2.0);
        self.last = now;
        self.factors.push(f);
        f
    }

    /// The factors returned so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}
