//! The rocketbench repository benchmark: host-time end-to-end metrics
//! for three workloads, and an outside-in traced run that attributes
//! host time to layers. See `README.md` in this directory for every
//! metric, its unit and time base, and the workload rationale.

pub mod engine;
pub mod speed;
pub mod sweep;
pub mod trace;
pub mod wrap;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// 8 KiB random reads of a cached 256 MiB file.
    RandreadHot,
    /// The fileserver mix, 8 processes, file set 2.5x the cache.
    Fileserver8p,
    /// A campaign grid, cold then warm through the result store.
    CampaignSweep,
}

impl WorkloadName {
    /// Every workload, in documentation order.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::RandreadHot,
        WorkloadName::Fileserver8p,
        WorkloadName::CampaignSweep,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::RandreadHot => "randread-hot",
            WorkloadName::Fileserver8p => "fileserver-8p",
            WorkloadName::CampaignSweep => "campaign-sweep",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadName,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: u64,
    /// Run the traced, per-layer measurement instead of the end-to-end
    /// one.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: rb-benchmark --workload randread-hot|fileserver-8p|campaign-sweep \
--seed N [--seconds S (1-3600, default 10)] [--trace 0|1 (default 0)]";

/// Parses `--flag value` pairs (program name excluded). `Ok(None)`
/// means `--help`. Unknown flags, repeated flags, missing or malformed
/// values and a missing `--workload` or `--seed` are errors.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        if slot.is_some() {
            return Err(format!("`{flag}` given twice"));
        }
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        *slot = Some(value);
    }
    let workload = workload.ok_or("`--workload` is required")?;
    let workload = WorkloadName::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = seed
        .ok_or("`--seed` is required")?
        .parse::<u64>()
        .map_err(|e| format!("bad `--seed`: {e}"))?;
    let seconds = match seconds {
        None => 10,
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|s| (1..=3600).contains(s))
            .ok_or_else(|| format!("bad `--seconds` `{s}`: expected 1 to 3600"))?,
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad `--trace` `{t}`: expected 0 or 1")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}
