//! The PR 9 robustness battery: deterministic fault plans end to end.
//!
//! Six disciplines, per the fault-axis contract:
//!
//! 1. Faults off is not a different mode — it is byte-identity with the
//!    committed goldens, and an explicitly healthy axis value changes
//!    nothing either.
//! 2. Every engine (serial, scheduled, open-loop) keeps the outcome
//!    ledger conserved: `attempted = succeeded + retried_ok + gave_up +
//!    dropped`.
//! 3. Faulted campaigns stay byte-identical at any `--jobs` count.
//! 4. Fault plans are a pure function of the seed: same seed, same
//!    ledger; a different seed actually moves the injected faults.
//! 5. Crash-at-instant on the journaling file systems recovers via
//!    journal replay and leaves metadata consistent under the
//!    fsck-style walk.
//! 6. A sticky bad block exhausts a bounded retry budget exactly:
//!    N retries per op, then the op is given up, never aborting the
//!    run.

use rocketbench::core::campaign::{run_campaign, Personality, SweepSpec};
use rocketbench::core::prelude::*;
use rocketbench::core::testbed;
use rocketbench::faults::{FaultSpec, OutcomeLedger, RetryPolicy};
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The same small sweep `tests/golden/sweep_small.csv` was captured
/// from, with the fault axis injectable.
fn small_sweep_spec(faults: Vec<Option<FaultSpec>>, retry: RetryPolicy) -> SweepSpec {
    let mut plan = RunPlan::quick(0);
    plan.protocol = Protocol::FixedRuns(2);
    plan.duration = Nanos::from_secs(2);
    SweepSpec {
        name: "sweep".into(),
        personalities: vec![
            Personality::parse("randomread").unwrap(),
            Personality::parse("varmail").unwrap(),
        ],
        traces: Vec::new(),
        file_sizes: vec![Bytes::mib(16)],
        file_counts: vec![25],
        filesystems: vec![FsKind::Ext2, FsKind::Xfs],
        cache_capacities: vec![Bytes::mib(32)],
        processes: vec![1],
        arrivals: Vec::new(),
        faults,
        retry,
        slo_p99: None,
        plan,
        device: Bytes::gib(2),
        run_budget: None,
    }
}

fn engine_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        duration: Nanos::from_secs(2),
        window: Nanos::from_secs(1),
        seed,
        cold_start: true,
        prewarm: false,
        cpu_jitter_sigma: 0.0,
        max_errors: 50,
        processes: 1,
        cores: 4,
        arrival: Arrival::Closed,
        obs: ObsConfig::default(),
        faults: None,
        retry: RetryPolicy::None,
    }
}

fn run_with(cfg: &EngineConfig, fs: FsKind) -> Recording {
    let mut target = testbed::paper_fs(fs, Bytes::gib(1), cfg.seed);
    let workload = personalities::fileserver(25);
    Engine::run(&mut target, &workload, cfg).expect("engine run")
}

fn ledger_of(rec: &Recording) -> &OutcomeLedger {
    let l = rec.ledger.as_ref().expect("faulted run records a ledger");
    assert!(
        l.balanced(),
        "ledger must conserve: attempted {} = ok {} + retried {} + gave-up {} + dropped {}",
        l.attempted,
        l.succeeded,
        l.retried_ok,
        l.gave_up,
        l.dropped
    );
    l
}

// ---------------------------------------------------------------- 1 --

/// With no fault axis at all, the sweep CSV matches the committed
/// golden byte for byte — and listing the healthy value explicitly
/// (`--faults none`) changes neither keys nor bytes.
#[test]
fn faults_off_is_byte_identical_with_goldens() {
    let expected = golden("sweep_small.csv");
    let implicit = run_campaign(&small_sweep_spec(Vec::new(), RetryPolicy::None), 2).unwrap();
    assert_eq!(implicit.to_csv(), expected, "pre-axis CSV drifted");
    let explicit = run_campaign(&small_sweep_spec(vec![None], RetryPolicy::None), 2).unwrap();
    assert_eq!(
        explicit.to_csv(),
        expected,
        "an explicitly healthy fault axis must not change report bytes"
    );
    assert_eq!(
        implicit.to_json().to_string(),
        explicit.to_json().to_string()
    );
    for cell in &explicit.cells {
        assert!(
            !cell.cell.key().contains("|faults="),
            "healthy cells must keep their pre-axis key: {}",
            cell.cell.key()
        );
        assert!(cell.ledger.is_none(), "healthy cells carry no ledger");
    }
}

/// A healthy engine run records no ledger, so bench output cannot grow
/// ledger lines unless faults were requested.
#[test]
fn healthy_runs_record_no_ledger() {
    let rec = run_with(&engine_cfg(3), FsKind::Ext2);
    assert!(rec.ledger.is_none());
}

// ---------------------------------------------------------------- 2 --

/// All three engines conserve the ledger under a mixed fault plan, for
/// every retry policy.
#[test]
fn ledger_conserves_across_all_three_engines() {
    let spec = FaultSpec::parse("slow-disk:2x,eio:0.001").unwrap();
    for retry in [RetryPolicy::Bounded { retries: 2 }, RetryPolicy::Continue] {
        for (processes, arrival) in [
            (1u32, Arrival::Closed),               // serial engine
            (4, Arrival::Closed),                  // discrete-event scheduler
            (2, Arrival::Poisson { rate: 2_000 }), // open loop
        ] {
            let mut cfg = engine_cfg(7);
            cfg.faults = Some(spec);
            cfg.retry = retry;
            cfg.processes = processes;
            cfg.arrival = arrival;
            let rec = run_with(&cfg, FsKind::Ext2);
            let l = ledger_of(&rec);
            assert!(
                l.attempted > 0,
                "procs={processes} arrival={arrival:?} did no work"
            );
            if arrival.is_open() {
                let open = rec.open_loop.as_ref().expect("open-loop report");
                assert_eq!(
                    l.dropped, open.dropped,
                    "queue-shed arrivals enter the ledger as dropped"
                );
            } else {
                assert_eq!(l.dropped, 0, "closed loops never drop");
            }
        }
    }
}

// ---------------------------------------------------------------- 3 --

/// A faulted campaign is byte-identical at any worker count, and its
/// faulted cells carry the `|faults=` key marker plus a merged,
/// balanced ledger.
#[test]
fn faulted_campaign_is_jobs_deterministic() {
    let plan = FaultSpec::parse("slow-disk:4x,eio:0.0005").unwrap();
    let spec = small_sweep_spec(vec![None, Some(plan)], RetryPolicy::Bounded { retries: 3 });
    let one = run_campaign(&spec, 1).unwrap();
    let four = run_campaign(&spec, 4).unwrap();
    assert_eq!(one.to_csv(), four.to_csv(), "CSV drifted across --jobs");
    assert_eq!(
        one.to_json().to_string(),
        four.to_json().to_string(),
        "JSON drifted across --jobs"
    );
    assert!(one.sweeps_faults());
    let csv = one.to_csv();
    assert!(csv.lines().next().unwrap().contains("faults"));
    let faulted: Vec<_> = one
        .cells
        .iter()
        .filter(|c| c.cell.faults.is_some())
        .collect();
    assert_eq!(faulted.len(), one.cells.len() / 2);
    for cell in faulted {
        assert!(cell.cell.key().contains("|faults=slow-disk:4x,eio:0.0005"));
        let l = cell.ledger.as_ref().expect("faulted cell has a ledger");
        assert!(l.balanced(), "campaign-merged ledger must conserve");
        assert!(l.attempted > 0);
    }
}

// ---------------------------------------------------------------- 4 --

/// Fault injection is a pure function of the seed: rerunning reproduces
/// the ledger exactly, and a different seed moves the faults.
#[test]
fn fault_plan_is_seed_deterministic_and_seed_sensitive() {
    let spec = FaultSpec::parse("eio:0.002").unwrap();
    let run = |seed: u64| {
        let mut cfg = engine_cfg(seed);
        cfg.faults = Some(spec);
        cfg.retry = RetryPolicy::Bounded { retries: 2 };
        let rec = run_with(&cfg, FsKind::Ext3);
        ledger_of(&rec).clone()
    };
    let a = run(11);
    assert_eq!(a, run(11), "same seed must reproduce the ledger exactly");
    let b = run(12);
    assert!(
        a != b,
        "a different seed should move the injected faults (ledger {a:?})"
    );
    assert!(
        a.retries + a.gave_up + a.retried_ok > 0,
        "the plan should actually inject at this error rate: {a:?}"
    );
}

// ---------------------------------------------------------------- 5 --

/// Crash-at-instant on the journaling file systems: the run records a
/// crash report, recovery goes through journal replay, the post-crash
/// fsck-style walk passes, and recovery time shows up as degraded mode.
#[test]
fn crash_then_recover_leaves_journaling_fs_consistent() {
    for fs in [FsKind::Ext3, FsKind::Xfs] {
        let mut cfg = engine_cfg(5);
        cfg.faults = Some(FaultSpec::parse("crash:200ms").unwrap());
        cfg.retry = RetryPolicy::Continue;
        let rec = run_with(&cfg, fs);
        let l = ledger_of(&rec);
        let crash = l.crash.as_ref().expect("crash plan records a report");
        assert_eq!(
            crash.mechanism, "journal-replay",
            "{fs:?} recovers via its journal"
        );
        assert!(
            crash.consistent,
            "{fs:?} metadata must walk clean after recovery"
        );
        assert!(crash.at >= Nanos::from_millis(200));
        assert!(
            l.degraded >= crash.recovery,
            "recovery time counts as degraded mode"
        );
    }
    // ext2 has no journal: same crash, fsck-scan mechanism instead.
    let mut cfg = engine_cfg(5);
    cfg.faults = Some(FaultSpec::parse("crash:200ms").unwrap());
    cfg.retry = RetryPolicy::Continue;
    let rec = run_with(&cfg, FsKind::Ext2);
    let crash = ledger_of(&rec).crash.expect("ext2 crash report");
    assert_eq!(crash.mechanism, "fsck-scan");
    assert!(crash.consistent);
}

/// The crash verdict surfaces in campaign reports as a column.
#[test]
fn crash_verdict_reaches_campaign_reports() {
    let mut spec = small_sweep_spec(
        vec![Some(FaultSpec::parse("crash:150ms").unwrap())],
        RetryPolicy::Continue,
    );
    spec.personalities = vec![Personality::parse("varmail").unwrap()];
    spec.filesystems = vec![FsKind::Ext3];
    spec.plan.protocol = Protocol::FixedRuns(1);
    let report = run_campaign(&spec, 1).unwrap();
    let csv = report.to_csv();
    assert!(csv.lines().next().unwrap().ends_with("crash"));
    assert!(
        csv.contains("recovered"),
        "crash cell must report its verdict: {csv}"
    );
    assert!(report.render().contains("recovered"));
}

// ---------------------------------------------------------------- 6 --

/// A certain sticky bad block gives up after exactly N retries: with
/// `eio-sticky:1` every media request fails, so every attempted op
/// burns its full bounded budget and is given up — `retries == N *
/// gave_up`, nothing succeeds, and the run still completes instead of
/// aborting.
#[test]
fn sticky_eio_gives_up_after_exactly_n_retries() {
    const N: u32 = 3;
    let mut cfg = engine_cfg(9);
    cfg.duration = Nanos::from_secs(1);
    cfg.faults = Some(FaultSpec::parse("eio-sticky:1").unwrap());
    cfg.retry = RetryPolicy::Bounded { retries: N };
    let mut target = testbed::paper_ext2(Bytes::gib(1), cfg.seed);
    // A single-file read workload: every op wants the same blocks, so
    // every op re-hits poisoned media.
    let workload = personalities::random_read(Bytes::mib(8));
    let rec = Engine::run(&mut target, &workload, &cfg).expect("run survives total media failure");
    let l = ledger_of(&rec);
    assert!(l.attempted > 0);
    assert_eq!(l.succeeded, 0, "no media read can succeed");
    assert_eq!(l.retried_ok, 0, "sticky errors never clear on retry");
    assert_eq!(l.gave_up, l.attempted, "every op exhausts its budget");
    assert_eq!(
        l.retries,
        l.gave_up * N as u64,
        "exactly N retries per given-up op"
    );
}

/// Runs the single-file read workload under `spec` with a bounded
/// budget of three retries, serially.
fn sticky_read_run(spec: &str) -> Recording {
    let mut cfg = engine_cfg(9);
    cfg.duration = Nanos::from_secs(1);
    cfg.faults = Some(FaultSpec::parse(spec).unwrap());
    cfg.retry = RetryPolicy::Bounded { retries: 3 };
    let mut target = testbed::paper_ext2(Bytes::gib(1), cfg.seed);
    let workload = personalities::random_read(Bytes::mib(8));
    Engine::run(&mut target, &workload, &cfg).expect("run survives total media failure")
}

/// A given-up op still pays its backoff on the serial clock, so the
/// degraded time (here all backoff) fits inside the run it was spent
/// in.
#[test]
fn given_up_ops_pay_their_backoff() {
    let rec = sticky_read_run("eio-sticky:1");
    let l = ledger_of(&rec);
    assert_eq!(l.gave_up, l.attempted);
    assert!(
        l.degraded <= rec.duration,
        "degraded {:?} exceeds the run's {:?}",
        l.degraded,
        rec.duration
    );
}

/// Crash recovery is charged even when the first op past the crash
/// fails: under a certain sticky bad block every op gives up, and the
/// crashed run loses the recovery's worth of attempts.
#[test]
fn crash_recovery_is_charged_when_the_next_op_fails() {
    let plain = sticky_read_run("eio-sticky:1");
    let crashed = sticky_read_run("eio-sticky:1,crash:200ms");
    let (p, c) = (ledger_of(&plain), ledger_of(&crashed));
    assert_eq!(
        c.succeeded + c.retried_ok,
        0,
        "the op past the crash failed"
    );
    let recovery = c.crash.expect("crash plan records a report").recovery;
    let cycle = plain.duration.as_nanos() / p.attempted;
    let lost = (p.attempted - c.attempted) * cycle;
    assert!(
        lost.abs_diff(recovery.as_nanos()) <= cycle,
        "lost {lost} ns of attempts for a {recovery:?} recovery"
    );
}

// ------------------------------------------------------- CLI parsing --

/// The parse/label round-trip behind one-line CLI errors: canonical
/// labels re-parse to the same plan, and malformed flags come back as
/// `Err(String)`, never a panic.
#[test]
fn flag_round_trips_and_malformed_flags_never_panic() {
    for s in [
        "slow-disk:4x",
        "stall:500ms/50ms",
        "eio:0.0001",
        "eio-sticky:0.5",
        "enospc:90%",
        "crash:250ms",
        "slow-disk:2x,eio:0.001,crash:1000ms",
    ] {
        let spec = FaultSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(FaultSpec::parse(&spec.label()).unwrap(), spec);
    }
    assert_eq!(FaultSpec::parse_flag("none").unwrap(), None);
    assert_eq!(FaultSpec::parse_flag("  ").unwrap(), None);
    for bad in ["slow-disk", "slow-disk:0x", "eio:2", "crash:never", "x:1"] {
        let err = FaultSpec::parse(bad).expect_err(bad);
        assert!(!err.contains('\n'), "one-line error for {bad:?}: {err}");
    }
    for p in ["none", "bounded:1", "bounded:100", "continue"] {
        let policy = RetryPolicy::parse(p).unwrap();
        assert_eq!(RetryPolicy::parse(&policy.to_string()).unwrap(), policy);
    }
    for bad in ["bounded:0", "bounded:101", "sometimes"] {
        let err = RetryPolicy::parse(bad).expect_err(bad);
        assert!(!err.contains('\n'), "one-line error for {bad:?}: {err}");
    }
}
