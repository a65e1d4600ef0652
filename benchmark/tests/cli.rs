//! The command line rejects bad input with a non-zero exit and no
//! result line, instead of running something surprising.

use rb_benchmark::{parse_args, Args, WorkloadName};
use std::process::Command;

fn parse(args: &[&str]) -> Result<Option<Args>, String> {
    parse_args(args.iter().map(|s| s.to_string()))
}

#[test]
fn parses_a_full_command_line() {
    let args = parse(&[
        "--workload",
        "fileserver-8p",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid")
    .expect("not help");
    assert_eq!(
        args,
        Args {
            workload: WorkloadName::Fileserver8p,
            seed: 7,
            seconds: 3,
            trace: true,
        }
    );
    assert_eq!(parse(&["--help"]), Ok(None));
}

#[test]
fn rejects_bad_input() {
    for bad in [
        &["--workload", "randread-hot"][..],
        &["--seed", "1"],
        &["--workload", "nope", "--seed", "1"],
        &["--workload", "randread-hot", "--seed"],
        &["--workload", "randread-hot", "--seed", "--trace", "1"],
        &["--workload", "randread-hot", "--seed", "x"],
        &["--workload", "randread-hot", "--seed", "1", "--trace", "2"],
        &[
            "--workload",
            "randread-hot",
            "--seed",
            "1",
            "--seconds",
            "0",
        ],
        &["--workload", "randread-hot", "--seed", "1", "--seed", "2"],
        &["--workload", "randread-hot", "--seed", "1", "--out", "x"],
        &["--workload", "randread-hot", "--seed", "1", "extra"],
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn binary_exits_non_zero_without_a_result_on_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_rb-benchmark"))
        .args(["--workload", "randread-hot", "--seed", "1", "--bogus", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
