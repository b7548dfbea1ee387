//! The bench binaries' command lines: `--help` succeeds, and a bad
//! command, flag or input file is reported as one `error:` line and exit
//! status 2 instead of succeeding silently or panicking.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn bench_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(args)
        .output()
        .expect("bench-report binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf8 output")
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = experiments(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(text(&out.stdout).starts_with("commands: "), "{flag}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_command_prints_usage_on_stderr_and_exits_2() {
    let out = experiments(&["fgi2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = text(&out.stderr);
    assert!(err.starts_with("error: unknown command fgi2\n"), "{err}");
    assert!(err.contains("commands: "), "{err}");
}

#[test]
fn bad_flags_print_one_error_line_and_exit_2() {
    for (args, expected) in [
        (&["fig2", "--bogus"][..], "error: unknown flag --bogus\n"),
        (&["fig2", "--reps"][..], "error: --reps takes a value\n"),
        (
            &["fig2", "--seed", "x"][..],
            "error: --seed takes a number, not \"x\"\n",
        ),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(text(&out.stderr), expected, "{args:?}");
    }
}

#[test]
fn bench_report_help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = bench_report(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(
            text(&out.stdout).starts_with("usage: bench-report"),
            "{flag}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn bench_report_bad_flags_print_one_error_line_and_exit_2() {
    for (args, expected) in [
        (&["--bogus"][..], "error: unknown flag --bogus\n"),
        (&["--seed"][..], "error: --seed takes a value\n"),
        (
            &["--seed", "x"][..],
            "error: --seed takes a number, not \"x\"\n",
        ),
        (
            &["--jobs", "y"][..],
            "error: --jobs takes a number, not \"y\"\n",
        ),
        (
            &["--tolerance", "z"][..],
            "error: --tolerance takes a number, not \"z\"\n",
        ),
    ] {
        let out = bench_report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(text(&out.stderr), expected, "{args:?}");
    }
}

#[test]
fn unreadable_files_print_one_error_line_and_exit_2() {
    let missing = "/nonexistent/aimes-cli-args";
    for (out, what) in [
        (experiments(&["analyze", missing]), "analyze"),
        (
            experiments(&["campaign-report", missing]),
            "campaign-report",
        ),
        (
            experiments(&["analytics-diff", missing, "/x"]),
            "analytics-diff",
        ),
        (bench_report(&["--check", missing]), "bench-report --check"),
    ] {
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(out.stdout.is_empty(), "{what}");
        let err = text(&out.stderr);
        assert!(
            err.starts_with(&format!("error: cannot read {missing}: ")),
            "{what}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{what}: {err}");
    }
}
