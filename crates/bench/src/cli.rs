//! The command line both bench binaries share: one flag loop for the
//! flags they have in common, and one way to fail. A bad command line or
//! an unreadable file is the caller's mistake, not a crash: one `error:`
//! line on stderr and exit status 2.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// The flags `experiments` and `bench-report` both take.
pub struct Flags {
    pub seed: u64,
    /// Reduced sizes and repetitions for a fast shape check.
    pub quick: bool,
    /// Where the command's main output goes.
    pub out: Option<PathBuf>,
    /// Directory for the telemetry artifacts (Chrome trace, metrics
    /// JSON and CSV).
    pub emit_metrics: Option<PathBuf>,
    /// Campaign manifest path (`campaign.jsonl`): one record per run,
    /// canonicalized to job order at close.
    pub campaign_out: Option<PathBuf>,
    /// Record volatile wall-clock fields (worker index, wall offsets,
    /// phase split, pool record, profile timing). Off by default, so the
    /// default manifest and profile doc are byte-identical at any
    /// worker count.
    pub campaign_timing: bool,
    /// Live status line on stderr. Off by default so campaign stderr
    /// stays byte-identical across worker counts.
    pub progress: bool,
    /// `aimes-profile-v1` output path for the merged per-run engine
    /// profiles of a campaign.
    pub profile_out: Option<PathBuf>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            seed: 20160523, // IPDPS 2016 opening day
            quick: false,
            out: None,
            emit_metrics: None,
            campaign_out: None,
            campaign_timing: false,
            progress: false,
            profile_out: None,
        }
    }
}

/// The arguments still to be read.
pub struct Args(std::iter::Skip<std::env::Args>);

impl Args {
    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.0
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} takes a value")))
    }

    /// The numeric value that follows `flag`.
    pub fn number<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value(flag);
        value
            .parse()
            .unwrap_or_else(|_| fail(&format!("{flag} takes a number, not {value:?}")))
    }
}

/// Parse the process arguments into `flags`. The shared flags are handled here,
/// `--help`/`-h` prints `usage` and exits 0, and `--jobs N` sizes the
/// global worker pool. Every other argument goes to `other`, which
/// returns false for one it does not take.
pub fn parse(usage: &str, flags: &mut Flags, mut other: impl FnMut(&str, &mut Args) -> bool) {
    let mut args = Args(std::env::args().skip(1));
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            "--seed" => flags.seed = args.number(&arg),
            "--quick" => flags.quick = true,
            "--jobs" => {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(args.number(&arg))
                    .build_global()
                    .expect("the worker pool is configured once");
            }
            "--out" => flags.out = Some(args.value(&arg).into()),
            "--emit-metrics" => flags.emit_metrics = Some(args.value(&arg).into()),
            "--campaign-out" => flags.campaign_out = Some(args.value(&arg).into()),
            "--campaign-timing" => flags.campaign_timing = true,
            "--progress" => flags.progress = true,
            "--profile-out" => flags.profile_out = Some(args.value(&arg).into()),
            _ if other(&arg, &mut args) => {}
            _ if arg.starts_with('-') => fail(&format!("unknown flag {arg}")),
            _ => fail(&format!("unexpected argument {arg}")),
        }
    }
}

/// Print one `error:` line on stderr and exit with status 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A file the command line named could not be read or written.
pub fn file_error(action: &str, path: &Path, e: impl Display) -> ! {
    fail(&format!("cannot {action} {}: {e}", path.display()))
}

/// Read a whole file, or fail with one `error:` line.
pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| file_error("read", path, e))
}

/// Write a whole file, or fail with one `error:` line.
pub fn write(path: &Path, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| file_error("write", path, e))
}

/// Create `path` and fill it through a buffered writer, flushed before
/// success, or fail with one `error:` line.
pub fn write_with(path: &Path, fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let mut out =
        BufWriter::new(File::create(path).unwrap_or_else(|e| file_error("write", path, e)));
    fill(&mut out)
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| file_error("write", path, e))
}
