//! `repobench`: the repository benchmark of the FETCH reproduction.
//!
//! ```text
//! repobench --workload <cold_scan|serve_repeat|rebuild_delta> --seed N
//!           --seconds S --trace <0|1> --serve-bin PATH
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate for the workloads and
//! what each metric is expected to move.

mod daemon;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::{median, percentile, sort, Metric};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where runs keep their sockets, stores and span files, relative to
/// the checkout root the benchmark runs from.
const WORK_DIR: &str = ".repobench";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} takes a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds takes a number in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold_scan", "serve_repeat", "rebuild_delta"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// Detection quality summed over a fixed set of distinct inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Accuracy {
    pub fn add(&mut self, e: &fetch_metrics::BinaryEval) {
        self.tp += e.true_positives;
        self.fp += e.false_positives;
        self.fn_ += e.false_negatives;
    }

    pub fn precision(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }
}

/// What the timed phase of a run measured.
pub struct Timed {
    /// Per-op latency in microseconds, in op order.
    pub latency_us: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// CPU time the serving process spent during the timed phase.
    pub cpu_ms: f64,
    /// Peak resident set of the serving process.
    pub peak_rss_mb: f64,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
}

/// Everything a workload hands back to be printed.
pub struct Report {
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    pub accuracy: Accuracy,
    /// Correctness checks beyond per-op answers (op mix, error counters).
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: layers::Layers,
}

fn end_to_end(report: &Report) -> Result<Vec<Metric>, String> {
    let t = &report.timed;
    let ops = t.latency_us.len();
    let mut lat = t.latency_us.clone();
    sort(&mut lat);
    let p99 = percentile(&lat, 990)
        .ok_or_else(|| format!("{ops} ops are too few for p99: at least 1000 are needed"))?;
    let mut setup = report.setup_s.clone();
    sort(&mut setup);
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", median(&setup).expect("at least one set-up"), "s"),
        m("ops_per_s", ops as f64 / t.wall_s, "1/s"),
        m("latency_p50_us", median(&lat).expect("ops > 0"), "us"),
        m("latency_p99_us", p99, "us"),
        m(
            "success_rate",
            (ops as u64 - t.failed) as f64 / ops as f64,
            "ratio",
        ),
        m("precision", report.accuracy.precision(), "ratio"),
        m("recall", report.accuracy.recall(), "ratio"),
        m("peak_rss_mb", t.peak_rss_mb, "MiB"),
        m("cpu_ms_per_op", t.cpu_ms / ops as f64, "ms"),
    ])
}

/// A per-run working directory under [`WORK_DIR`], removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let dir = Path::new(WORK_DIR).join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a traced run's spans to `<WORK_DIR>/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let path = Path::new(WORK_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(WORK_DIR)
        .and_then(|()| tracer.write(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "repobench: wrote {} spans to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// Wall-clock seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "cold_scan" => layers::cold_scan(args, SETUPS),
        "serve_repeat" => serve::serve_repeat(args, SETUPS),
        "rebuild_delta" => serve::rebuild_delta(args, SETUPS),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repobench: {e}");
        std::process::exit(2);
    });
    if !args.serve_bin.is_file() {
        eprintln!(
            "repobench: no fetch-serve binary at {}",
            args.serve_bin.display()
        );
        std::process::exit(2);
    }
    let report = run(&args).unwrap_or_else(|e| {
        eprintln!("repobench: {} failed: {e}", args.workload);
        std::process::exit(1);
    });
    let e2e = end_to_end(&report).unwrap_or_else(|e| {
        eprintln!("repobench: {e}");
        std::process::exit(1);
    });
    for m in &e2e {
        eprintln!("repobench: {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("repobench: set-ups took {:.4?} s", report.setup_s);
    let mut lat = report.timed.latency_us.clone();
    sort(&mut lat);
    if let Some(q) = stats::highest_supported(lat.len()) {
        eprintln!(
            "repobench: {} samples; highest supported percentile p{} = {:.1} us",
            lat.len(),
            q as f64 / 10.0,
            percentile(&lat, q).expect("supported")
        );
    }
    for p in &report.problems {
        eprintln!("repobench: check failed: {p}");
    }
    let correct = report.problems.is_empty() && report.timed.failed == 0;
    let metrics = if args.trace {
        report.layers.metrics()
    } else {
        e2e
    };
    println!(
        "{}",
        stats::result_line(
            correct,
            report.timed.latency_us.len() as u64,
            report.timed.failed,
            &metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("repobench")
            .chain(s.split_whitespace())
            .map(String::from)
            .collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--serve-bin b --workload cold_scan --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cold_scan", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0 --serve-bin b",
            "--workload cold_scan --seed x --seconds 1 --trace 0 --serve-bin b",
            "--workload cold_scan --seed 1 --seconds 0 --trace 0 --serve-bin b",
            "--workload cold_scan --seed 1 --seconds 1 --trace 2 --serve-bin b",
            "--workload cold_scan --seed 1 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
