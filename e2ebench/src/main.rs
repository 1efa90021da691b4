//! `e2ebench`: the end-to-end and per-layer benchmark of the `indaas`
//! daemon. See `README.md` beside this crate.
//!
//! ```text
//! e2ebench --workload <sia-audit|ingest-push|psop-ring> --seed N --seconds S --trace <0|1>
//! e2ebench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Run from the repository root: it builds `indaas` from source, starts
//! it as a child process, drives it, checks every answer, and prints one
//! JSON result as the last line of standard output.

mod common;
mod compare;
mod daemon;
mod gen;
mod ingest;
mod psop;
mod sia;
mod stats;
mod steal;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Metric, Report};
use steal::StealLog;

const WORKLOADS: [&str; 3] = ["sia-audit", "ingest-push", "psop-ring"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host, source revision and daemon configuration of this run.
fn fingerprint() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let config = indaas_service::ServeConfig::default();
    vec![
        format!("host nproc={nproc} cpu=\"{cpu}\" kernel={kernel}"),
        format!("git rev={rev}"),
        format!(
            "daemon config: default (workers={} shards={} cache_capacity={} queue={})",
            config.workers, config.shards, config.cache_capacity, config.queue_capacity
        ),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Runs the workload; also returns the share of steal windows in which
/// the host took CPU time.
fn run(args: &Args) -> Result<(Report, f64), String> {
    let bin = daemon::build()?;
    let mut ctx = Ctx {
        bin,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from("e2ebench").join("out"),
        steal: StealLog::start(),
    };
    let report = match args.workload.as_str() {
        "sia-audit" => sia::run(&ctx),
        "ingest-push" => ingest::run(&ctx),
        "psop-ring" => psop::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    ctx.steal.stop();
    Ok((report?, ctx.steal.stolen_share()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in fingerprint() {
        println!("# {line}");
    }
    let jiffies = steal::jiffies();
    let (report, stolen_windows) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("# {line}");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies, steal::jiffies()) {
        println!(
            "# host steal during the run: {:.1}% of CPU time, in {:.0}% of the {} ms windows",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            100.0 * stolen_windows,
            steal::WINDOW.as_millis()
        );
    }
    let mut correct = report.failed == 0;
    for c in &report.checks {
        let verdict = if c.failures == 0 && c.total > 0 {
            "pass"
        } else {
            "FAIL"
        };
        correct &= c.failures == 0 && c.total > 0;
        println!(
            "# check {}: {verdict} ({} of {} outputs failed){}",
            c.name,
            c.failures,
            c.total,
            c.first_failure
                .as_ref()
                .map_or(String::new(), |f| format!("; first: {f}"))
        );
    }
    let (metrics, kind) = if args.trace {
        (&report.layers, "per-layer")
    } else {
        (&report.e2e, "end-to-end")
    };
    for m in metrics {
        if !m.value.is_finite() {
            eprintln!("e2ebench: metric {} was not measured", m.name);
            return ExitCode::FAILURE;
        }
        println!("# {kind} {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# ops attempted={} failed={} correct={correct}",
        report.attempted, report.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
