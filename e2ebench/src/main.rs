//! End-to-end, layer-attributed benchmark of the EigenMaps serving stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tcp_single_frame --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced depth ladder. The last line of standard output is
//! one JSON object; a record with the host fingerprint goes to
//! `e2ebench/results/`. See `e2ebench/README.md` for the workloads.

mod drive;
mod host;
mod inputs;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use inputs::{Dirs, Workload};

/// The benchmark's error: a message, from any layer.
#[derive(Debug)]
pub struct Error(pub String);

impl<E: std::error::Error> From<E> for Error {
    fn from(e: E) -> Self {
        Error(e.to_string())
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, method or caveat, printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every checked map matched its reference bitwise.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub spans: Vec<spans::Span>,
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <tcp_single_frame|bulk_bigmap|sessions_durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an integer")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Why this host cannot run `workload`, if it cannot.
fn skip_reason(workload: Workload) -> Option<String> {
    if host::nproc() < 2 {
        return Some(format!(
            "needs 2 hardware threads (2 shards, 2 generator threads), host has {}",
            host::nproc()
        ));
    }
    if workload != Workload::BulkBigmap && std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        return Some("cannot bind a loopback TCP socket".into());
    }
    None
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

/// The record kept in `e2ebench/results/`: fingerprint, ensemble
/// generation, skips, every metric with its note, and the notes.
fn record(
    args: &Args,
    fingerprint: &str,
    ensemble: Option<&str>,
    skipped: Option<&str>,
    report: Option<&Report>,
) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {fingerprint}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    if let Some(ensemble) = ensemble {
        let _ = write!(out, ", \"ensemble\": {}", json_string(ensemble));
    }
    if let Some(reason) = skipped {
        let _ = write!(out, ", \"skipped\": {}", json_string(reason));
    }
    if let Some(report) = report {
        let metrics = report
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"note\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit),
                    json_string(&m.note)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let notes = report
            .notes
            .iter()
            .map(|n| json_string(n))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [{metrics}], \"notes\": [{notes}]",
            report.correct, report.attempted, report.failed
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<ExitCode, Error> {
    let dirs = Dirs::new();
    std::fs::create_dir_all(&dirs.results)?;
    std::fs::create_dir_all(&dirs.work)?;
    let fingerprint = host::fingerprint(&dirs.work);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {fingerprint}");

    if let Some(reason) = skip_reason(args.workload) {
        println!("# skipped: {reason}");
        let rec = record(args, &fingerprint, None, Some(&reason), None);
        std::fs::write(dirs.results.join(format!("{stem}.json")), rec)?;
        return Ok(ExitCode::from(3));
    }

    // Simulate the workload's ensemble unless it is cached, so only the
    // first run in a checkout pays for it; never part of a timing.
    let grid = args.workload.grid();
    let what = format!(
        "{}x{} T={}",
        grid.rows,
        grid.cols,
        inputs::DESIGN_T + inputs::TEST_T
    );
    let ensemble = match inputs::ensure_ensemble(&dirs, grid)? {
        Some(took) => format!("{what} generated in {:.1} s", took.as_secs_f64()),
        None => format!("{what} cached"),
    };
    println!("# ensemble {ensemble}");

    let seconds = Duration::from_secs(args.seconds);
    let report = if args.trace {
        workloads::traced(args.workload, args.seed, seconds, &dirs)?
    } else {
        workloads::end_to_end(args.workload, args.seed, seconds, &dirs)?
    };

    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    std::fs::write(
        dirs.results.join(format!("{stem}.json")),
        record(args, &fingerprint, Some(&ensemble), None, Some(&report)),
    )?;
    if args.trace {
        std::fs::write(
            dirs.results.join(format!("{stem}.spans.tsv")),
            spans::to_tsv(&report.spans),
        )?;
    }
    println!("{}", result_line(&report));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(Error(e)) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
