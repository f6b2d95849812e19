//! `perfbench` — the repository's benchmark binary.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH [--out DIR]
//! ```
//!
//! `--trace 0` runs the release `busytime-cli` in the workload's serving
//! shape and reports the end-to-end metrics; `--trace 1` replays the same
//! seeded inputs in-process through each layer's public functions and
//! reports per-layer self times. Either way a table goes to stdout, then
//! one JSON result line, and the exit code is non-zero on any incorrect
//! answer. `perfbench/run.py` builds everything and calls this.

mod config;
mod drive;
mod gen;
mod proc;
mod stats;
mod trace;
mod verify;

use std::collections::HashMap;
use std::process::ExitCode;

use verify::{Exchange, Tally};

/// One reported metric: value, unit, and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

fn parse_args() -> Result<HashMap<String, String>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn required<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str) -> Result<T, String> {
    opts.get(key)
        .ok_or_else(|| format!("--{key} is required"))?
        .parse()
        .map_err(|_| format!("--{key}: bad value"))
}

/// The end-to-end metrics of one untraced run. Tail percentiles are
/// included only where at least ten samples lie beyond them; the table
/// shows the rest, the result line carries the gated set.
fn end_to_end(m: &drive::Measured, tally: &Tally) -> Vec<Metric> {
    let mut lat = m.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let mut out = vec![
        Metric::new(
            "throughput_rps",
            m.timed_records as f64 / m.timed_s,
            "rec/s",
            m.timed_records,
        ),
        Metric::new(
            "latency_p50_ms",
            stats::percentile(&lat, 0.5).unwrap_or(f64::NAN),
            "ms",
            n,
        ),
    ];
    for (name, q) in [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)] {
        if let Some(v) = stats::percentile(&lat, q) {
            out.push(Metric::new(name, v, "ms", n));
        }
    }
    out.extend([
        Metric::new("setup_s", stats::median(&m.setup_s), "s", m.setup_s.len()),
        Metric::new(
            "failed_ratio",
            tally.failed_ratio(),
            "ratio",
            tally.attempted,
        ),
        Metric::new(
            "aggregate_gap",
            tally.aggregate_gap(),
            "ratio",
            tally.gap_records,
        ),
        Metric::new(
            "cpu_ms_per_krec",
            m.cpu_s * 1e3 / (m.timed_records as f64 / 1e3),
            "ms/krec",
            m.timed_records,
        ),
        Metric::new("peak_rss_mb", m.peak_rss_mib, "MiB", 1),
    ]);
    out
}

/// Metrics the result line carries for `--trace 0`: the table's set
/// minus those that are zero on correct code or absent on some workload.
const GATED: &[&str] = &[
    "throughput_rps",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "aggregate_gap",
    "cpu_ms_per_krec",
    "peak_rss_mb",
];

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<28} {:>14}  {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<28} {:>14.6}  {:<9} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a metric that could not be measured is null
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn untraced(cli: &str, w: &config::Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let measured = drive::run(cli, w, seed, seconds)?;
    let exchanges: Vec<Exchange> = measured
        .answered
        .iter()
        .map(|a| Exchange {
            sent: &a.sent,
            received: &a.received,
            // the stdin stream is one request whose first gap_requests
            // records make up the gap; sockets count whole requests
            gap_prefix: match w.shape {
                config::Shape::Serve => w.gap_requests,
                _ if a.index < w.gap_requests as u64 => usize::MAX,
                _ => 0,
            },
        })
        .collect();
    let tally = verify::verify(&exchanges);
    for problem in &tally.problems {
        eprintln!("perfbench: {problem}");
    }
    let metrics = end_to_end(&measured, &tally);
    print_table(&format!("{} (seed {seed}, untraced)", w.name), &metrics);
    if !measured.healthz_ms.is_empty() {
        let mut h = measured.healthz_ms.clone();
        h.sort_by(f64::total_cmp);
        println!(
            "  healthz probes: {} (median {:.3} ms)",
            h.len(),
            stats::median(&h)
        );
    }
    let gated: Vec<&Metric> = GATED
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{name}: too few samples to report"))
        })
        .collect::<Result<_, _>>()?;
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &gated)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let opts = parse_args()?;
        let name: String = required(&opts, "workload")?;
        let workload = config::load(&name)?;
        let seed: u64 = required(&opts, "seed")?;
        let seconds: f64 = required(&opts, "seconds")?;
        let trace: u8 = required(&opts, "trace")?;
        match trace {
            0 => untraced(&required::<String>(&opts, "cli")?, &workload, seed, seconds),
            1 => {
                let out = opts
                    .get("out")
                    .cloned()
                    .unwrap_or_else(|| "perfbench-out".into());
                trace::run(&workload, seed, seconds, &out)
            }
            _ => Err("--trace takes 0 or 1".into()),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: incorrect answers (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
