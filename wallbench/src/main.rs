//! Wall-clock benchmark of SelSync training on the simulator, threaded and
//! process backends. See `README.md` beside this crate.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` (training rounds), and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod measure;
mod roles;
mod span;
mod traced;
mod workload;

use measure::{measure, RunDir};
use span::median;
use std::collections::BTreeMap;
use workload::{Workload, SEED_STRIDE};

const USAGE: &str =
    "usage: wallbench --workload <sim-selsync|cluster-bsp|threaded-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if !["--workload", "--seed", "--seconds", "--trace", "--rounds"]
                .contains(&flag.as_str())
            {
                return Err(format!("unknown flag {flag}"));
            }
            flags.insert(flag.as_str(), value.as_str());
        }
        let need = |flag: &str| {
            flags
                .get(flag)
                .copied()
                .ok_or_else(|| format!("missing {flag}"))
        };
        let name = need("--workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed: u64 = need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        // Training seeds are seed * SEED_STRIDE + j and must fit the config's i64.
        if seed > i64::MAX as u64 / SEED_STRIDE - 1 {
            return Err("--seed is too large".into());
        }
        let seconds: f64 = need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        let trace = match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let rounds = match flags.get("--rounds") {
            Some(v) => v.parse().map_err(|e| format!("--rounds: {e}"))?,
            None => workload.rounds(),
        };
        if rounds < 2 {
            return Err("--rounds must be at least 2".into());
        }
        Ok(Options {
            workload,
            seed,
            seconds,
            trace,
            rounds,
        })
    }
}

/// The end-to-end metrics of the untraced run, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_sample", "B"),
    ("final_test_acc", "%"),
];

/// Metric values by name, each with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Whether `name` is a valid metric name.
fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine shape and run identity, printed before the result line.
fn machine_line(opts: &Options, extra: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let roles = match opts.workload.backend() {
        workload::Backend::Sim => vec!["sim"],
        workload::Backend::Threaded => vec!["threaded"],
        workload::Backend::Process => vec!["hub", "worker"],
    };
    let threads: Vec<String> = roles
        .iter()
        .map(|r| format!("{}: {}", json_string(r), opts.workload.role_threads()))
        .collect();
    let seeds: Vec<String> = opts
        .workload
        .train_seeds(opts.seed)
        .iter()
        .map(u64::to_string)
        .collect();
    let mut fields = vec![
        format!("\"workload\": {}", json_string(opts.workload.name())),
        format!("\"seed\": {}", opts.seed),
        format!("\"train_seeds\": [{}]", seeds.join(", ")),
        format!("\"rounds\": {}", opts.rounds),
        format!("\"trace\": {}", opts.trace),
        format!("\"nproc\": {nproc}"),
        format!("\"cpu_model\": {}", json_string(&cpu_model())),
        format!("\"selsync_threads\": {{{}}}", threads.join(", ")),
    ];
    fields.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k))),
    );
    format!("{{\"machine\": {{{}}}}}", fields.join(", "))
}

fn untraced(opts: &Options, dir: &RunDir) -> traced::Outcome {
    let m = measure(opts.workload, opts.seed, opts.rounds, opts.seconds, &dir.0);
    let sps = m.samples_per_s();
    let values = [
        median(&sps),
        m.setup_s(),
        m.median_over_runs(|r| r.total_s),
        m.median_over_runs(|r| r.rss_mb),
        m.wire_bytes_per_sample(),
        m.final_test_acc(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, (v, unit)))
        .collect();
    let runs: Vec<String> = sps.iter().map(|v| format!("{v:.1}")).collect();
    let notes = vec![
        ("timed_runs", m.reps.len().to_string()),
        ("samples_per_run", m.samples_full.to_string()),
        ("samples_per_s_runs", format!("[{}]", runs.join(", "))),
        (
            "role_io_bytes",
            m.median_over_runs(|r| r.io_bytes as f64).to_string(),
        ),
    ];
    let failed = m.failed_rounds();
    (failed == 0, m.attempted_rounds(), failed, metrics, notes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--role") {
        roles::run_role(&args);
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let (correct, attempted, failed, metrics, extra) = if opts.trace {
        traced::run(opts.workload, opts.seed, opts.rounds, &dir.0)
    } else {
        untraced(&opts, &dir)
    };
    drop(dir);
    assert!(metrics.keys().all(|k| valid_metric_name(k)));
    println!("{}", machine_line(&opts, &extra));
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed() {
        for name in [
            "samples_per_s",
            "tensor.matmul_gflops",
            "socket.rpc_vec_us_p95",
        ] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in ["", "a b", "x/y", "naïve"] {
            assert!(!valid_metric_name(name), "{name}");
        }
        for (name, _) in traced::PER_LAYER.iter().chain(&END_TO_END) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_is_flat_json() {
        let mut m = Metrics::new();
        m.insert("setup_s", (0.25, "s"));
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
