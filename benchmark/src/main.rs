//! `e2e` — the repo's end-to-end benchmark.
//!
//! One invocation runs one workload, prints every metric by name with its
//! unit, checks the outputs, and ends with a one-line JSON result:
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! e2e --self-test        # the checker must reject corrupted reports
//! e2e --repeat-check     # the whole suite twice, compared within bounds
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and the workloads.

mod check;
mod harness;
mod metrics;
mod probes;
mod spans;
mod stats;
mod stub;
mod workloads;

use check::RepSummary;
use harness::Run;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// The repo's seed convention (`0xC0C0`).
const DEFAULT_SEED: u64 = 49344;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Environment overrides the program reads deep inside; a benchmark run
/// under them would not measure the defaults it claims to.
const REFUSED_ENV: [&str; 2] = ["QONCORD_SHARDS", "QONCORD_SIM_THREADS"];

const USAGE: &str = "usage: e2e --workload <noisy_fleet|traj_fleet|admit_burst|engine_churn> \
[--seed N] [--seconds S] [--trace 0|1]\n       e2e --self-test\n       e2e --repeat-check [--seed N] [--seconds S]";

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

enum Mode {
    Workload(String),
    SelfTest,
    RepeatCheck,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut mode = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                mode = Some(Mode::Workload(name));
            }
            "--seed" => {
                seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--self-test" => mode = Some(Mode::SelfTest),
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("no workload given")?,
        seed,
        seconds,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_header(what: &str, seed: u64) {
    println!("# e2e {what} seed {seed}");
    println!(
        "# host_cpus {} | {} | commit {}",
        host_cpus(),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    println!("# shards 1, sim threads 1 (defaults); clocks: *_s/us/ns host, sim_* simulated");
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    section: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics: Vec<String> = section
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Prints one invocation's notes, metrics, violations and result line.
fn report(run: &Run, traced: bool) {
    let section = if traced {
        run.metrics.section(PER_LAYER.iter().map(|m| (m.0, m.1)))
    } else {
        run.metrics.section(END_TO_END.iter().map(|m| (m.0, m.1)))
    };
    for note in &run.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &section {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    let mut violations = check::violations(&run.reps);
    violations.extend(run.violations.iter().cloned());
    for (name, value, _) in &section {
        if !value.is_finite() {
            violations.push(format!("metric {name} is not finite"));
        }
    }
    for violation in &violations {
        println!("# VIOLATION {violation}");
    }
    let (correct, attempted, failed) = check::verdict(&run.reps, &violations);
    let finite: Vec<_> = section
        .iter()
        .map(|&(name, value, unit)| (name, if value.is_finite() { value } else { 0.0 }, unit))
        .collect();
    println!("{}", result_line(correct, attempted, failed, &finite));
}

/// Feeds the checker deliberately corrupted reports; each must come back
/// `"correct": false`, and the untouched one `true`.
fn self_test(seed: u64) -> bool {
    print_header("self-test", seed);
    let clean: Vec<RepSummary> = harness::two_reps("engine_churn", seed);

    let mut unfinished = clean.clone();
    unfinished[0].jobs[0].outcome = check::Outcome::Other;
    unfinished[0].digest = unfinished[0].compute_digest();
    unfinished[1] = unfinished[0].clone();

    let mut leaky = clean.clone();
    for rep in &mut leaky {
        rep.device_busy[0] += 1.0;
        rep.digest = rep.compute_digest();
    }

    let mut drifting = clean.clone();
    drifting[1].jobs[0].executions += 1;
    drifting[1].digest = drifting[1].compute_digest();

    let mut all_as_expected = true;
    for (label, reps, expect_correct) in [
        ("untouched report", clean, true),
        ("one job left running", unfinished, false),
        ("one busy-second off", leaky, false),
        ("two reps with different digests", drifting, false),
    ] {
        let violations = check::violations(&reps);
        let (correct, attempted, failed) = check::verdict(&reps, &violations);
        println!("# self-test: {label}");
        for violation in &violations {
            println!("#   {violation}");
        }
        println!("{}", result_line(correct, attempted, failed, &[]));
        all_as_expected &= correct == expect_correct;
    }
    println!(
        "# self-test {}",
        if all_as_expected { "PASS" } else { "FAIL" }
    );
    all_as_expected
}

/// One child invocation of this binary; returns its end-to-end metrics in
/// registry order, or `None` if it failed or was incorrect.
fn child_metrics(workload: &str, seed: u64, seconds: f64) -> Option<Vec<f64>> {
    use qoncord_orchestrator::trace::json::{parse, Value};
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = parse(stdout.lines().last()?).ok()?;
    let field = |v: &Value, key: &str| -> Option<Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    if !out.status.success() || field(&doc, "correct")? != Value::Bool(true) {
        return None;
    }
    let metrics = field(&doc, "metrics")?;
    END_TO_END
        .iter()
        .map(|m| field(&field(&metrics, m.0)?, "value")?.as_f64())
        .collect()
}

/// Runs the suite twice back to back and holds the two sets of runs to the
/// benchmark's own bounds.
fn repeat_check(seed: u64, seconds: f64) -> bool {
    print_header("repeat-check", seed);
    let mut pass = true;
    let suites: Vec<Vec<Option<Vec<f64>>>> = (0..2)
        .map(|_| {
            workloads::NAMES
                .iter()
                .map(|w| child_metrics(w, seed, seconds))
                .collect()
        })
        .collect();
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, workload) in workloads::NAMES.iter().enumerate() {
        let (Some(first), Some(second)) = (&suites[0][i], &suites[1][i]) else {
            println!("{workload:<14} a run failed or was incorrect  FAIL");
            pass = false;
            continue;
        };
        for (k, &(name, _, better, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (first[k], second[k]);
            // Positive = the second set is worse than the first.
            let worse = if better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            // Simulated results must repeat exactly, not merely within bound.
            let simulated = name.starts_with("sim_") || name == "approx_ratio_mean";
            let ok = if simulated {
                a == b
            } else {
                worse.abs() <= bound
            };
            pass &= ok;
            println!(
                "{workload:<14} {name:<24} {a:>16.6} {b:>16.6} {:>8.2}% {:>6.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("# repeat-check {}", if pass { "PASS" } else { "FAIL" });
    pass
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = REFUSED_ENV.iter().find(|n| std::env::var_os(n).is_some()) {
        eprintln!("e2e: refusing to run with {name} set: the benchmark measures the defaults (shards = 1, sim threads = 1)");
        return ExitCode::from(2);
    }
    let ok = match args.mode {
        Mode::Workload(name) => {
            let run = if args.trace {
                harness::traced(&name, args.seed)
            } else {
                harness::untraced(&name, args.seed, args.seconds)
            };
            print_header(
                &format!("{name} --trace {}", u8::from(args.trace)),
                args.seed,
            );
            // A finished invocation exits 0; an incorrect one says so in
            // its result line.
            report(&run, args.trace);
            true
        }
        Mode::SelfTest => self_test(args.seed),
        Mode::RepeatCheck => repeat_check(args.seed, args.seconds),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
