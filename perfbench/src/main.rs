//! The WSMED benchmark: runs one workload against the public `wsmed-core`
//! API, checks every answer, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as one JSON line. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_ff --seed 1 --seconds 20 --trace 0
//! ```

mod layers;
mod measure;
mod workloads;
mod world;

use std::time::Instant;

use workloads::{Inputs, Outcome, RunOutput, Workload};
use world::Oracle;

/// Set-ups per run: at least this many, and more until `SETUP_WINDOW`
/// has passed; `setup_s` is their median. Spreading them over a window
/// keeps one burst of load on the machine from deciding the figure.
const SETUPS: usize = 15;
/// The least time set-ups are repeated for, seconds.
const SETUP_WINDOW: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: wsmed-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Latencies of the correctly answered, measured queries of one shape in
/// the primary phase.
fn shape_latencies(out: &RunOutput, shape: usize) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| s.measured && s.phase == 0 && s.shape == shape && s.outcome == Outcome::Ok)
        .map(|s| s.latency)
        .collect()
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(out: &RunOutput, setup_s: f64) -> Vec<Metric> {
    let shape_median = |shape: usize| {
        let lat = shape_latencies(out, shape);
        if lat.is_empty() {
            f64::NAN
        } else {
            measure::median(&lat)
        }
    };
    // Calls per query over the whole run (warm-up and ladder included):
    // first touches of rarely drawn keys are few per phase, so only the
    // whole run averages them steadily.
    let done: Vec<_> = out
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .collect();
    let calls: u64 = done.iter().map(|s| s.obs.calls).sum();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("q1_s", shape_median(0), "s"),
        metric("q2_s", shape_median(1), "s"),
        metric("q3_s", shape_median(2), "s"),
        metric(
            "calls_per_query",
            calls as f64 / done.len().max(1) as f64,
            "count",
        ),
        metric(
            "ok_share",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
            "share",
        ),
        metric("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
    ]
}

/// Human-readable summary lines: per-shape medians and tails with their
/// sample counts, the ladder, and the generator's lateness.
fn summary(workload: Workload, out: &RunOutput) {
    let clock = workload.clock();
    println!(
        "# workload {}: {} attempted, {} failed/wrong, latency clock {clock}",
        workload.name(),
        out.attempted,
        out.failed
    );
    for shape in 0..3 {
        let lat = shape_latencies(out, shape);
        if lat.is_empty() {
            println!("#   Query{} shape: no samples", shape + 1);
            continue;
        }
        let tail = if measure::supports_quantile(lat.len(), 0.95) {
            format!("p95 {:.4}", measure::quantile(&lat, 0.95))
        } else {
            "p95 n/a (<200 samples)".to_owned()
        };
        println!(
            "#   Query{} shape: n={} p50 {:.4} {tail} {clock}",
            shape + 1,
            lat.len(),
            measure::median(&lat)
        );
    }
    let all: Vec<f64> = out
        .samples
        .iter()
        .filter(|s| s.measured && s.phase == 0)
        .map(|s| {
            if s.outcome == Outcome::Ok {
                s.latency
            } else {
                f64::INFINITY
            }
        })
        .collect();
    if measure::supports_quantile(all.len(), 0.95) {
        println!(
            "#   all shapes: n={} p50 {:.4} p95 {:.4} {clock}",
            all.len(),
            measure::median(&all),
            measure::quantile(&all, 0.95)
        );
    }
    println!(
        "#   cpu_ms_per_query {:.4} ms over {} completed queries (not gated: see README.md)",
        out.cpu_ms_per_query(),
        out.cpu_queries
    );
    println!(
        "#   qps {:.6} completed per {} (not gated: see README.md)",
        out.qps,
        if out.rungs.is_empty() {
            clock
        } else {
            "model-s at the highest rate meeting the limit"
        }
    );
    for rung in &out.rungs {
        println!(
            "#   rate {:.3}/model-s: n={} p95 {:.3} model-s, backlog at end {} -> {}",
            rung.rate,
            rung.n,
            rung.p95,
            rung.backlog_end,
            if rung.pass { "meets" } else { "misses" }
        );
    }
    if !out.rungs.is_empty() {
        println!(
            "#   generator (rates meeting the limit): lateness n={} p95 {:.4} model-s, \
             backlog max {}; late starts with a client free: {}",
            out.loadgen.lateness_n,
            out.loadgen.lateness_p95,
            out.loadgen.backlog_max,
            out.loadgen.generator_late
        );
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Builds the world and compiles the workload's plans repeatedly (see
/// `SETUPS`) and returns the last set-up with the median set-up time.
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    wrap: Option<world::ServiceWrap<'_>>,
) -> (world::World, Vec<wsmed_core::QueryPlan>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_WINDOW {
        let t = Instant::now();
        let w = world::build(workload.time_scale(), workload.mediator(), wrap);
        let plans = workloads::compile_all(workload, &w.med, inputs);
        times.push(t.elapsed().as_secs_f64());
        last = Some((w, plans));
    }
    let (w, plans) = last.expect("at least one set-up");
    (w, plans, measure::median(&times))
}

fn main() {
    let args = parse_args();
    let workload = args.workload;
    let states = world::states(&world::build(0.0, world::MediatorConfig::Bare, None).dataset);
    // The traced run poses the workload twice, for half the time each.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let inputs = Inputs::generate(workload, args.seed, seconds, &states);
    let oracle = match Oracle::compute(inputs.sqls.iter().map(String::as_str)) {
        Ok(oracle) => oracle,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let (problems, attempted, failed, metrics) = if args.trace {
        let traced = layers::traced_run(workload, &inputs, &oracle, seconds);
        (
            traced.problems,
            traced.attempted,
            traced.failed,
            traced.metrics,
        )
    } else {
        let (world, plans, setup_s) = set_up(workload, &inputs, None);
        let out = workloads::run(workload, &world, &inputs, &plans, &oracle, seconds);
        summary(workload, &out);
        let metrics = end_to_end(&out, setup_s);
        let mut problems = out.problems;
        for m in &metrics {
            if !m.value.is_finite() || m.value <= 0.0 {
                problems.push(format!("metric {} is {}", m.name, m.value));
            }
        }
        (problems, out.attempted, out.failed, metrics)
    };
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    let correct = problems.is_empty();
    for m in &metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m
        })
        .collect();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
