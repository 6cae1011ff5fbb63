//! The workloads: what each poses to the mediator, how it is timed, and
//! how every answer is checked.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsmed_core::{paper, AdaptiveConfig, ArrivalOutcome, ExecutionReport, QueryPlan, Wsmed};
use wsmed_netsim::DetRng;
use wsmed_trafficgen::{
    ArrivalProfile, Injection, TemplateKind, Workload as Schedule, WorkloadSpec,
};

use crate::measure;
use crate::world::{MediatorConfig, Oracle, World};

/// Wall seconds per model second on the positive-scale workloads. Fixed:
/// sleep overshoot makes model times depend on the scale, so comparing
/// commits is only meaningful at one scale.
const TIME_SCALE: f64 = 0.01;

/// The paper queries, in shape order (Query1, Query2, Query3).
const PAPER_SQL: [&str; 3] = [paper::QUERY1_SQL, paper::QUERY2_SQL, paper::QUERY3_SQL];

/// Best manual fanouts per paper query on the small dataset.
const PAPER_FANOUTS: [&[usize]; 3] = [&[5, 4], &[4, 3], &[4, 3, 2]];

/// `zipf_open`: reference arrival rate, queries per model second.
const REF_RATE: f64 = 0.3;
/// `zipf_open`: the rates of the ladder, queries per model second.
const LADDER: [f64; 3] = [1.0, 4.0, 16.0];
/// `zipf_open`: the p95 latency limit a rate must meet, model seconds.
const P95_LIMIT_MODEL_S: f64 = 30.0;
/// `zipf_open`: share of the reference schedule run as warm-up (cache and
/// pool fill) and left out of the statistics.
const WARMUP_SHARE: f64 = 0.2;
/// `zipf_open`: share of the run's model-time budget spent at the
/// reference rate; the rest goes to the ladder.
const REF_SHARE: f64 = 0.6;
/// `zipf_open`: the fixed seed of the query population (popularity
/// ranking and draws). The run seed picks which window of it is posed, so
/// every seed sees the same hot and cold keys.
const POPULATION_SEED: u64 = 0x21BF_0BE5;
/// `zipf_open`: each rate's population spans this many run windows.
const WINDOWS: f64 = 20.0;
/// `zipf_open`: a request counts as dispatched late by the generator when
/// it started this much after it was both due and claimed by a client.
const GENERATOR_LAG_LIMIT_MODEL_S: f64 = 1.0;
/// `zipf_open`: the run is invalid when more than this share of the
/// requests started late by the generator's own doing.
const GENERATOR_LATE_SHARE: f64 = 0.01;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper queries, central plans, closed loop, one client.
    PaperCentral,
    /// Paper queries, FF_APPLYP at the best manual fanouts.
    PaperFf,
    /// Paper queries, AFF_APPLYP with the default configuration.
    PaperAff,
    /// Uniform trafficgen mix compiled from SQL per request at time scale 0.
    CpuMix,
    /// Zipf trafficgen mix, open loop, on the shared mediator.
    ZipfOpen,
}

/// How the paper workloads compile their plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanKind {
    Central,
    Ff,
    Aff,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::PaperCentral,
        Workload::PaperFf,
        Workload::PaperAff,
        Workload::CpuMix,
        Workload::ZipfOpen,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCentral => "paper_central",
            Workload::PaperFf => "paper_ff",
            Workload::PaperAff => "paper_aff",
            Workload::CpuMix => "cpu_mix",
            Workload::ZipfOpen => "zipf_open",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds per model second (0: latency is computed, not slept).
    pub fn time_scale(self) -> f64 {
        match self {
            Workload::CpuMix => 0.0,
            _ => TIME_SCALE,
        }
    }

    /// The mediator configuration the workload runs on.
    pub fn mediator(self) -> MediatorConfig {
        match self {
            Workload::ZipfOpen => MediatorConfig::Shared,
            _ => MediatorConfig::Bare,
        }
    }

    fn plan_kind(self) -> Option<PlanKind> {
        match self {
            Workload::PaperCentral => Some(PlanKind::Central),
            Workload::PaperFf => Some(PlanKind::Ff),
            Workload::PaperAff => Some(PlanKind::Aff),
            _ => None,
        }
    }

    /// Unit label of the workload's latency clock, for the human table.
    pub fn clock(self) -> &'static str {
        if self.time_scale() > 0.0 {
            "model-s"
        } else {
            "wall-s"
        }
    }
}

/// Client threads for the multi-client workloads: one per core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A request sequence; open-loop arrivals are model seconds from the
/// phase start.
struct Phase {
    /// Mean arrival rate, queries per model second (0 for closed loop).
    rate: f64,
    duration: f64,
    injections: Vec<Injection>,
}

/// The generated inputs of one run: a pure function of the workload and
/// the seed.
pub struct Inputs {
    /// Every SQL text the run may pose (the oracle's domain).
    pub sqls: Vec<String>,
    /// `cpu_mix`: the closed-loop request sequence (cycled).
    /// `zipf_open`: the reference schedule followed by the ladder rungs.
    phases: Vec<Phase>,
    /// Paper workloads: the seeded order of the three queries per pass.
    paper_order: Vec<[usize; 3]>,
}

impl Inputs {
    /// The first query of a shape the run poses, if any.
    pub fn first_of_shape(&self, shape: usize) -> Option<&str> {
        match self.phases.first() {
            None => PAPER_SQL.get(shape).copied(),
            Some(phase) => phase
                .injections
                .iter()
                .find(|inj| shape_of(inj.template) == shape)
                .map(|inj| inj.sql.as_str()),
        }
    }

    /// Generates the run's inputs from the seed. `seconds` sizes the
    /// open-loop schedules so they fill the run.
    pub fn generate(workload: Workload, seed: u64, seconds: f64, states: &[String]) -> Inputs {
        let mut sqls: Vec<String> = Vec::new();
        let mut phases = Vec::new();
        let mut paper_order = Vec::new();
        match workload {
            Workload::PaperCentral | Workload::PaperFf | Workload::PaperAff => {
                sqls = PAPER_SQL.iter().map(|s| s.to_string()).collect();
                let mut rng = DetRng::keyed(seed, "paper-order", 0);
                for _ in 0..1000 {
                    let mut order = [0, 1, 2];
                    for i in (1..3).rev() {
                        order.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    paper_order.push(order);
                }
            }
            Workload::CpuMix => {
                let spec = WorkloadSpec {
                    zipf_exponent: 0.0,
                    tenants: 1,
                    ..WorkloadSpec::standard(seed, ArrivalProfile::Poisson { rate: 1.0 }, 20_000.0)
                };
                let schedule = Schedule::generate(spec, states);
                sqls = schedule.unique_sqls();
                phases.push(Phase {
                    rate: 0.0,
                    duration: 0.0,
                    injections: schedule.injections,
                });
            }
            Workload::ZipfOpen => {
                let budget = seconds / TIME_SCALE;
                let ref_duration = budget * REF_SHARE;
                // Equal expected request counts on every ladder rung.
                let per_rung =
                    budget * (1.0 - REF_SHARE) / LADDER.iter().map(|r| 1.0 / r).sum::<f64>();
                let mut window = DetRng::keyed(seed, "zipf-window", 0);
                let mut push = |rate: f64, duration: f64| {
                    let spec = WorkloadSpec::standard(
                        POPULATION_SEED,
                        ArrivalProfile::Poisson { rate },
                        duration * WINDOWS,
                    );
                    let start = window.next_f64() * duration * (WINDOWS - 1.0);
                    let injections = Schedule::generate(spec, states)
                        .injections
                        .into_iter()
                        .filter(|inj| (start..start + duration).contains(&inj.arrival_model_secs))
                        .map(|inj| Injection {
                            arrival_model_secs: inj.arrival_model_secs - start,
                            ..inj
                        })
                        .collect();
                    phases.push(Phase {
                        rate,
                        duration,
                        injections,
                    });
                };
                push(REF_RATE, ref_duration);
                for rate in LADDER {
                    push(rate, per_rung / rate);
                }
                for phase in &phases {
                    for inj in &phase.injections {
                        if !sqls.contains(&inj.sql) {
                            sqls.push(inj.sql.clone());
                        }
                    }
                }
            }
        }
        Inputs {
            sqls,
            phases,
            paper_order,
        }
    }
}

/// What the per-layer metrics need from one completed query.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub rows: u64,
    pub calls: u64,
    pub shipped_bytes: u64,
    pub messages: u64,
    pub processes: u64,
    pub peak_alive: u64,
    pub blocked_send_ms: f64,
    pub aff_adds: u64,
    pub aff_drops: u64,
    pub first_row_wall_s: Option<f64>,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub dedup_waits: u64,
    pub cross_query_hits: u64,
    pub warm: u64,
    pub cold: u64,
    pub retries: u64,
    pub breaker_opens: u64,
    pub failovers: u64,
    pub replica_calls: Vec<(String, u64)>,
}

impl Obs {
    fn of(report: &ExecutionReport) -> Obs {
        let tree = &report.tree;
        Obs {
            rows: report.rows.len() as u64,
            calls: report.ws_calls,
            shipped_bytes: report.shipped_bytes,
            messages: report.messages,
            processes: tree.nodes.len() as u64,
            peak_alive: tree.peak_alive as u64,
            blocked_send_ms: tree.total_blocked_send().as_secs_f64() * 1e3,
            aff_adds: tree
                .adapt_events
                .iter()
                .filter_map(|e| e.decision.strip_prefix("add:"))
                .filter_map(|n| n.parse::<u64>().ok())
                .sum(),
            aff_drops: tree.drops,
            first_row_wall_s: report.first_row_wall.map(|d| d.as_secs_f64()),
            cache_hits: report.cache.hits,
            cache_lookups: report.cache.hits + report.cache.misses + report.cache.dedup_waits,
            dedup_waits: report.cache.dedup_waits,
            cross_query_hits: report.cache.cross_query_hits,
            warm: report.pool.warm_acquires,
            cold: report.pool.cold_spawns,
            retries: report.resilience.retries,
            breaker_opens: report.resilience.breaker_opens,
            failovers: report.router.failovers,
            replica_calls: report
                .router
                .per_replica
                .iter()
                .map(|((_, replica), n)| (replica.clone(), *n))
                .collect(),
        }
    }
}

/// How one attempted query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the reference bag.
    Ok,
    /// Completed with a different bag.
    Wrong,
    /// Failed or shed.
    Failed,
}

/// One attempted query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Query shape: 0, 1, 2 for Query1, Query2, Query3.
    pub shape: usize,
    /// Response time on the workload's clock (model s at positive scale,
    /// wall s at scale 0); from the due instant in the open loop.
    pub latency: f64,
    pub outcome: Outcome,
    /// Counted in the statistics (false for open-loop warm-up).
    pub measured: bool,
    /// Open loop: 0 for the reference rate, 1.. for the ladder rungs.
    pub phase: usize,
    pub obs: Obs,
}

/// Open-loop generator statistics, model seconds, over the phases whose
/// rate met the limit.
#[derive(Debug, Clone, Default)]
pub struct Loadgen {
    /// p95 of dispatch − due.
    pub lateness_p95: f64,
    /// Requests behind `lateness_p95`.
    pub lateness_n: usize,
    /// Most requests due but not yet dispatched at any instant.
    pub backlog_max: usize,
    /// Requests the generator itself started late while a client was
    /// free, over every phase.
    pub generator_late: usize,
}

/// One ladder rung's verdict.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub n: usize,
    pub p95: f64,
    pub backlog_end: usize,
    pub pass: bool,
}

/// The outcome of a workload's measured loop.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every attempted query of the primary phase (closed loop: all;
    /// open loop: the reference rate).
    pub samples: Vec<Sample>,
    /// Completed queries per second on the workload's clock (closed loop),
    /// or the highest ladder rate meeting the p95 limit (open loop).
    pub qps: f64,
    /// Process CPU seconds spent in the loop.
    pub cpu_s: f64,
    /// Queries completed in the loop.
    pub cpu_queries: usize,
    /// Queries attempted over the whole run (ladder included).
    pub attempted: usize,
    /// Attempted queries that failed, were shed, or answered wrongly.
    pub failed: usize,
    /// Self-check failures: any makes the run incorrect.
    pub problems: Vec<String>,
    pub loadgen: Loadgen,
    pub rungs: Vec<Rung>,
}

impl RunOutput {
    /// Process CPU milliseconds per completed query.
    pub fn cpu_ms_per_query(&self) -> f64 {
        self.cpu_s * 1e3 / self.cpu_queries.max(1) as f64
    }

    fn tally(&mut self, samples: &[Sample]) {
        self.attempted += samples.len();
        self.failed += samples.iter().filter(|s| s.outcome != Outcome::Ok).count();
        if let Some(bad) = samples.iter().find(|s| s.outcome == Outcome::Wrong) {
            self.problems.push(format!(
                "wrong result bag for a Query{} query",
                bad.shape + 1
            ));
        }
    }
}

/// Runs the workload's measured loop for `seconds`.
pub fn run(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    plans: &[QueryPlan],
    oracle: &Oracle,
    seconds: f64,
) -> RunOutput {
    match workload.plan_kind() {
        Some(kind) => run_paper(kind, world, inputs, plans, oracle, seconds),
        None if workload == Workload::CpuMix => run_cpu_mix(world, inputs, oracle, seconds),
        None => run_zipf_open(world, inputs, plans, oracle),
    }
}

/// Compiles a paper query the way a paper workload poses it.
fn compile_paper(med: &Wsmed, kind: PlanKind, shape: usize) -> QueryPlan {
    let sql = PAPER_SQL[shape];
    match kind {
        PlanKind::Central => med.compile_central(sql),
        PlanKind::Ff => med.compile_parallel(sql, &PAPER_FANOUTS[shape].to_vec()),
        PlanKind::Aff => med.compile_adaptive(sql, &AdaptiveConfig::default()),
    }
    .expect("paper query compiles")
}

/// Compiles the plans a precompiling workload executes, in the order of
/// [`Inputs::sqls`] — the compile step of set-up. `cpu_mix` compiles per
/// request and gets none.
pub fn compile_all(workload: Workload, med: &Wsmed, inputs: &Inputs) -> Vec<QueryPlan> {
    if workload == Workload::CpuMix {
        return Vec::new();
    }
    inputs
        .sqls
        .iter()
        .map(|sql| compile_one(workload, med, sql))
        .collect()
}

/// Compiles one of the workload's queries the way the workload does.
pub fn compile_one(workload: Workload, med: &Wsmed, sql: &str) -> QueryPlan {
    match workload.plan_kind() {
        Some(kind) => {
            let shape = PAPER_SQL
                .iter()
                .position(|paper| *paper == sql)
                .expect("paper workloads pose only the paper queries");
            compile_paper(med, kind, shape)
        }
        None => med.plan_query(sql).expect("workload query plans"),
    }
}

/// The counts that must repeat exactly across executions of one
/// deterministic plan.
type ExactCounts = (u64, u64, u64, u64);

fn run_paper(
    kind: PlanKind,
    world: &World,
    inputs: &Inputs,
    plans: &[QueryPlan],
    oracle: &Oracle,
    seconds: f64,
) -> RunOutput {
    let mut out = RunOutput::default();
    let mut exact: [Option<ExactCounts>; 3] = [None; 3];
    let mut samples = Vec::new();
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // Whole passes only, so every run weighs the three queries equally;
    // stop before a pass that would end past the deadline.
    let mut last_pass = Duration::ZERO;
    for order in inputs.paper_order.iter().cycle() {
        let pass_start = Instant::now();
        if pass_start + last_pass > deadline && !samples.is_empty() {
            break;
        }
        for &shape in order {
            let t = Instant::now();
            let result = world.med.execute(&plans[shape]);
            let latency = t.elapsed().as_secs_f64() / TIME_SCALE;
            let (outcome, obs) = match result {
                Ok(report) => {
                    let obs = Obs::of(&report);
                    let ok = oracle.matches(PAPER_SQL[shape], &report.rows);
                    if kind != PlanKind::Aff {
                        let counts = (obs.rows, obs.calls, obs.shipped_bytes, obs.messages);
                        let first = *exact[shape].get_or_insert(counts);
                        if first != counts {
                            out.problems.push(format!(
                                "Query{} (rows, calls, shipped bytes, messages) {counts:?} \
                                 differs from the first execution's {first:?}",
                                shape + 1
                            ));
                        }
                    }
                    (if ok { Outcome::Ok } else { Outcome::Wrong }, obs)
                }
                Err(_) => (Outcome::Failed, Obs::default()),
            };
            samples.push(Sample {
                shape,
                latency,
                outcome,
                measured: true,
                phase: 0,
                obs,
            });
        }
        last_pass = pass_start.elapsed();
    }
    let elapsed_model = start.elapsed().as_secs_f64() / TIME_SCALE;
    out.cpu_s = measure::cpu_seconds() - cpu0;
    out.tally(&samples);
    let completed = samples
        .iter()
        .filter(|s| s.outcome != Outcome::Failed)
        .count();
    out.cpu_queries = completed;
    out.qps = completed as f64 / elapsed_model;
    out.samples = samples;
    out
}

fn shape_of(template: TemplateKind) -> usize {
    match template {
        TemplateKind::Query1Places => 0,
        TemplateKind::Query2ZipState => 1,
        TemplateKind::Query3FlightsState => 2,
    }
}

fn run_cpu_mix(world: &World, inputs: &Inputs, oracle: &Oracle, seconds: f64) -> RunOutput {
    let injections = &inputs.phases[0].injections;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let inj = &injections[i % injections.len()];
                    let t = Instant::now();
                    let result = world.med.run_planned(&inj.sql);
                    let latency = t.elapsed().as_secs_f64();
                    let (outcome, obs) = match result {
                        Ok(report) => (
                            if oracle.matches(&inj.sql, &report.rows) {
                                Outcome::Ok
                            } else {
                                Outcome::Wrong
                            },
                            Obs::of(&report),
                        ),
                        Err(_) => (Outcome::Failed, Obs::default()),
                    };
                    mine.push(Sample {
                        shape: shape_of(inj.template),
                        latency,
                        outcome,
                        measured: true,
                        phase: 0,
                        obs,
                    });
                }
                samples.lock().expect("sample sink").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut out = RunOutput {
        cpu_s: measure::cpu_seconds() - cpu0,
        ..RunOutput::default()
    };
    let samples = samples.into_inner().expect("sample sink");
    out.tally(&samples);
    let completed = samples
        .iter()
        .filter(|s| s.outcome != Outcome::Failed)
        .count();
    out.cpu_queries = completed;
    out.qps = completed as f64 / elapsed;
    out.samples = samples;
    out
}

/// One open-loop request's timeline, model seconds from the anchor.
struct Timed {
    sample: Sample,
    due: f64,
    claimed: f64,
    dispatched: f64,
}

/// Poses `phase` open loop with `clients()` client threads. A free
/// client claims the next request in arrival order, sleeps until it is
/// due, and runs it; latency counts from the due instant, so time spent
/// waiting for a free client is part of it.
fn open_loop(
    world: &World,
    phase_index: usize,
    phase: &Phase,
    plans: &HashMap<&str, &QueryPlan>,
    oracle: &Oracle,
) -> Vec<Timed> {
    let next = AtomicUsize::new(0);
    let timeline = Mutex::new(Vec::with_capacity(phase.injections.len()));
    let anchor = Instant::now();
    let model = |at: Instant| at.duration_since(anchor).as_secs_f64() / TIME_SCALE;
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(inj) = phase.injections.get(i) else {
                    break;
                };
                let claimed = Instant::now();
                let due = anchor + Duration::from_secs_f64(inj.arrival_model_secs * TIME_SCALE);
                if due > claimed {
                    std::thread::sleep(due - claimed);
                }
                let dispatched = Instant::now();
                let outcome =
                    world
                        .med
                        .execute_arrival_for(&inj.tenant, plans[inj.sql.as_str()], due);
                let latency = outcome.latency_wall().as_secs_f64() / TIME_SCALE;
                let (outcome, obs) = match outcome {
                    ArrivalOutcome::Completed { report, .. } => (
                        if oracle.matches(&inj.sql, &report.rows) {
                            Outcome::Ok
                        } else {
                            Outcome::Wrong
                        },
                        Obs::of(&report),
                    ),
                    _ => (Outcome::Failed, Obs::default()),
                };
                let timed = Timed {
                    sample: Sample {
                        shape: shape_of(inj.template),
                        latency,
                        outcome,
                        measured: true,
                        phase: phase_index,
                        obs,
                    },
                    due: inj.arrival_model_secs,
                    claimed: model(claimed),
                    dispatched: model(dispatched),
                };
                timeline.lock().expect("timeline sink").push(timed);
            });
        }
    });
    let mut timeline = timeline.into_inner().expect("timeline sink");
    timeline.sort_by(|a, b| a.due.total_cmp(&b.due));
    timeline
}

/// Most requests due but not yet dispatched at once, and how many were
/// still waiting when the last request fell due.
fn backlog(timeline: &[Timed]) -> (usize, usize) {
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(timeline.len() * 2);
    for t in timeline {
        events.push((t.due, 1));
        events.push((t.dispatched.max(t.due), -1));
    }
    // Departures before arrivals at equal instants.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut depth, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        depth += delta;
        max = max.max(depth);
    }
    let last_due = timeline.last().map_or(0.0, |t| t.due);
    let waiting = timeline.iter().filter(|t| t.dispatched > last_due).count();
    (max as usize, waiting)
}

fn run_zipf_open(
    world: &World,
    inputs: &Inputs,
    plans: &[QueryPlan],
    oracle: &Oracle,
) -> RunOutput {
    let plans: HashMap<&str, &QueryPlan> =
        inputs.sqls.iter().map(String::as_str).zip(plans).collect();
    let mut out = RunOutput::default();
    let mut lateness = Vec::new();
    let cpu0 = measure::cpu_seconds();
    for (i, phase) in inputs.phases.iter().enumerate() {
        let mut timeline = open_loop(world, i, phase, &plans, oracle);
        let warmup = if i == 0 {
            phase.duration * WARMUP_SHARE
        } else {
            0.0
        };
        for t in &mut timeline {
            t.sample.measured = t.due >= warmup;
        }
        let samples: Vec<Sample> = timeline.iter().map(|t| t.sample.clone()).collect();
        out.tally(&samples);
        let measured: Vec<f64> = samples
            .iter()
            .filter(|s| s.measured)
            .map(|s| {
                if s.outcome == Outcome::Ok {
                    s.latency
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let (backlog_max, backlog_end) = backlog(&timeline);
        let p95 = measure::quantile(&measured, 0.95);
        let rung = Rung {
            rate: phase.rate,
            n: measured.len(),
            p95,
            backlog_end,
            pass: p95 <= P95_LIMIT_MODEL_S && backlog_end <= 2 * clients() + measured.len() / 20,
        };
        out.cpu_queries += samples
            .iter()
            .filter(|s| s.outcome != Outcome::Failed)
            .count();
        // The generator is judged on sustainable load: the phases that
        // met the limit. Late starts while a client was free count
        // everywhere.
        if rung.pass {
            lateness.extend(
                timeline
                    .iter()
                    .filter(|t| t.sample.measured)
                    .map(|t| t.dispatched - t.due),
            );
            out.loadgen.backlog_max = out.loadgen.backlog_max.max(backlog_max);
        }
        out.loadgen.generator_late += timeline
            .iter()
            .filter(|t| t.dispatched - t.due.max(t.claimed) > GENERATOR_LAG_LIMIT_MODEL_S)
            .count();
        out.samples.extend(samples);
        out.rungs.push(rung);
    }
    out.cpu_s = measure::cpu_seconds() - cpu0;
    out.loadgen.lateness_n = lateness.len();
    if !lateness.is_empty() {
        out.loadgen.lateness_p95 = measure::quantile(&lateness, 0.95);
    }
    if out.loadgen.generator_late as f64 > GENERATOR_LATE_SHARE * out.attempted as f64 {
        out.problems.push(format!(
            "invalid run: the generator started {} of {} requests more than \
             {GENERATOR_LAG_LIMIT_MODEL_S} model-s late while a client was free",
            out.loadgen.generator_late, out.attempted
        ));
    }
    // Goodput at the highest rate meeting the limit, counting only an
    // unbroken run of passing rungs from the reference rate upwards: the
    // rate times the share of its requests answered correctly within the
    // limit.
    let mut rungs: Vec<(usize, &Rung)> = out.rungs.iter().enumerate().collect();
    rungs.sort_by(|a, b| a.1.rate.total_cmp(&b.1.rate));
    out.qps = rungs
        .iter()
        .take_while(|(_, r)| r.pass)
        .last()
        .map_or(0.0, |(phase, r)| {
            let rung: Vec<&Sample> = out
                .samples
                .iter()
                .filter(|s| s.phase == *phase && s.measured)
                .collect();
            let good = rung
                .iter()
                .filter(|s| s.outcome == Outcome::Ok && s.latency <= P95_LIMIT_MODEL_S)
                .count();
            r.rate * good as f64 / rung.len() as f64
        });
    out
}
