//! The traced run: per-layer metrics timed from the benchmark's own code,
//! around the calls into each layer's public functions. Nothing here
//! instruments the program itself.
//!
//! The run poses the workload twice for half the time each: first
//! untraced, then on a world whose services carry a timing decorator and
//! whose providers record call traces. Compile, wire, XML and OWF timings
//! and the transport side pass run after the traced half, so they never
//! overlap the measured loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wsmed_core::{
    wire, CoreResult, ExecContext, OwfCatalog, PlanFunction, PlanOp, QueryPlan, SimTransport,
    WsTransport,
};
use wsmed_netsim::MetricsSnapshot;
use wsmed_services::SoapService;
use wsmed_store::Value;
use wsmed_wsdl::{OwfDef, WsdlDocument};
use wsmed_xml::Element;

use crate::measure;
use crate::workloads::{self, Inputs, Obs, Outcome, RunOutput, Workload};
use crate::world::{Oracle, World};
use crate::{metric, set_up, Metric};

/// Calls whose request and response elements (services) or response
/// values (transport) are kept for the after-run XML and OWF timings.
const CAPTURE: usize = 400;
/// Distinct queries timed through the compile layers.
const COMPILE_SAMPLES: usize = 12;
/// Repetitions per compile / wire timing; the median is reported.
const REPS: usize = 5;
/// Provider call-trace capacity per provider.
const NETSIM_TRACE: usize = 100_000;
/// Bound on the central plan's unexplained wall-time share in the
/// reconciliation (compile + Σ transport call + Σ OWF flatten vs wall).
const RECONCILE_BOUND: f64 = 0.5;

/// The traced run's result.
pub struct Traced {
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Counts and captures from the timing service decorator.
#[derive(Default)]
struct ServiceProbe {
    calls: AtomicU64,
    serve_ns: AtomicU64,
    captured: Mutex<Vec<(Element, Element)>>,
}

impl ServiceProbe {
    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.serve_ns.store(0, Ordering::Relaxed);
        self.captured.lock().expect("capture sink").clear();
    }
}

/// A service that times `invoke` and keeps the first requests and
/// responses it serves.
struct TimedService {
    inner: Arc<dyn SoapService>,
    probe: Arc<ServiceProbe>,
}

impl SoapService for TimedService {
    fn service_name(&self) -> &str {
        self.inner.service_name()
    }

    fn wsdl_uri(&self) -> &str {
        self.inner.wsdl_uri()
    }

    fn provider_name(&self) -> &str {
        self.inner.provider_name()
    }

    fn wsdl(&self) -> WsdlDocument {
        self.inner.wsdl()
    }

    fn invoke(&self, operation: &str, request: &Element) -> Result<Element, String> {
        let t = Instant::now();
        let response = self.inner.invoke(operation, request);
        let ns = t.elapsed().as_nanos() as u64;
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe.serve_ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(resp) = &response {
            let mut captured = self.probe.captured.lock().expect("capture sink");
            if captured.len() < CAPTURE {
                captured.push((request.clone(), resp.clone()));
            }
        }
        response
    }
}

/// One call through the timing transport.
struct CallRecord {
    wall: Duration,
    bytes: u64,
}

/// A transport that times every call at the call boundary and keeps the
/// first responses for the OWF flatten timing.
struct TimingTransport {
    inner: Arc<SimTransport>,
    calls: Mutex<Vec<CallRecord>>,
    captured: Mutex<Vec<(OwfDef, Value)>>,
}

impl TimingTransport {
    fn record(&self, owf: &OwfDef, t: Instant, result: &CoreResult<(Value, u64)>) {
        let wall = t.elapsed();
        if let Ok((value, bytes)) = result {
            self.calls.lock().expect("call sink").push(CallRecord {
                wall,
                bytes: *bytes,
            });
            let mut captured = self.captured.lock().expect("capture sink");
            if captured.len() < CAPTURE {
                captured.push((owf.clone(), value.clone()));
            }
        }
    }
}

impl WsTransport for TimingTransport {
    fn call_operation(&self, owf: &OwfDef, args: &[Value]) -> CoreResult<Value> {
        self.call_operation_metered(owf, args, None).map(|(v, _)| v)
    }

    fn call_operation_metered(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
    ) -> CoreResult<(Value, u64)> {
        let t = Instant::now();
        let result = self
            .inner
            .call_operation_metered(owf, args, deadline_model_secs);
        self.record(owf, t, &result);
        result
    }

    fn call_operation_replica(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
        replica: &str,
    ) -> CoreResult<(Value, u64)> {
        let t = Instant::now();
        let result = self
            .inner
            .call_operation_replica(owf, args, deadline_model_secs, replica);
        self.record(owf, t, &result);
        result
    }

    fn group_view(&self, owf: &OwfDef) -> Option<wsmed_core::router::GroupView> {
        self.inner.group_view(owf)
    }

    fn provider_name(&self, owf: &OwfDef) -> String {
        self.inner.provider_name(owf)
    }

    fn model_now(&self) -> f64 {
        self.inner.model_now()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn install_trace(&self, trace: Option<Arc<wsmed_core::TraceLog>>) {
        self.inner.install_trace(trace)
    }

    fn provider_profile(&self, owf: &OwfDef) -> Option<wsmed_core::ProviderProfile> {
        self.inner.provider_profile(owf)
    }
}

/// Totals over the providers' metrics.
fn netsim_totals(world: &World) -> (u64, f64, usize) {
    world.network.metrics_by_provider().iter().fold(
        (0, 0.0, 0),
        |(calls, latency, high), (_, m)| {
            (
                calls + m.calls,
                latency + m.total_model_latency,
                high.max(m.max_in_flight),
            )
        },
    )
}

/// The plan functions a plan ships, outermost first.
fn plan_functions(plan: &QueryPlan) -> Vec<&PlanFunction> {
    fn walk<'a>(op: &'a PlanOp, out: &mut Vec<&'a PlanFunction>) {
        if let PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } = op {
            out.push(pf);
            walk(&pf.body, out);
        }
        if let Some(input) = op.input() {
            walk(input, out);
        }
    }
    let mut out = Vec::new();
    walk(&plan.root, &mut out);
    out
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Result of the transport side pass over central plans.
struct SidePass {
    calls: Vec<CallRecord>,
    queries: usize,
    flatten_ns: Vec<f64>,
    flatten_rows: Vec<f64>,
    /// Per query: the share of its wall time nothing timed explains.
    unexplained: Vec<f64>,
    /// Failed or wrongly answered side-pass queries.
    problems: Vec<String>,
}

/// Runs one central plan per query shape through [`TimingTransport`] on
/// the traced world, serially, and reconciles each query's wall time
/// against compile + Σ call + Σ flatten.
fn transport_side_pass(world: &World, oracle: &Oracle, sqls: &[&str]) -> SidePass {
    let mut pass = SidePass {
        calls: Vec::new(),
        queries: 0,
        flatten_ns: Vec::new(),
        flatten_rows: Vec::new(),
        unexplained: Vec::new(),
        problems: Vec::new(),
    };
    let owfs: Arc<OwfCatalog> = Arc::new(world.med.owfs().clone());
    let sim = world.network.config().clone();
    for sql in sqls {
        let transport = Arc::new(TimingTransport {
            inner: Arc::new(SimTransport::new(world.med.registry().clone())),
            calls: Mutex::new(Vec::new()),
            captured: Mutex::new(Vec::new()),
        });
        let start = Instant::now();
        let plan = world
            .med
            .compile_central(sql)
            .expect("central plan compiles");
        let compile = start.elapsed();
        let ctx = ExecContext::new(
            Arc::clone(&transport) as Arc<dyn WsTransport>,
            Arc::clone(&owfs),
            sim.clone(),
        );
        let result = ctx.run_plan(&plan);
        let wall = start.elapsed();
        match result {
            Ok(report) if oracle.matches(sql, &report.rows) => {}
            Ok(_) => {
                pass.problems
                    .push("transport side pass: wrong result bag".to_owned());
                continue;
            }
            Err(e) => {
                pass.problems.push(format!("transport side pass: {e}"));
                continue;
            }
        }
        let calls = std::mem::take(&mut *transport.calls.lock().expect("call sink"));
        let captured = std::mem::take(&mut *transport.captured.lock().expect("capture sink"));
        let call_time: Duration = calls.iter().map(|c| c.wall).sum();
        // Re-time the flattening of the captured responses; extrapolate to
        // the uncaptured calls by the mean.
        let mut flatten = Vec::with_capacity(captured.len());
        for (owf, value) in &captured {
            let ns = measure::median_ns(REPS, || owf.flatten_batch(value).map(|b| b.len()));
            flatten.push(ns);
            let rows = owf.flatten_batch(value).map_or(0, |b| b.len());
            pass.flatten_rows.push(rows as f64);
        }
        let flatten_total = mean(flatten.iter().copied()) * calls.len() as f64 / 1e9;
        let explained = compile.as_secs_f64() + call_time.as_secs_f64() + flatten_total;
        pass.unexplained
            .push((wall.as_secs_f64() - explained) / wall.as_secs_f64());
        pass.flatten_ns.extend(flatten);
        pass.calls.extend(calls);
        pass.queries += 1;
    }
    pass
}

/// The traced run of `workload`: an untraced half, then a traced half,
/// then the after-run layer timings.
pub fn traced_run(workload: Workload, inputs: &Inputs, oracle: &Oracle, half: f64) -> Traced {
    let mut problems = Vec::new();

    // Untraced half: the reference for `trace.overhead`.
    let (world, plans, _) = set_up(workload, inputs, None);
    let plain = workloads::run(workload, &world, inputs, &plans, oracle, half);
    problems.extend(plain.problems.iter().cloned());
    drop(world);

    // Traced half.
    let probe = Arc::new(ServiceProbe::default());
    let wrap_probe = Arc::clone(&probe);
    let wrap = move |inner: Arc<dyn SoapService>| -> Arc<dyn SoapService> {
        Arc::new(TimedService {
            inner,
            probe: Arc::clone(&wrap_probe),
        })
    };
    let (world, plans, _) = set_up(workload, inputs, Some(&wrap));
    probe.reset();
    let traces: Vec<_> = world
        .network
        .provider_names()
        .iter()
        .filter_map(|name| world.network.provider(name).ok())
        .map(|p| {
            let trace = p.start_trace(NETSIM_TRACE);
            (p, trace)
        })
        .collect();
    let (calls0, latency0, _) = netsim_totals(&world);
    let admission0 = world.med.admission().stats();
    let out = workloads::run(workload, &world, inputs, &plans, oracle, half);
    problems.extend(out.problems.iter().cloned());
    let (calls1, latency1, highwater) = netsim_totals(&world);
    let admission1 = world.med.admission().stats();
    let mut congestion = Vec::new();
    for (provider, trace) in &traces {
        provider.stop_trace();
        let capacity = provider.capacity() as f64;
        congestion.extend(
            trace
                .records()
                .into_iter()
                .map(|r| r.in_flight as f64 / capacity),
        );
    }

    let mut metrics = layer_metrics(workload, &world, inputs, oracle, &plans, &out);

    // netsim
    let net_calls = calls1 - calls0;
    metrics.push(metric(
        "netsim.model_s_per_call",
        ratio(latency1 - latency0, net_calls as f64),
        "s",
    ));
    metrics.push(metric("netsim.congestion_mean", mean(congestion), "ratio"));
    metrics.push(metric(
        "netsim.inflight_highwater",
        highwater as f64,
        "count",
    ));

    // services and xmlite
    let serve_calls = probe.calls.load(Ordering::Relaxed) as f64;
    metrics.push(metric(
        "services.serve_us_per_call",
        ratio(
            probe.serve_ns.load(Ordering::Relaxed) as f64 / 1e3,
            serve_calls,
        ),
        "us",
    ));
    let captured = std::mem::take(&mut *probe.captured.lock().expect("capture sink"));
    let xml_ns =
        mean(captured.iter().map(|(req, resp)| {
            measure::median_ns(REPS, || req.to_xml().len() + resp.to_xml().len())
        }));
    let xml_bytes = mean(
        captured
            .iter()
            .map(|(req, resp)| (req.to_xml().len() + resp.to_xml().len()) as f64),
    );
    metrics.push(metric("xmlite.to_xml_us_per_call", xml_ns / 1e3, "us"));
    metrics.push(metric("xmlite.bytes_per_call", xml_bytes, "B"));

    // resilience: shed queries and calls from the admission controller
    metrics.push(metric(
        "resilience.shed",
        ((admission1.shed_queries + admission1.shed_calls)
            - (admission0.shed_queries + admission0.shed_calls)) as f64,
        "count",
    ));

    // transport, owf and the central-plan reconciliation
    let shapes: Vec<&str> = (0..3)
        .filter_map(|shape| inputs.first_of_shape(shape))
        .collect();
    let side = transport_side_pass(&world, oracle, &shapes);
    problems.extend(side.problems.iter().cloned());
    let call_ms: Vec<f64> = side
        .calls
        .iter()
        .map(|c| c.wall.as_secs_f64() * 1e3)
        .collect();
    metrics.push(metric(
        "transport.calls_per_query",
        ratio(side.calls.len() as f64, side.queries as f64),
        "count",
    ));
    let (p50, p95) = if call_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (measure::median(&call_ms), measure::quantile(&call_ms, 0.95))
    };
    metrics.push(metric("transport.call_ms_p50", p50, "ms"));
    metrics.push(metric("transport.call_ms_p95", p95, "ms"));
    metrics.push(metric(
        "transport.bytes_per_call",
        mean(side.calls.iter().map(|c| c.bytes as f64)),
        "B",
    ));
    metrics.push(metric(
        "owf.flatten_us_per_call",
        mean(side.flatten_ns.iter().copied()) / 1e3,
        "us",
    ));
    metrics.push(metric(
        "owf.rows_per_call",
        mean(side.flatten_rows.iter().copied()),
        "count",
    ));
    let unexplained = side.unexplained.iter().copied().fold(0.0f64, |worst, u| {
        if u.abs() > worst.abs() {
            u
        } else {
            worst
        }
    });
    if unexplained.abs() > RECONCILE_BOUND {
        problems.push(format!(
            "central-plan reconciliation: {:.1}% of a query's wall time is unexplained \
             (bound {:.0}%)",
            unexplained * 100.0,
            RECONCILE_BOUND * 100.0
        ));
    }
    metrics.push(metric("reconcile.unexplained_share", unexplained, "share"));

    // trace.overhead: CPU per query, traced half over untraced half.
    metrics.push(metric(
        "trace.overhead",
        ratio(out.cpu_ms_per_query(), plain.cpu_ms_per_query()),
        "ratio",
    ));

    Traced {
        problems,
        attempted: plain.attempted + out.attempted,
        failed: plain.failed + out.failed,
        metrics,
    }
}

/// Metrics computed from the run's execution reports and from timing the
/// compile and wire layers on the run's own queries, plans and rows.
fn layer_metrics(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    oracle: &Oracle,
    plans: &[QueryPlan],
    out: &RunOutput,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let med = &world.med;

    // sqlfront / planner
    let sqls: Vec<&String> = inputs.sqls.iter().take(COMPILE_SAMPLES).collect();
    let calculus_us = measure::median(
        &sqls
            .iter()
            .map(|sql| measure::median_ns(REPS, || med.calculus(sql).is_ok()) / 1e3)
            .collect::<Vec<_>>(),
    );
    let plan_us = measure::median(
        &sqls
            .iter()
            .map(|sql| {
                measure::median_ns(REPS, || workloads::compile_one(workload, med, sql)) / 1e3
            })
            .collect::<Vec<_>>(),
    );
    m.push(metric("sqlfront.calculus_us", calculus_us, "us"));
    m.push(metric("planner.plan_us", plan_us, "us"));

    // wire
    let done: Vec<&Obs> = out
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| &s.obs)
        .collect();
    m.push(metric(
        "wire.shipped_bytes_per_query",
        mean(done.iter().map(|o| o.shipped_bytes as f64)),
        "B",
    ));
    m.push(metric(
        "wire.messages_per_query",
        mean(done.iter().map(|o| o.messages as f64)),
        "count",
    ));
    let (mut enc_ns, mut dec_ns, mut tuples) = (0.0, 0.0, 0usize);
    for sql in &sqls {
        let rows = oracle.bag(sql);
        if rows.is_empty() {
            continue;
        }
        let bytes = wire::encode_tuple_batch(rows);
        enc_ns += measure::median_ns(REPS, || wire::encode_tuple_batch(rows));
        dec_ns += measure::median_ns(REPS, || wire::decode_tuple_batch(bytes.clone()));
        tuples += rows.len();
    }
    m.push(metric(
        "wire.encode_ns_per_tuple",
        ratio(enc_ns, tuples as f64),
        "ns",
    ));
    m.push(metric(
        "wire.decode_ns_per_tuple",
        ratio(dec_ns, tuples as f64),
        "ns",
    ));
    let compiled: Vec<QueryPlan> = if plans.is_empty() {
        sqls.iter()
            .map(|sql| med.plan_query(sql).expect("workload query plans"))
            .collect()
    } else {
        plans.to_vec()
    };
    let pfs: Vec<&PlanFunction> = compiled.iter().flat_map(plan_functions).collect();
    let pf_enc = mean(
        pfs.iter()
            .map(|pf| measure::median_ns(REPS, || wire::encode_plan_function(pf)) / 1e3),
    );
    let pf_dec = mean(pfs.iter().map(|pf| {
        let bytes = wire::encode_plan_function(pf);
        measure::median_ns(REPS, || wire::decode_plan_function(bytes.clone())) / 1e3
    }));
    m.push(metric("wire.plan_encode_us", pf_enc, "us"));
    m.push(metric("wire.plan_decode_us", pf_dec, "us"));

    // exec
    let scale = workload.time_scale();
    m.push(metric(
        "exec.processes_per_query",
        mean(done.iter().map(|o| o.processes as f64)),
        "count",
    ));
    m.push(metric(
        "exec.peak_alive",
        mean(done.iter().map(|o| o.peak_alive as f64)),
        "count",
    ));
    m.push(metric(
        "exec.mailbox_wait_ms",
        mean(done.iter().map(|o| o.blocked_send_ms)),
        "ms",
    ));
    m.push(metric(
        "exec.aff_adds",
        mean(done.iter().map(|o| o.aff_adds as f64)),
        "count",
    ));
    m.push(metric(
        "exec.aff_drops",
        mean(done.iter().map(|o| o.aff_drops as f64)),
        "count",
    ));
    let first_rows: Vec<f64> = done
        .iter()
        .filter_map(|o| o.first_row_wall_s)
        .map(|w| if scale > 0.0 { w / scale } else { w })
        .collect();
    m.push(metric(
        "exec.first_row_model_s",
        if first_rows.is_empty() {
            0.0
        } else {
            measure::median(&first_rows)
        },
        "s",
    ));

    // pool, cache, resilience, router
    let sum = |f: fn(&Obs) -> u64| done.iter().map(|o| f(o)).sum::<u64>() as f64;
    let (warm, cold) = (sum(|o| o.warm), sum(|o| o.cold));
    m.push(metric("pool.warm_share", ratio(warm, warm + cold), "share"));
    m.push(metric(
        "cache.hit_ratio",
        ratio(sum(|o| o.cache_hits), sum(|o| o.cache_lookups)),
        "share",
    ));
    m.push(metric("cache.dedup_waits", sum(|o| o.dedup_waits), "count"));
    m.push(metric(
        "cache.cross_query_hits",
        sum(|o| o.cross_query_hits),
        "count",
    ));
    m.push(metric("resilience.retries", sum(|o| o.retries), "count"));
    m.push(metric(
        "resilience.breaker_opens",
        sum(|o| o.breaker_opens),
        "count",
    ));
    let mut per_replica: Vec<(String, u64)> = Vec::new();
    for o in &done {
        for (replica, n) in &o.replica_calls {
            match per_replica.iter_mut().find(|(r, _)| r == replica) {
                Some((_, total)) => *total += n,
                None => per_replica.push((replica.clone(), *n)),
            }
        }
    }
    let routed: u64 = per_replica.iter().map(|(_, n)| n).sum();
    let busiest = per_replica.iter().map(|(_, n)| *n).max().unwrap_or(0);
    m.push(metric(
        "router.replica_share_max",
        ratio(busiest as f64, routed as f64),
        "share",
    ));
    m.push(metric("router.failovers", sum(|o| o.failovers), "count"));

    // loadgen (open loop only)
    m.push(metric(
        "loadgen.lateness_p95_model_s",
        out.loadgen.lateness_p95,
        "s",
    ));
    m.push(metric(
        "loadgen.backlog_max",
        out.loadgen.backlog_max as f64,
        "count",
    ));
    m
}
