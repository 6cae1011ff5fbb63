//! Building the simulated world and the mediator a workload runs on, and
//! the reference result bags every completed query is checked against.

use std::collections::HashMap;
use std::sync::Arc;

use wsmed_core::{paper, CachePolicy, PlannerPolicy, QuotaPolicy, RouterPolicy, Wsmed};
use wsmed_netsim::{Network, ProviderSpec, SimConfig};
use wsmed_services::{
    calibration, install_paper_services, AviationService, Dataset, DatasetConfig, GeoPlacesService,
    ServiceRegistry, SoapService, TerraService, UsZipService, ZipCodesService,
};
use wsmed_store::{canonicalize, Tuple};

/// The simulated network's seed (the same one `paper::setup` uses, so the
/// figures line up with the repository's figure binaries).
const NETWORK_SEED: u64 = 0x5EED_1CDE;

/// The provider hosting Query2's leaf operation (`GetPlacesInside`).
const Q2_LEAF_PROVIDER: &str = "codebump.com/zip";

/// How the mediator is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediatorConfig {
    /// As imported: no cache, no pool, heuristic planner, no router, no
    /// quota — the paper's system.
    Bare,
    /// Every shared layer on: cross-run single-flight cache with a TTL,
    /// warm process pool, cost-based planner with pruning, Query2's leaf
    /// provider replicated ×2 behind least-in-flight routing, and a
    /// concurrent-query quota of one query per client.
    Shared,
}

/// Cache entry lifetime on the shared mediator, model seconds. Longer than
/// a run, so a run's misses are first touches: the head hits once warm
/// while rarely drawn keys keep missing all run long. A shorter lifetime
/// puts expiry misses of head keys at the per-shape median, which then
/// flips between the hit and miss modes from seed to seed.
const CACHE_TTL_MODEL_S: f64 = 3000.0;

/// A mediator over the simulated services, with handles on what the
/// benchmark inspects.
pub struct World {
    /// The mediator.
    pub med: Arc<Wsmed>,
    /// The simulated network (provider metrics and traces).
    pub network: Arc<Network>,
    /// The dataset behind the services.
    pub dataset: Arc<Dataset>,
}

/// Wraps each service before it is installed (the traced run's timing
/// decorator); `None` installs the services as the product does.
pub type ServiceWrap<'a> = &'a dyn Fn(Arc<dyn SoapService>) -> Arc<dyn SoapService>;

/// Builds the world: dataset, services, WSDL import and mediator
/// configuration.
pub fn build(time_scale: f64, config: MediatorConfig, wrap: Option<ServiceWrap<'_>>) -> World {
    let network = Network::new(SimConfig::new(time_scale, NETWORK_SEED));
    let dataset = Arc::new(Dataset::generate(DatasetConfig::small()));
    let registry = match wrap {
        None => install_paper_services(Arc::clone(&network), Arc::clone(&dataset)),
        Some(wrap) => install_wrapped(Arc::clone(&network), Arc::clone(&dataset), wrap),
    };
    let mut med = Wsmed::new(registry);
    med.import_all_wsdl().expect("paper services import");
    if config == MediatorConfig::Shared {
        med.set_cache_policy(Some(CachePolicy {
            ttl_model_secs: Some(CACHE_TTL_MODEL_S),
            cross_run: true,
            single_flight: true,
            ..CachePolicy::default()
        }));
        med.enable_process_pool(true);
        med.set_planner_policy(PlannerPolicy::CostBased { prune: true });
        med.set_quota_policy(QuotaPolicy {
            max_concurrent_queries: Some(crate::workloads::clients()),
            ..QuotaPolicy::default()
        });
        let mut extra = calibration::zipcodes_spec();
        extra.name = format!("{Q2_LEAF_PROVIDER}#1");
        network
            .replicate(Q2_LEAF_PROVIDER, vec![extra])
            .expect("Query2 leaf provider replicates");
        med.set_router_policy(Some(RouterPolicy::LeastInFlight));
        med.reseed_profiles();
    }
    World {
        med: Arc::new(med),
        network,
        dataset,
    }
}

/// `install_paper_services` with every service passed through `wrap`.
fn install_wrapped(
    network: Arc<Network>,
    dataset: Arc<Dataset>,
    wrap: ServiceWrap<'_>,
) -> ServiceRegistry {
    let mut registry = ServiceRegistry::new(network);
    let services: Vec<(Arc<dyn SoapService>, ProviderSpec)> = vec![
        (
            Arc::new(GeoPlacesService::new(Arc::clone(&dataset))),
            calibration::geoplaces_spec(),
        ),
        (
            Arc::new(TerraService::new(Arc::clone(&dataset))),
            calibration::terraservice_spec(),
        ),
        (
            Arc::new(UsZipService::new(Arc::clone(&dataset))),
            calibration::uszip_spec(),
        ),
        (
            Arc::new(ZipCodesService::new(Arc::clone(&dataset))),
            calibration::zipcodes_spec(),
        ),
        (
            Arc::new(AviationService::new(dataset)),
            calibration::aviation_spec(),
        ),
    ];
    for (service, spec) in services {
        registry.install(wrap(service), spec);
    }
    registry
}

/// The dataset's state abbreviations, the parameter domain of the
/// generated workloads.
pub fn states(dataset: &Dataset) -> Vec<String> {
    dataset.states().iter().map(|s| s.abbr.clone()).collect()
}

/// Reference result bags, one per distinct SQL text.
pub struct Oracle {
    bags: HashMap<String, Vec<Tuple>>,
}

impl Oracle {
    /// Computes each query's bag with the central plan at time scale 0 on
    /// a separate bare mediator, and pins the paper's Query2 answer.
    pub fn compute<'a>(sqls: impl IntoIterator<Item = &'a str>) -> Result<Oracle, String> {
        let world = build(0.0, MediatorConfig::Bare, None);
        let mut bags = HashMap::new();
        for sql in sqls {
            if bags.contains_key(sql) {
                continue;
            }
            let report = world
                .med
                .run_central(sql)
                .map_err(|e| format!("reference run failed: {e}"))?;
            bags.insert(sql.to_owned(), canonicalize(report.rows));
        }
        if let Some(q2) = bags.get(paper::QUERY2_SQL) {
            let rendered: Vec<String> = q2.iter().map(|t| t.to_string()).collect();
            if rendered.len() != 1 || !rendered[0].contains("CO") || !rendered[0].contains("80840")
            {
                return Err(format!(
                    "Query2 reference answer is {rendered:?}, expected one row (CO, 80840)"
                ));
            }
        }
        Ok(Oracle { bags })
    }

    /// The reference bag of `sql` (empty for an unknown query).
    pub fn bag(&self, sql: &str) -> &[Tuple] {
        self.bags.get(sql).map_or(&[], Vec::as_slice)
    }

    /// Whether `rows` equal the reference bag of `sql`, order-insensitively.
    pub fn matches(&self, sql: &str, rows: &[Tuple]) -> bool {
        self.bags
            .get(sql)
            .is_some_and(|bag| bag.as_slice() == canonicalize(rows.to_vec()).as_slice())
    }
}
