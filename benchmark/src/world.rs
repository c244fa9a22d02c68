//! One repetition's world: the inputs made from the seed and the portal
//! built over them.
//!
//! `--seed` drives the scenario (expiry, availability — the map itself is
//! fixed, see [`Inputs::generate`]), the request trace and the index and
//! probe RNGs. The program under test receives only the generated SQL
//! strings and sensor lists.

use colr_engine::{
    IndexStrategy, PortalConfig, PortalError, QueryRequest, QueryResponse, ShardedPortal,
};
use colr_geo::{Point, Rect};
use colr_tree::{LsmConfig, Mode, SensorMeta, TimeDelta, Timestamp};
use colr_workload::{QuerySpec, QueryWorkload, QueryWorkloadConfig, ScenarioConfig};

use crate::probe::{self, ChargedProbe};

/// The portal-wide cap R on sensors contacted per query (applies when a
/// request carries no `SAMPLESIZE`).
pub const SAMPLE_CAP: usize = 64;
/// `SAMPLESIZE` of every `routed_wide` request.
pub const ROUTED_SAMPLE: usize = 128;
/// The instant the frozen-clock workloads stop the sim clock at.
const FROZEN_AT: Timestamp = Timestamp(1_000);

/// The four named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's regime: partially warm, probing, advancing clock.
    LiveLocal,
    /// Hot viewports on a frozen clock: the pure CPU hot path.
    WarmPan,
    /// The warm fleet behind 8 shards with wide viewports.
    RoutedWide,
    /// `warm_pan` reads at a fixed rate beside unthrottled register/retire.
    ChurnMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LiveLocal,
        Workload::WarmPan,
        Workload::RoutedWide,
        Workload::ChurnMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveLocal => "live_local",
            Workload::WarmPan => "warm_pan",
            Workload::RoutedWide => "routed_wide",
            Workload::ChurnMix => "churn_mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the portal runs.
    pub fn shards(self) -> usize {
        match self {
            Workload::RoutedWide => 8,
            _ => 1,
        }
    }

    /// Whether the sim clock stays at [`FROZEN_AT`] after warm-up (so the
    /// warmed caches never expire and no probe is issued).
    pub fn frozen_clock(self) -> bool {
        self != Workload::LiveLocal
    }

    /// Threads issuing load in the untraced run (never more than 2).
    pub fn load_threads(self) -> usize {
        match self {
            Workload::WarmPan | Workload::ChurnMix => 2,
            _ => 1,
        }
    }
}

/// Operation counts of one repetition. Fixed per workload (so counts repeat
/// exactly for a seed); `--quick` divides them by 100 and the fleet by 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Untimed requests issued before the measured block.
    pub warmup: usize,
    /// Timed requests per repetition (summed over clients).
    pub block: usize,
    /// Requests of a repetition that the traced run replays.
    pub traced: usize,
}

impl Scale {
    /// The frozen scale of `workload`.
    pub fn of(workload: Workload, quick: bool) -> Scale {
        // Blocks of one to two seconds, so a run holds enough repetitions
        // for a median; on the frozen clock a block is a whole number of
        // passes over the hot viewports. The traced run replays 20 000
        // requests where four replays of them fit into half a minute.
        let (warmup, block, traced) = match workload {
            Workload::LiveLocal => (2_000, 8_000, 20_000),
            Workload::WarmPan => (512, 12 * HOT_VIEWPORTS, 20_000),
            Workload::RoutedWide => (512, 2 * HOT_VIEWPORTS, 5_000),
            Workload::ChurnMix => (512, 3 * HOT_VIEWPORTS, 14_000),
        };
        let (sensors, shrink) = if quick { (2_000, 100) } else { (40_000, 1) };
        Scale {
            sensors,
            warmup: warmup / shrink.min(20),
            block: block / shrink,
            traced: traced / shrink,
        }
    }
}

/// One generated request: the SQL text the program receives, plus what the
/// benchmark keeps to drive the clock and audit the answer.
#[derive(Debug, Clone)]
pub struct Request {
    /// Dialect SQL.
    pub sql: String,
    /// The viewport (exactly as the SQL spells it), staleness bound and
    /// arrival instant (`live_local` advances the sim clock to it).
    pub spec: QuerySpec,
}

/// Everything made from the seed before the program under test is touched.
pub struct Inputs {
    /// The fleet.
    pub sensors: Vec<SensorMeta>,
    /// Deployment extent.
    pub extent: Rect,
    /// Longest reading lifetime in the fleet.
    pub t_max: TimeDelta,
    /// `live_local`: warm-up + block requests in arrival order. Others: the
    /// hot viewports replayed cyclically.
    pub requests: Vec<Request>,
    /// Locations the churn writer registers, drawn from the fleet's own
    /// placement mixture.
    pub churn_pool: Vec<Point>,
}

/// Registered locations cycle through a pool this large; it exceeds the live
/// cohort, so a pool location is live at most once at a time.
pub const CHURN_POOL: usize = 1 << 16;
/// Viewports the frozen-clock workloads replay cyclically. Enough of them
/// that a run's mean and 99th-percentile work barely depend on which ones
/// the seed drew (512 left ±8 % between seeds).
const HOT_VIEWPORTS: usize = 2_048;
/// Seed of the map: where the 200 cities lie and where each sensor sits.
///
/// The map is the benchmark's data set and stays fixed; `--seed` draws
/// everything else (expiry, availability, the request trace, index and probe
/// RNGs). A map per seed made the work per request differ by ±8 % between
/// seeds, which on this host would have cost the timing metrics their bounds.
const MAP_SEED: u64 = 20_080_407;

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.seed = seed;
        cfg.sensor_count = scale.sensors;
        if workload.frozen_clock() {
            cfg.availability = (1.0, 1.0);
        }
        // The scenario builder draws its trace around its own cities; ours
        // is drawn below, around the fixed map's.
        cfg.queries.count = 0;
        let mut scenario = cfg.build();
        let pool = if workload == Workload::ChurnMix {
            CHURN_POOL
        } else {
            0
        };
        // One longer draw: the head is the fleet, the tail fresh points from
        // the same city mixture for the churn writer to register.
        let mut map = cfg
            .placement
            .place(cfg.extent, scale.sensors + pool, MAP_SEED);
        let churn_pool = map.split_off(scale.sensors);
        for (sensor, at) in scenario.sensors.iter_mut().zip(map) {
            sensor.location = at;
        }
        let trace = QueryWorkloadConfig {
            count: if workload.frozen_clock() {
                HOT_VIEWPORTS
            } else {
                scale.warmup + scale.block.max(scale.traced)
            },
            viewport_side: if workload == Workload::RoutedWide {
                (600.0, 2_500.0)
            } else {
                (40.0, 800.0)
            },
            ..Default::default()
        };
        let cities = cfg.placement.centres(cfg.extent, MAP_SEED);
        let requests = QueryWorkload::generate(cfg.extent, &cities, &trace, seed)
            .queries
            .iter()
            .map(|spec| {
                // Two decimals, so the SQL text and the audit agree on the
                // viewport to the last bit.
                let c = |v: f64| (v * 100.0).round() / 100.0;
                let r = &spec.rect;
                let spec = QuerySpec {
                    rect: Rect::from_coords(c(r.min.x), c(r.min.y), c(r.max.x), c(r.max.y)),
                    ..spec.clone()
                };
                Request {
                    sql: sql_for(workload, &spec, None),
                    spec,
                }
            })
            .collect();
        Inputs {
            sensors: scenario.sensors,
            extent: scenario.extent,
            t_max: scenario.t_max,
            requests,
            churn_pool,
        }
    }
}

/// The SQL text of one viewport request. `sample` overrides the sample
/// target (the per-layer replay rebuilds a router's per-shard sub-requests
/// this way).
pub fn sql_for(workload: Workload, spec: &QuerySpec, sample: Option<usize>) -> String {
    let r = &spec.rect;
    let rect = format!("RECT({}, {}, {}, {})", r.min.x, r.min.y, r.max.x, r.max.y);
    let mut sql = if workload == Workload::RoutedWide {
        format!("SELECT count(*) FROM sensor WHERE location WITHIN {rect}")
    } else {
        format!(
            "SELECT avg(value) FROM sensor WHERE location WITHIN {rect} \
             AND time BETWEEN now()-{} AND now() secs CLUSTER 50",
            spec.staleness.millis() / 1_000
        )
    };
    let sample = sample.or((workload == Workload::RoutedWide).then_some(ROUTED_SAMPLE));
    if let Some(r) = sample {
        sql.push_str(&format!(" SAMPLESIZE {r}"));
    }
    sql
}

/// A full-extent `count(*)` whose sample target exceeds any population: the
/// warm-up's cache filler and the churn audit's exact count.
pub fn full_extent_count_sql(extent: &Rect) -> String {
    format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT({}, {}, {}, {}) \
         SAMPLESIZE 100000000",
        extent.min.x - 1.0,
        extent.min.y - 1.0,
        extent.max.x + 1.0,
        extent.max.y + 1.0
    )
}

/// The portal under test plus the inputs it was built from.
pub struct World {
    /// Which workload this world serves.
    pub workload: Workload,
    /// The seed everything was made from.
    pub seed: u64,
    /// The operation counts it was built for.
    pub scale: Scale,
    /// The generated inputs.
    pub inputs: Inputs,
    /// SQL in → response out goes through here and nowhere else.
    pub portal: ShardedPortal<ChargedProbe>,
    /// Seconds spent building this world, warm-up pass included.
    pub setup_s: f64,
}

impl World {
    /// Generates the inputs, builds the portal over `IndexStrategy::Lsm` and
    /// runs the fixed-size warm-up pass. Everything `setup_s` covers.
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> World {
        let started = std::time::Instant::now();
        let inputs = Inputs::generate(workload, seed, scale);
        let config = PortalConfig {
            mode: Mode::Colr,
            max_sensors_per_query: Some(SAMPLE_CAP),
            seed,
            index: IndexStrategy::Lsm(LsmConfig {
                l0_capacity: 1024,
                level_ratio: 4,
            }),
            ..Default::default()
        };
        let t_max = inputs.t_max;
        let portal = ShardedPortal::new(
            inputs.sensors.clone(),
            |shard, metas| ChargedProbe::new(metas, t_max, seed ^ ((shard as u64 + 1) << 32)),
            workload.shards(),
            config,
        );
        let mut world = World {
            workload,
            seed,
            scale,
            inputs,
            portal,
            setup_s: 0.0,
        };
        world.warm_up();
        world.setup_s = started.elapsed().as_secs_f64();
        world
    }

    /// Parses `sql` and executes it through the router: the one path every
    /// measured request takes.
    pub fn query(&self, sql: &str) -> Result<QueryResponse, PortalError> {
        self.portal.execute(&QueryRequest::from_sql(sql)?)
    }

    /// Index into `inputs.requests` of the request the `i`-th measured
    /// operation issues: the hot set cyclically, or the trace past warm-up.
    pub fn slot(&self, i: usize) -> usize {
        if self.workload.frozen_clock() {
            i % self.inputs.requests.len()
        } else {
            self.scale.warmup + i
        }
    }

    fn warm_up(&mut self) {
        if self.workload.frozen_clock() {
            self.portal.clock().advance_to(FROZEN_AT);
            // Fill every cache: an over-asking full-extent count probes each
            // sensor it has no fresh reading for, until none is left.
            let fill = full_extent_count_sql(&self.inputs.extent);
            for attempt in 0.. {
                self.query(&fill).expect("warm-up fill query");
                if probe::take().probes == 0 {
                    break;
                }
                assert!(attempt < 8, "caches still probing after 8 fill passes");
            }
        }
        for i in 0..self.scale.warmup {
            let request = &self.inputs.requests[i % self.inputs.requests.len()];
            if !self.workload.frozen_clock() {
                self.portal.clock().advance_to(request.spec.at);
            }
            self.query(&request.sql).expect("warm-up query");
        }
        probe::take();
    }
}
