//! One probe wave per query: select → collect → complete.
//!
//! The walk picks every sensor a query will probe before any of them is
//! contacted, so the backend sees the whole request as one batch:
//!
//! (a) every query — any mode, region shape, LSM shape, interactive
//!     or frozen — issues at most ⌈n / 128⌉ backend calls for its `n`
//!     probes, never an empty one, and its `probe_waves` counter says so;
//! (b) how the backend is *called* changes no answer: forwarding each id as
//!     its own call gives byte-identical responses;
//! (c) a backend that answers nothing costs one wave and reports the whole
//!     request as shortfall.

use std::sync::Mutex;

use colr_repro::colr::stats::PROBE_PARALLELISM;
use colr_repro::colr::{
    ColrConfig, ColrTree, LsmConfig, Mode, ProbeService, Query, QueryStats, Reading, SensorId,
    SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{IndexStrategy, PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::{Circle, Point, Polygon, Rect, Region};
use colr_repro::sensors::{ConstantField, SimNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXPIRY_MS: u64 = 300_000;
const SIDE: usize = 32; // 1024 base sensors
const WAVE: u64 = PROBE_PARALLELISM;

/// `SIDE × SIDE` grid plus `extra` late arrivals on the half-integer
/// lattice; two kinds by column parity, availability 0.8.
fn fleet(extra: usize) -> Vec<SensorMeta> {
    let grid = (0..SIDE * SIDE).map(|i| Point::new((i % SIDE) as f64, (i / SIDE) as f64));
    let late = (0..extra).map(|i| Point::new((i % 20) as f64 + 0.5, (i / 20) as f64 + 0.5));
    grid.chain(late)
        .enumerate()
        .map(|(i, at)| {
            SensorMeta::new(i as u32, at, TimeDelta::from_millis(EXPIRY_MS), 0.8)
                .with_kind(1 + (i % 2) as u16)
        })
        .collect()
}

fn network(sensors: &[SensorMeta]) -> SimNetwork<ConstantField> {
    let field = ConstantField {
        base: 10.0,
        step: 0.25,
    };
    SimNetwork::new(sensors.to_vec(), field, 77)
}

/// Records the size of every backend call it forwards.
struct Recording<P> {
    inner: P,
    calls: Mutex<Vec<usize>>,
}

impl<P> Recording<P> {
    fn new(inner: P) -> Self {
        Recording {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

impl<P: ProbeService> ProbeService for Recording<P> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        self.calls.lock().unwrap().push(ids.len());
        self.inner.probe_batch(ids, now)
    }
}

/// Forwards each id as its own inner call, in order.
struct SplitEach<P>(P);

impl<P: ProbeService> ProbeService for SplitEach<P> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        ids.iter()
            .flat_map(|id| self.0.probe_batch(std::slice::from_ref(id), now))
            .collect()
    }
}

/// Nobody home.
struct Dead;

impl ProbeService for Dead {
    fn probe_batch(&self, ids: &[SensorId], _now: Timestamp) -> Vec<Option<Reading>> {
        vec![None; ids.len()]
    }
}

/// The per-query gate: `calls` are the backend calls one or more queries
/// with combined `stats` made, `queries` of them in all.
#[track_caller]
fn assert_one_wave(calls: &[usize], stats: &QueryStats, queries: u64, what: &str) {
    assert!(
        calls.iter().all(|&n| n > 0),
        "{what}: an empty backend call"
    );
    assert!(
        calls.iter().all(|&n| n as u64 <= WAVE),
        "{what}: a call wider than a wave: {calls:?}"
    );
    assert_eq!(
        calls.iter().sum::<usize>() as u64,
        stats.sensors_probed,
        "{what}: probes on the wire vs counted"
    );
    let bound = if queries == 1 {
        stats.sensors_probed.div_ceil(WAVE)
    } else {
        // Per query ⌈n_i / 128⌉ ≤ 1 + n_i / 128, summed over the batch.
        queries + stats.sensors_probed / WAVE
    };
    assert!(
        calls.len() as u64 <= bound,
        "{what}: {} backend calls for {} probes",
        calls.len(),
        stats.sensors_probed
    );
    if queries == 1 {
        assert_eq!(
            stats.probe_waves,
            stats.sensors_probed.div_ceil(WAVE) + stats.retry_waves,
            "{what}: probe_waves must be the one definition of a wave"
        );
    }
}

fn regions() -> Vec<(&'static str, Region)> {
    vec![
        ("rect", Rect::from_coords(-0.5, -0.5, 20.5, 17.5).into()),
        (
            "polygon",
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(30.0, 2.0),
                Point::new(14.0, 28.0),
            ])
            .into(),
        ),
        ("circle", Circle::new(Point::new(15.0, 15.0), 11.5).into()),
    ]
}

#[test]
fn bare_tree_issues_one_wave_per_query_in_every_mode() {
    let sensors = fleet(0);
    for (mode, sample) in [
        (Mode::RTree, None),
        (Mode::HierCache, None),
        (Mode::Colr, Some(90.0)),
        (Mode::Colr, Some(400.0)),
    ] {
        let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 5);
        let probe = Recording::new(network(&sensors));
        let mut rng = StdRng::seed_from_u64(17);
        let mut probing_queries = 0;
        for (shape, region) in regions() {
            for kind in [None, Some(2)] {
                // Cold, warm at the same instant, then partly expired.
                for now in [1_000, 1_000, 1_000 + EXPIRY_MS / 2, 1_000 + EXPIRY_MS] {
                    let mut q = Query::range(region.clone(), TimeDelta::from_mins(2));
                    q.sample_size = sample;
                    q.kind_filter = kind;
                    let out = tree.execute(&q, mode, &probe, Timestamp(now), &mut rng);
                    let what = format!("{mode:?}/{shape}/{kind:?}@{now}");
                    assert_one_wave(&probe.take(), &out.stats, 1, &what);
                    probing_queries += u64::from(out.stats.sensors_probed > 0);
                }
            }
        }
        assert!(probing_queries >= 6, "{mode:?}: scenario probed too little");
    }
}

const SQLS: [&str; 5] = [
    "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,20.5,17.5) SAMPLESIZE 90",
    "SELECT count(*) FROM sensor WHERE location WITHIN POLYGON((0 0, 30 2, 14 28)) SAMPLESIZE 60",
    "SELECT sum(value) FROM sensor WHERE location WITHIN CIRCLE(15, 15, 11.5) SAMPLESIZE 45",
    "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(2,2,28,28) AND type = 2 \
     SAMPLESIZE 70",
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,31.5,31.5) SAMPLESIZE 500",
];

/// A one-shard portal over the base grid; with `churn`, driven to three LSM
/// levels with tombstones in each plus a populated L0 (late arrivals 1024..
/// are known to the backend from the start, by the ids their shard gives
/// them).
fn service<P: ProbeService>(probe: P, churn: bool, mode: Mode) -> ShardedPortal<P> {
    let all = fleet(300);
    let config = PortalConfig {
        seed: 9,
        mode,
        max_sensors_per_query: None,
        index: IndexStrategy::Lsm(LsmConfig::default()),
        ..Default::default()
    };
    let mut probe = Some(probe);
    let probe = |_: usize, _: &[SensorMeta]| probe.take().expect("one shard, one backend");
    let svc = ShardedPortal::new(all[..SIDE * SIDE].to_vec(), probe, 1, config);
    svc.clock().advance(TimeDelta::from_secs(1));
    if !churn {
        return svc;
    }
    let register = |range: std::ops::Range<usize>| {
        for m in &all[range] {
            let id = svc
                .shard(0)
                .register_sensor(m.location, m.expiry, m.availability, m.kind);
            assert_eq!(id, m.id, "registration ids continue the fleet numbering");
        }
    };
    register(1024..1224);
    svc.reindex();
    register(1224..1264);
    svc.reindex();
    register(1264..1324);
    for id in [3, 40, 700, 1030, 1100, 1230, 1270] {
        assert!(svc.shard(0).retire_sensor(SensorId(id)));
    }
    let shape = svc.shard(0).index_stats().expect("lsm configured");
    assert_eq!((shape.levels, shape.tombstones), (3, 7));
    assert!(shape.l0_occupancy > 0);
    svc
}

#[test]
fn lsm_levels_and_l0_share_one_wave() {
    for churn in [false, true] {
        for mode in [Mode::Colr, Mode::HierCache] {
            let svc = service(Recording::new(network(&fleet(300))), churn, mode);
            let mut probing_queries = 0;
            for round in 0..3 {
                for sql in SQLS {
                    let req = QueryRequest::from_sql(sql).expect("valid sql");
                    let resp = svc.execute(&req).expect("query");
                    let what = format!("churn={churn} {mode:?} round {round}: {sql}");
                    assert_one_wave(&svc.shard(0).probe().take(), &resp.result.stats, 1, &what);
                    probing_queries += u64::from(resp.result.stats.sensors_probed > 0);
                }
                svc.clock().advance(TimeDelta::from_millis(EXPIRY_MS / 2));
            }
            assert!(
                probing_queries >= 5,
                "churn={churn} {mode:?}: scenario probed too little"
            );

            // Frozen batches: each query still collects once.
            svc.clock().advance(TimeDelta::from_millis(EXPIRY_MS));
            for threads in [1, 4] {
                let batch = svc.query_many_sql(&SQLS, threads).expect("batch");
                let what = format!("churn={churn} {mode:?} frozen batch x{threads}");
                assert!(batch.stats.sensors_probed > 0, "{what}: nothing probed");
                assert_one_wave(
                    &svc.shard(0).probe().take(),
                    &batch.stats,
                    SQLS.len() as u64,
                    &what,
                );
                svc.clock().advance(TimeDelta::from_millis(EXPIRY_MS));
            }
        }
    }
}

#[test]
fn splitting_the_wave_into_single_probes_changes_no_answer() {
    for churn in [false, true] {
        let direct = service(network(&fleet(300)), churn, Mode::Colr);
        let split = service(SplitEach(network(&fleet(300))), churn, Mode::Colr);
        for round in 0..4 {
            for sql in SQLS {
                let req = QueryRequest::from_sql(sql).expect("valid sql");
                let a = direct.execute(&req).expect("direct");
                let b = split.execute(&req).expect("split");
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "churn={churn} round {round}: backend call shape leaked into {sql}"
                );
            }
            for svc_clock in [direct.clock(), split.clock()] {
                svc_clock.advance(TimeDelta::from_millis(EXPIRY_MS / 3));
            }
        }
        let a = direct.query_many_sql(&SQLS, 1).expect("direct batch");
        let b = split.query_many_sql(&SQLS, 1).expect("split batch");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "churn={churn}: frozen batch"
        );
    }
}

#[test]
fn a_silent_backend_costs_one_wave_and_reports_the_whole_request_short() {
    for churn in [false, true] {
        let svc = service(Recording::new(Dead), churn, Mode::Colr);
        let req = QueryRequest::from_sql(SQLS[0]).expect("valid sql");
        let resp = svc
            .execute(&req)
            .expect("a dead backend degrades, it does not fail");
        let (stats, d) = (&resp.result.stats, &resp.result.degradation);
        assert_one_wave(&svc.shard(0).probe().take(), stats, 1, "dead backend");
        assert!(
            stats.sensors_probed >= 90,
            "oversampling still asks for R / a"
        );
        assert_eq!(stats.probes_failed, stats.sensors_probed);
        assert_eq!((d.requested, d.sampled), (90.0, 0), "churn={churn}: {d:?}");
        assert_eq!(d.fulfillment(), 0.0);
        assert_eq!(resp.result.value, None);
        assert!(resp.result.groups.iter().all(|g| g.count == 0));
    }
}
