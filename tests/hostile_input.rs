//! Hostile but valid input: no statement may panic or wedge the portal.
//!
//! Every row is SQL the parser accepts (or rejects with a typed error) whose
//! numbers sit at an edge — a zero or absurd sample target, a zero-area or
//! inverted rectangle, infinite corners, radius or staleness, a ring that
//! crosses itself. Each runs through a 1-shard and a 4-shard
//! [`ShardedPortal`], fresh (one LSM level per shard) and churned (L0
//! sensors, a second level, tombstones: the same code over different data),
//! on a helper thread under `catch_unwind` with a deadline, and must come
//! back in time, without a panic, with group counts that add up to what the
//! degradation report says was sampled, and with all four routers agreeing
//! on whether anything was found. Each row is asked twice: as a bare
//! `count(*)`, which must be the population a flat scan finds (so 1 and 4
//! shards agree on it), and with `SAMPLESIZE 64`, so that the walk meets
//! every hostile shape too.
//!
//! A backend is hostile input too: one whose reports are short, long, or
//! name sensors it was not asked about must leave no value in an answer, or
//! in a cache, that the asked sensors did not produce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use colr_repro::colr::probe::{AlwaysAvailable, ProbeService};
use colr_repro::colr::{LsmConfig, Mode, Reading, SensorId, SensorMeta, TimeDelta, Timestamp};
use colr_repro::engine::{IndexStrategy, PortalConfig, PortalError, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 32;
const DEADLINE: Duration = Duration::from_secs(10);

const FULL: &str = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-1, -1, 32, 32)";

fn within(shape: &str) -> String {
    format!("SELECT count(*) FROM sensor WHERE location WITHIN {shape}")
}

/// A bow-tie: its two lobes wind opposite ways, so the signed area of the
/// ring clipped to a box cancels and a level weighted by it was skipped
/// (0 sensors found where 15 lie inside).
const BOW_TIE: &str = "POLYGON((0 0, 10 10, 0 10, 10 0))";

fn statements() -> Vec<String> {
    let rows = [
        FULL.to_owned(),
        within("RECT(5, 5, 5, 5)"),
        within("RECT(31, 31, 0, 0)"),
        within("RECT(-1e999, -1e999, 1e999, 1e999)"),
        within("RECT(1e999, 1e999, -1e999, -1e999)"),
        within("CIRCLE(16, 16, 1e999)"),
        within("CIRCLE(16, 16, 0)"),
        format!("{FULL} AND time BETWEEN now() - 1e999 AND now() mins"),
        within(BOW_TIE),
    ];
    let sampled = |row: &String| [row.clone(), format!("{row} SAMPLESIZE 64")];
    let mut statements: Vec<String> = rows.iter().flat_map(sampled).collect();
    statements.push(format!("{FULL} SAMPLESIZE 0"));
    statements.push(format!("{FULL} SAMPLESIZE 1e30"));
    statements
}

/// Where the `i`-th of the churned routers' 40 registrations sits; every
/// third of them is retired.
fn arrival(i: usize) -> Point {
    Point::new((i * 7 % 32) as f64 + 0.5, (i * 11 % 32) as f64 + 0.5)
}

/// The live sensors of [`router`]`(_, churned)`, for a flat scan.
fn live_locations(churned: bool) -> Vec<Point> {
    let grid = (0..SIDE * SIDE).map(|i| Point::new((i % SIDE) as f64, (i / SIDE) as f64));
    let kept = (0..40).filter(|i| churned && i % 3 != 0).map(arrival);
    grid.chain(kept).collect()
}

/// A router over the 32×32 grid; `churned` adds 40 registrations with a merge
/// after the 32nd and retires every third of them, so each shard answers
/// from L0, a second level and tombstone masks as well as its base level.
fn router(shards: usize, churned: bool) -> ShardedPortal<AlwaysAvailable> {
    let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    router_over(shards, churned, probe)
}

fn router_over<P: ProbeService>(
    shards: usize,
    churned: bool,
    probe: impl FnMut(usize, &[SensorMeta]) -> P,
) -> ShardedPortal<P> {
    let expiry = TimeDelta::from_millis(EXPIRY_MS);
    let sensors: Vec<SensorMeta> = live_locations(false)
        .into_iter()
        .enumerate()
        .map(|(i, at)| SensorMeta::new(i as u32, at, expiry, 1.0))
        .collect();
    let config = PortalConfig {
        seed: 20_080_407,
        mode: Mode::Colr,
        index: IndexStrategy::Lsm(LsmConfig {
            l0_capacity: 8,
            ..Default::default()
        }),
        ..Default::default()
    };
    let router = ShardedPortal::new(sensors, probe, shards, config);
    router.clock().advance_to(Timestamp(5_000));
    if churned {
        let tickets: Vec<usize> = (0..40)
            .map(|i| {
                if i == 32 {
                    router.reindex_all();
                }
                router.register_sensor(arrival(i), TimeDelta::from_millis(EXPIRY_MS), 1.0, 0)
            })
            .collect();
        for &ticket in tickets.iter().step_by(3) {
            assert!(router.retire_sensor(ticket));
        }
    }
    router
}

/// Runs `sql` on a helper thread; `Some(sampled)` for an answer, `None` for
/// a typed error. Panics (failing the test) on a panic or a missed deadline.
fn run(portal: &ShardedPortal<AlwaysAvailable>, sql: &str) -> Option<u64> {
    let (tx, rx) = mpsc::channel();
    let shards = portal.shard_count();
    let (portal, text) = (portal.clone(), sql.to_owned());
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            QueryRequest::from_sql(&text).and_then(|req| portal.execute(&req))
        }));
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{shards} shard(s): `{sql}` did not return in {DEADLINE:?}"))
        .unwrap_or_else(|_| panic!("{shards} shard(s): `{sql}` panicked"));
    let result = outcome.ok()?.result;
    let grouped: u64 = result.groups.iter().map(|g| g.count).sum();
    assert_eq!(
        grouped, result.degradation.sampled,
        "{shards} shard(s): `{sql}` groups do not add up to what was sampled"
    );
    Some(result.degradation.sampled)
}

#[test]
fn edge_valued_statements_neither_panic_nor_wedge() {
    let routers = [
        ("1 shard", router(1, false)),
        ("4 shards", router(4, false)),
        ("1 shard churned", router(1, true)),
        ("4 shards churned", router(4, true)),
    ];
    assert!(
        matches!(
            QueryRequest::from_sql(&within(BOW_TIE)),
            Err(PortalError::Parse(_))
        ),
        "a ring that crosses itself is a parse error"
    );
    for sql in statements() {
        let answers: Vec<Option<u64>> = routers.iter().map(|(_, r)| run(r, &sql)).collect();
        // A bare count is the population, whatever the shape.
        let bare = QueryRequest::from_sql(&sql).ok();
        if let Some(q) = bare
            .as_ref()
            .map(|req| req.select())
            .filter(|q| q.counts_population())
        {
            let region = q.within.region();
            for (i, (name, _)) in routers.iter().enumerate() {
                let live = live_locations(name.ends_with("churned"));
                let scan = live.iter().filter(|at| region.contains_point(at)).count();
                assert_eq!(answers[i], Some(scan as u64), "`{sql}`: {name}");
            }
        }
        for (i, (name, _)) in routers.iter().enumerate().skip(1) {
            assert_eq!(
                answers[0].map(|n| n == 0),
                answers[i].map(|n| n == 0),
                "`{sql}`: {} answered {:?}, {name} {:?}",
                routers[0].0,
                answers[0],
                answers[i]
            );
        }
    }
}

/// A value no asked sensor produces: each honest reading carries its
/// sensor's id, and the hostile ones carry this.
const PLANTED: f64 = 1e9;

#[derive(Debug, Clone, Copy)]
enum Lie {
    /// Leaves the last id of every batch unanswered.
    Short,
    /// Prepends a reading of sensor 0, shifting every later outcome.
    Long,
    /// Answers every id with a reading of the next sensor.
    WrongId,
}

/// A backend that lies in the shape of its report until `dark` is set, then
/// answers nothing, so a query only reads what the caches hold.
struct Liar {
    lie: Lie,
    dark: Arc<AtomicBool>,
}

impl ProbeService for Liar {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if self.dark.load(Ordering::Relaxed) {
            return vec![None; ids.len()];
        }
        let reading = |sensor: SensorId, value: f64| {
            Some(Reading {
                sensor,
                value,
                timestamp: now,
                expires_at: now + TimeDelta::from_millis(EXPIRY_MS),
            })
        };
        let honest = ids.iter().map(|&id| reading(id, f64::from(id.0)));
        match self.lie {
            Lie::Short => honest.take(ids.len().saturating_sub(1)).collect(),
            Lie::Long => std::iter::once(reading(SensorId(0), PLANTED))
                .chain(honest)
                .collect(),
            Lie::WrongId => ids
                .iter()
                .map(|&id| reading(SensorId(id.0 + 1), PLANTED))
                .collect(),
        }
    }
}

fn max_value(portal: &ShardedPortal<Liar>, sql: &str) -> Option<f64> {
    let request = QueryRequest::from_sql(sql).expect("valid SQL");
    portal.execute(&request).expect("an answer").result.value
}

#[test]
fn a_backend_that_answers_other_ids_plants_no_value() {
    const VIEWPORT: &str =
        "SELECT max(value) FROM sensor WHERE location WITHIN RECT(10, 10, 20, 20) SAMPLESIZE 40";
    const EVERYWHERE: &str =
        "SELECT max(value) FROM sensor WHERE location WITHIN RECT(-1, -1, 32, 32)";
    for lie in [Lie::Short, Lie::Long, Lie::WrongId] {
        for shards in [1, 4] {
            for churned in [false, true] {
                let dark = Arc::new(AtomicBool::new(false));
                let portal = router_over(shards, churned, |_, _| Liar {
                    lie,
                    dark: dark.clone(),
                });
                let case = format!("{lie:?}, {shards} shard(s), churned: {churned}");
                for pass in ["cold", "warm"] {
                    let value = max_value(&portal, VIEWPORT);
                    assert!(
                        value.is_none_or(|v| v < PLANTED),
                        "{case}, {pass}: the answer holds {value:?}"
                    );
                    if let Lie::Short = lie {
                        assert!(value.is_some(), "{case}, {pass}: honest readings lost");
                    }
                }
                dark.store(true, Ordering::Relaxed);
                let cached = max_value(&portal, EVERYWHERE);
                assert!(
                    cached.is_none_or(|v| v < PLANTED),
                    "{case}: the caches hold {cached:?}"
                );
            }
        }
    }
}
