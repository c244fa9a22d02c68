//! Hostile but valid input: no statement may panic or wedge the portal.
//!
//! Every row is SQL the parser accepts (or rejects with a typed error) whose
//! numbers sit at an edge — a zero or absurd sample target, a zero-area or
//! inverted rectangle, infinite corners, radius or staleness. Each runs
//! through a 1-shard and a 4-shard [`ShardedPortal`] on a helper thread under
//! `catch_unwind` with a deadline, and must come back in time, without a
//! panic, with group counts that add up to what the degradation report says
//! was sampled, and with both routers agreeing on whether anything was found.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{Mode, SensorMeta, TimeDelta, Timestamp};
use colr_repro::engine::{PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 32;
const DEADLINE: Duration = Duration::from_secs(10);

const FULL: &str = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-1, -1, 32, 32)";

fn statements() -> Vec<String> {
    let within = |shape: &str| format!("SELECT count(*) FROM sensor WHERE location WITHIN {shape}");
    vec![
        format!("{FULL} SAMPLESIZE 0"),
        format!("{FULL} SAMPLESIZE 1e30"),
        within("RECT(5, 5, 5, 5)"),
        within("RECT(31, 31, 0, 0)"),
        within("RECT(-1e999, -1e999, 1e999, 1e999)"),
        within("RECT(1e999, 1e999, -1e999, -1e999)"),
        within("CIRCLE(16, 16, 1e999)"),
        within("CIRCLE(16, 16, 0)"),
        format!("{FULL} AND time BETWEEN now() - 1e999 AND now() mins"),
    ]
}

fn router(shards: usize) -> ShardedPortal<AlwaysAvailable> {
    let sensors: Vec<SensorMeta> = (0..SIDE * SIDE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect();
    let config = PortalConfig {
        seed: 20_080_407,
        mode: Mode::Colr,
        ..Default::default()
    };
    let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let router = ShardedPortal::new(sensors, probe, shards, config);
    router.clock().advance_to(Timestamp(5_000));
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
    let (one, four) = (router(1), router(4));
    for sql in statements() {
        let a = run(&one, &sql);
        let b = run(&four, &sql);
        assert_eq!(
            a.map(|n| n == 0),
            b.map(|n| n == 0),
            "`{sql}`: 1 shard answered {a:?}, 4 shards {b:?}"
        );
    }
}
