//! End-to-end tests of the dialect extensions: sensor-type filters and
//! circular regions, driven through the portal.

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{Mode, ProbeService, SensorMeta, TimeDelta};
use colr_repro::engine::{PortalConfig, PortalError, PortalResult, PortalService, QueryRequest};
use colr_repro::geo::Point;

const EXPIRY_MS: u64 = 300_000;

/// Lowers `sql` through the one SQL path and executes it.
fn run<P: ProbeService>(svc: &PortalService<P>, sql: &str) -> Result<PortalResult, PortalError> {
    Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
}

/// 16x16 grid: even-x columns are type 1 ("traffic"), odd-x are type 2
/// ("weather").
fn typed_portal(mode: Mode) -> PortalService<AlwaysAvailable> {
    let sensors: Vec<SensorMeta> = (0..256)
        .map(|i| {
            let x = i % 16;
            SensorMeta::new(
                i as u32,
                Point::new(x as f64, (i / 16) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
            .with_kind(1 + (x % 2) as u16)
        })
        .collect();
    PortalService::new(
        sensors,
        AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        },
        PortalConfig {
            mode,
            max_sensors_per_query: None,
            ..Default::default()
        },
    )
}

#[test]
fn type_filter_counts_only_matching_sensors() {
    let portal = typed_portal(Mode::RTree);
    portal.clock().advance(TimeDelta::from_secs(1));
    let all = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5)",
    )
    .unwrap();
    assert_eq!(all.value, Some(256.0));
    let traffic = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
             AND type = 1",
    )
    .unwrap();
    assert_eq!(traffic.value, Some(128.0));
    let weather = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
             AND type = 2",
    )
    .unwrap();
    assert_eq!(weather.value, Some(128.0));
}

#[test]
fn type_filter_with_sampling_stays_within_type() {
    let portal = typed_portal(Mode::Colr);
    portal.clock().advance(TimeDelta::from_secs(1));
    let res = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
             AND type = 1 SAMPLESIZE 30",
    )
    .unwrap();
    let n = res.value.unwrap();
    assert!(n > 0.0 && n <= 128.0, "count {n} out of range for type 1");
    // AlwaysAvailable produces value == sensor id; type-1 sensors have even
    // x, i.e. even id mod 32 pattern — instead just re-check via a second
    // filtered exact query.
    let exact = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
             AND type = 2 SAMPLESIZE 30",
    )
    .unwrap();
    assert!(exact.value.unwrap() <= 128.0);
}

#[test]
fn circle_region_through_sql() {
    let portal = typed_portal(Mode::RTree);
    portal.clock().advance(TimeDelta::from_secs(1));
    // Circle of radius 2.2 around (8,8): grid points within distance 2.2 —
    // count them explicitly.
    let expected = (0..256)
        .filter(|i| {
            let (x, y) = ((i % 16) as f64, (i / 16) as f64);
            ((x - 8.0).powi(2) + (y - 8.0).powi(2)).sqrt() <= 2.2
        })
        .count() as f64;
    let res = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(8, 8, 2.2)",
    )
    .unwrap();
    assert_eq!(res.value, Some(expected));
    assert!(
        expected >= 9.0,
        "sanity: circle should cover several sensors"
    );
}

#[test]
fn circle_and_type_compose() {
    let portal = typed_portal(Mode::HierCache);
    portal.clock().advance(TimeDelta::from_secs(1));
    let both = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(8, 8, 3.0) AND type = 1",
    )
    .unwrap();
    let all = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(8, 8, 3.0)",
    )
    .unwrap();
    assert!(both.value.unwrap() < all.value.unwrap());
    assert!(both.value.unwrap() > 0.0);
}

#[test]
fn min_max_aggregates_over_filtered_sets() {
    // AlwaysAvailable reports value == sensor id, so min/max are exactly
    // checkable.
    let portal = typed_portal(Mode::RTree);
    portal.clock().advance(TimeDelta::from_secs(1));
    // Row y=0 only: ids 0..16; type 2 = odd x → ids 1,3,...,15.
    let res = run(
        &portal,
        "SELECT max(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,0.5) \
             AND type = 2",
    )
    .unwrap();
    assert_eq!(res.value, Some(15.0));
    let res = run(
        &portal,
        "SELECT min(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,0.5) \
             AND type = 2",
    )
    .unwrap();
    assert_eq!(res.value, Some(1.0));
}
