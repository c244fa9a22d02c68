//! Statistical tests of the layered-sampling guarantees (Section V-B) on
//! realistic clustered workloads, plus the *sensing-workload uniformity*
//! property observed through the simulated network's probe counters.

use colr_repro::colr::{ColrConfig, ColrTree, Mode, Query, TimeDelta, Timestamp};
use colr_repro::geo::{Rect, Region};
use colr_repro::sensors::{ConstantField, SimNetwork};
use colr_repro::workload::{PlacementModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn clustered_scenario(
    n: usize,
    availability: (f64, f64),
    seed: u64,
) -> Vec<colr_repro::colr::SensorMeta> {
    let mut cfg = ScenarioConfig::live_local_small();
    cfg.sensor_count = n;
    cfg.queries.count = 0;
    cfg.availability = availability;
    cfg.placement = PlacementModel::Clustered {
        cities: 20,
        alpha: 1.0,
        spread: 0.02,
    };
    cfg.seed = seed;
    cfg.build().sensors
}

#[test]
fn theorem1_expected_sample_size_on_clustered_deployment() {
    // Clustered placement, full availability, cold cache each trial:
    // E[|sample|] ≈ R despite wildly unequal subtree weights.
    let sensors = clustered_scenario(3_000, (1.0, 1.0), 41);
    let region = Region::Rect(Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0));
    let r = 60.0;
    let trials = 40;
    let mut rng = StdRng::seed_from_u64(13);
    let mut total = 0usize;
    for t in 0..trials {
        let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 5);
        let net = SimNetwork::new(
            sensors.clone(),
            ConstantField {
                base: 1.0,
                step: 0.0,
            },
            t,
        );
        let q = Query::range(region.clone(), TimeDelta::from_mins(5))
            .with_terminal_level(3)
            .with_sample_size(r);
        let out = tree.execute(&q, Mode::Colr, &net, Timestamp(1_000), &mut rng);
        total += out.readings.len();
    }
    let mean = total as f64 / trials as f64;
    assert!(
        (mean - r).abs() < r * 0.2,
        "mean sample {mean} too far from target {r}"
    );
}

#[test]
fn theorem1_holds_under_heterogeneous_availability() {
    // Availability 0.6–1.0 per sensor: oversampling must still deliver ≈ R
    // successful readings.
    let sensors = clustered_scenario(3_000, (0.6, 1.0), 43);
    let region = Region::Rect(Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0));
    let r = 60.0;
    let trials = 40;
    let mut rng = StdRng::seed_from_u64(29);
    let mut successes = 0usize;
    let mut probes = 0u64;
    for t in 0..trials {
        let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 5);
        let net = SimNetwork::new(
            sensors.clone(),
            ConstantField {
                base: 1.0,
                step: 0.0,
            },
            100 + t,
        );
        let q = Query::range(region.clone(), TimeDelta::from_mins(5))
            .with_terminal_level(3)
            .with_sample_size(r);
        let out = tree.execute(&q, Mode::Colr, &net, Timestamp(1_000), &mut rng);
        successes += out.readings.len();
        probes += out.stats.sensors_probed;
    }
    let mean = successes as f64 / trials as f64;
    let mean_probes = probes as f64 / trials as f64;
    assert!(
        (mean - r).abs() < r * 0.25,
        "mean successes {mean} too far from {r}"
    );
    // Oversampling implies more probes than successes, but bounded.
    assert!(mean_probes > mean);
    assert!(
        mean_probes < mean * 2.0,
        "oversampling exploded: {mean_probes}"
    );
}

#[test]
fn sensing_workload_is_spread_across_sensors() {
    // Theorem 2's purpose: no small subset of sensors absorbs the sensing
    // load. Run many sampled queries over the same region and check the
    // probe counters through the network.
    let sensors = clustered_scenario(1_000, (1.0, 1.0), 47);
    let net = SimNetwork::new(
        sensors.clone(),
        ConstantField {
            base: 1.0,
            step: 0.0,
        },
        3,
    );
    let region = Region::Rect(Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0));
    let mut rng = StdRng::seed_from_u64(31);
    let queries = 150;
    for t in 0..queries {
        // Fresh tree per query → no cache: pure sampling behaviour.
        let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 5);
        let q = Query::range(region.clone(), TimeDelta::from_mins(5))
            .with_terminal_level(3)
            .with_sample_size(50.0);
        tree.execute(&q, Mode::Colr, &net, Timestamp(1_000 + t), &mut rng);
    }
    let counts = net.probe_counts();
    let total: u64 = counts.iter().sum();
    assert!(total > 0);
    let expected = total as f64 / counts.len() as f64;
    // No sensor should carry more than ~6x its fair share of the load.
    let max = *counts.iter().max().unwrap() as f64;
    assert!(
        max < expected * 6.0,
        "load concentrated: max {max} vs fair share {expected}"
    );
    // And the load should touch a large fraction of the population.
    let touched = counts.iter().filter(|&&c| c > 0).count();
    assert!(
        touched as f64 > 0.9 * counts.len() as f64,
        "only {touched} of {} sensors ever probed",
        counts.len()
    );
}

#[test]
fn redistribution_compensates_forced_failures() {
    // Force 30% of sensors down: Algorithm 2 should keep the delivered
    // sample close to target by shifting probes to live subtrees.
    let sensors = clustered_scenario(2_000, (1.0, 1.0), 53);
    let region = Region::Rect(Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0));
    let r = 50.0;
    let trials = 30;
    let mut rng = StdRng::seed_from_u64(37);
    let mut total = 0usize;
    for t in 0..trials {
        let net = SimNetwork::new(
            sensors.clone(),
            ConstantField {
                base: 1.0,
                step: 0.0,
            },
            7 + t,
        );
        for i in 0..sensors.len() {
            if i % 3 == 0 {
                net.set_forced_down(colr_repro::colr::SensorId(i as u32), true);
            }
        }
        let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 5);
        let q = Query::range(region.clone(), TimeDelta::from_mins(5))
            .with_terminal_level(3)
            .with_sample_size(r);
        let out = tree.execute(&q, Mode::Colr, &net, Timestamp(1_000), &mut rng);
        total += out.readings.len();
    }
    let mean = total as f64 / trials as f64;
    // Availability metadata says 1.0 but a third of the network is dark:
    // redistribution should still recover a decent fraction of the target.
    assert!(
        mean > r * 0.55,
        "mean sample {mean} collapsed under failures (target {r})"
    );
}

// ---------------------------------------------------------------------------
// The oracle: Theorems 1 and 2 through the whole stack, checked against a
// flat scan.
//
// SQL text goes in through `ShardedPortal::execute`; what comes out is read
// from the probe backend's own log, never from the answer. The expectation
// side uses only the sensor list and `colr_geo` point-in-region tests (N and
// membership) — the theorems give the rest analytically: a sample of
// expected size R in which every in-range sensor is included with
// probability R/N, so any subset of N_c sensors draws R·N_c/N per query.
//
// Every trial advances the clock past every cached reading's expiry, so a
// trial's sample is exactly what it probed, and runs under its own
// `(seed, ordinal)` stream, so trials are independent and the whole file is
// deterministic. Thresholds are nevertheless set as for a random run, at a
// per-assertion false-positive rate <= 1e-6:
//
// * means (sample size, per-component share): a z-test on the T per-trial
//   values with their own standard deviation, |mean - expected| <=
//   MEAN_Z·s/√T. MEAN_Z = 5.5 is 3.8e-8 two-sided for a normal mean; the
//   decade and a half of slack covers the skew of the rarest per-trial count
//   tested (every component expects >= 100 hits over its T trials).
// * uniformity: X² = Σ_i (c_i - Tp)² / (Tp(1-p)) over the N in-range
//   sensors, p = R/N. Each c_i is Binomial(T, p) under Theorem 2 whatever
//   the joint law, so E[X²] = N; the bound is the Wilson–Hilferty χ²_N
//   quantile at CHI_Z = 5.2 (1e-7 one-sided for independent cells), the
//   slack covering the within-leaf negative correlation of a stratified
//   sample (Var[X²] up by about 1/leaf size) and the binomial's excess
//   kurtosis at the smallest Tp used (10).
// ---------------------------------------------------------------------------

mod oracle {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    use colr_repro::colr::probe::FailEveryKth;
    use colr_repro::colr::{
        Mode, ProbeService, Reading, ResilientConfig, ResilientProber, SensorId, SensorMeta,
        TimeDelta, Timestamp,
    };
    use colr_repro::engine::{PortalConfig, QueryRequest, ShardedPortal};
    use colr_repro::geo::{Circle, Point, Polygon, Rect, Region};
    use colr_repro::workload::ScenarioConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MEAN_Z: f64 = 5.5;
    const CHI_Z: f64 = 5.2;
    const EXPIRY: TimeDelta = TimeDelta::from_secs(60);
    const SIDE: usize = 20;

    /// `base` sensors on the `SIDE`-wide integer grid, then `late` arrivals
    /// on the half-integer lattice inside it. Fleet index = position here.
    fn fleet(base: usize, late: usize, availability: impl Fn(usize) -> f64) -> Vec<SensorMeta> {
        let grid = (0..base).map(|i| Point::new((i % SIDE) as f64, (i / SIDE) as f64));
        let lattice = (0..late).map(|i| Point::new((i % 19) as f64 + 0.5, (i / 19) as f64 + 0.5));
        grid.chain(lattice)
            .enumerate()
            .map(|(i, at)| SensorMeta::new(i as u32, at, EXPIRY, availability(i)))
            .collect()
    }

    /// The fleet index of every sensor that answered, in answer order.
    type Log = Arc<Mutex<Vec<u32>>>;

    /// One shard's probe backend: answers with each sensor's registered
    /// availability and logs who answered.
    struct Backend {
        /// Shard-local sensor id → fleet index.
        fleet_index: Vec<u32>,
        availability: Vec<f64>,
        rng: Mutex<StdRng>,
        log: Log,
    }

    impl ProbeService for Backend {
        fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
            let mut rng = self.rng.lock().unwrap();
            let mut log = self.log.lock().unwrap();
            ids.iter()
                .map(|&id| {
                    let a = self.availability[id.index()];
                    (a >= 1.0 || rng.random_bool(a)).then(|| {
                        log.push(self.fleet_index[id.index()]);
                        Reading {
                            sensor: id,
                            value: 1.0,
                            timestamp: now,
                            expires_at: now + EXPIRY,
                        }
                    })
                })
                .collect()
        }
    }

    /// A portal over `sensors[..base]` in `shards` shards, the rest left for
    /// the caller to register (one shard only: registration ids then continue
    /// the fleet numbering). Returns the shard each base sensor landed in.
    fn portal<P: ProbeService>(
        sensors: &[SensorMeta],
        base: usize,
        shards: usize,
        log: &Log,
        wrap: impl Fn(Backend) -> P,
    ) -> (ShardedPortal<P>, Vec<usize>) {
        assert!(base == sensors.len() || shards == 1);
        let at: HashMap<(u64, u64), u32> = sensors
            .iter()
            .enumerate()
            .map(|(i, m)| ((m.location.x.to_bits(), m.location.y.to_bits()), i as u32))
            .collect();
        let mut shard_of = vec![0; base];
        let portal = ShardedPortal::new(
            sensors[..base].to_vec(),
            |s, metas| {
                let mut fleet_index: Vec<u32> = metas
                    .iter()
                    .map(|m| at[&(m.location.x.to_bits(), m.location.y.to_bits())])
                    .collect();
                for &i in &fleet_index {
                    shard_of[i as usize] = s;
                }
                fleet_index.extend(base as u32..sensors.len() as u32);
                let availability = fleet_index
                    .iter()
                    .map(|&i| sensors[i as usize].availability)
                    .collect();
                wrap(Backend {
                    fleet_index,
                    availability,
                    rng: Mutex::new(StdRng::seed_from_u64(1_000 + s as u64)),
                    log: log.clone(),
                })
            },
            shards,
            PortalConfig {
                seed: 20_080_407,
                ..Default::default()
            },
        );
        assert_eq!(portal.shard_count(), shards);
        (portal, shard_of)
    }

    /// Runs `sql` `trials` times, each past the last one's expiry; returns
    /// per trial the fleet indices that answered.
    fn run<P: ProbeService>(
        portal: &ShardedPortal<P>,
        log: &Log,
        sql: &str,
        trials: usize,
    ) -> Vec<Vec<u32>> {
        let req = QueryRequest::from_sql(sql).expect("oracle SQL parses");
        (0..trials)
            .map(|_| {
                portal.clock().advance(EXPIRY + EXPIRY);
                let resp = portal.execute(&req).expect("oracle query runs");
                let answered = std::mem::take(&mut *log.lock().unwrap());
                assert_eq!(
                    resp.result.degradation.sampled,
                    answered.len() as u64,
                    "{sql}: the answer's sample is not what the backend returned"
                );
                answered
            })
            .collect()
    }

    /// |mean(xs) - expected| <= MEAN_Z·s/√T (see the header for the rate).
    #[track_caller]
    fn assert_mean(what: &str, xs: &[f64], expected: f64) {
        let t = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / t;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (t - 1.0);
        let bound = MEAN_Z * (var / t).sqrt() + 1e-9;
        assert!(
            (mean - expected).abs() <= bound,
            "{what}: mean {mean:.4} over {t} trials, expected {expected:.4} ± {bound:.4}"
        );
    }

    /// Theorem 1 (mean sample = `r`), the per-component shares `r·N_c/N`,
    /// and — when `uniform` — Theorem 2 by chi-square, for the sensors
    /// `member` marks in range. Prints the row's report line and returns the
    /// smallest inclusion ratio `c_i / (T·r/N)`.
    #[track_caller]
    fn check(
        what: &str,
        trials: &[Vec<u32>],
        r: f64,
        member: &[bool],
        components: &[(&str, Vec<usize>)],
        uniform: bool,
    ) -> f64 {
        let n = member.iter().filter(|&&m| m).count() as f64;
        let t = trials.len() as f64;
        let sizes: Vec<f64> = trials.iter().map(|s| s.len() as f64).collect();
        assert_mean(&format!("{what}: Theorem 1"), &sizes, r);

        let mut counts = vec![0u32; member.len()];
        for &i in trials.iter().flatten() {
            assert!(member[i as usize], "{what}: sensor {i} is out of range");
            counts[i as usize] += 1;
        }
        for (name, sensors) in components {
            let mut in_c = vec![false; member.len()];
            for &i in sensors.iter().filter(|&&i| member[i]) {
                in_c[i] = true;
            }
            let n_c = in_c.iter().filter(|&&m| m).count() as f64;
            let expected = r * n_c / n;
            assert!(expected * t >= 100.0, "{what}: too few trials for {name}");
            let hits: Vec<f64> = trials
                .iter()
                .map(|s| s.iter().filter(|&&i| in_c[i as usize]).count() as f64)
                .collect();
            assert_mean(&format!("{what}: share of {name}"), &hits, expected);
        }

        let tp = t * r / n;
        let in_range = || {
            counts
                .iter()
                .zip(member)
                .filter(|(_, &m)| m)
                .map(|(&c, _)| c)
        };
        let x2: f64 = in_range()
            .map(|c| (c as f64 - tp).powi(2) / (tp * (1.0 - r / n)))
            .sum();
        // Wilson–Hilferty upper quantile of χ²_N at CHI_Z.
        let v = 2.0 / (9.0 * n);
        let bound = n * (1.0 - v + CHI_Z * v.sqrt()).powi(3);
        let lo = in_range().min().unwrap_or(0) as f64 / tp;
        let hi = in_range().max().unwrap_or(0) as f64 / tp;
        println!(
            "oracle {what}: T={t} N={n} mean sample {:.3}, X² {x2:.0} (bound {bound:.0}), \
             inclusion ratio {lo:.2}..{hi:.2}",
            sizes.iter().sum::<f64>() / t
        );
        if uniform {
            assert!(tp >= 10.0, "{what}: too few trials for a chi-square");
            assert!(x2 <= bound, "{what}: Theorem 2: X² = {x2:.1} > {bound:.1}");
        }
        lo
    }

    const WHOLE: &str = "RECT(-1, -1, 20, 20)";

    fn samplesize(viewport: &str, r: usize) -> String {
        format!("SELECT count(*) FROM sensor WHERE location WITHIN {viewport} SAMPLESIZE {r}")
    }

    fn all(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn one_fresh_shard_is_uniform() {
        let sensors = fleet(400, 0, |_| 1.0);
        let log = Log::default();
        let (portal, _) = portal(&sensors, 400, 1, &log, |b| b);
        let trials = run(&portal, &log, &samplesize(WHOLE, 32), 600);
        check("1 shard, R=32", &trials, 32.0, &all(400), &[], true);
    }

    /// One shard driven to three levels (300 / 60 / 12) plus 20 sensors in
    /// L0; with `retire`, 30 of the base level's 300 are tombstoned. Returns
    /// the portal and who is live.
    fn lsm_portal(log: &Log, retire: bool) -> (ShardedPortal<Backend>, Vec<bool>) {
        let sensors = fleet(300, 92, |_| 1.0);
        let (portal, _) = portal(&sensors, 300, 1, log, |b| b);
        let register = |range: std::ops::Range<usize>| {
            for m in &sensors[range] {
                portal.register_sensor(m.location, m.expiry, m.availability, m.kind);
            }
        };
        register(300..360);
        portal.reindex_shard(0);
        register(360..372);
        portal.reindex_shard(0);
        register(372..392);
        let mut member = all(392);
        if retire {
            for i in (0..300).step_by(10) {
                assert!(portal.shard(0).retire_sensor(SensorId(i as u32)));
                member[i] = false;
            }
        }
        let shape = portal.shard(0).index_stats().expect("lsm index");
        assert_eq!((shape.levels, shape.l0_occupancy), (3, 20));
        assert_eq!(shape.tombstones, if retire { 30 } else { 0 });
        (portal, member)
    }

    fn lsm_rows(retire: bool) {
        let log = Log::default();
        let (portal, member) = lsm_portal(&log, retire);
        let components = [
            ("level 1", (0..300).collect()),
            ("level 2", (300..360).collect()),
            ("level 3", (360..372).collect()),
            ("L0", (372..392).collect()),
        ];
        for (r, t) in [(1, 4_000), (8, 1_000)] {
            let trials = run(&portal, &log, &samplesize(WHOLE, r), t);
            let what = format!("3 levels + L0, retire={retire}, R={r}");
            check(&what, &trials, r as f64, &member, &components, true);
        }
    }

    #[test]
    fn lsm_levels_and_l0_are_uniform() {
        lsm_rows(false);
    }

    #[test]
    fn lsm_with_tombstones_is_uniform_over_the_live_population() {
        lsm_rows(true);
    }

    /// `CLUSTER 50` on a 40,000-sensor tree (leaves at level 4) ends the
    /// walk at level 3, `T(50)` = 3: every terminal is an internal node
    /// whose share is drawn from a subtree of about a hundred sensors over
    /// some ten leaves, and the two theorems hold there as at the leaves.
    #[test]
    fn cluster_terminals_above_the_leaf_level_are_uniform() {
        const SIDE_40K: usize = 200;
        let sensors: Vec<SensorMeta> = (0..SIDE_40K * SIDE_40K)
            .map(|i| {
                let at = Point::new((i % SIDE_40K) as f64 * 5.0, (i / SIDE_40K) as f64 * 5.0);
                SensorMeta::new(i as u32, at, EXPIRY, 1.0)
            })
            .collect();
        let n = sensors.len();
        let log = Log::default();
        let (portal, _) = portal(&sensors, n, 1, &log, |b| b);
        let snapshot = portal.shard(0).snapshot();
        let (leaf, terminal) = (
            snapshot.tree().leaf_level(),
            snapshot.planner().terminal_level(Some(50.0)),
        );
        assert_eq!((leaf, terminal), (4, 3), "T(50) one level above the leaves");
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-1, -1, 1000, 1000) \
                   CLUSTER 50 SAMPLESIZE 500";
        let trials = run(&portal, &log, sql, 800);
        check(
            "CLUSTER 50 above the leaves, 40k, R=500",
            &trials,
            500.0,
            &all(n),
            &[],
            true,
        );
    }

    #[test]
    fn four_shards_are_uniform_at_small_and_large_r() {
        let sensors = fleet(400, 0, |_| 1.0);
        let log = Log::default();
        let (portal, shard_of) = portal(&sensors, 400, 4, &log, |b| b);
        let names = ["shard 0", "shard 1", "shard 2", "shard 3"];
        let components: Vec<(&str, Vec<usize>)> = (0..4)
            .map(|s| (names[s], (0..400).filter(|&i| shard_of[i] == s).collect()))
            .collect();
        for (r, t) in [(1, 4_000), (3, 2_000), (64, 400)] {
            let trials = run(&portal, &log, &samplesize(WHOLE, r), t);
            let what = format!("4 shards, R={r}");
            check(&what, &trials, r as f64, &all(400), &components, true);
        }
    }

    /// A type filter: Algorithm 1 splits by each node's per-kind weight and
    /// the terminals scan for the kind, so the sample is `R` of the sensors
    /// of that kind, each with probability `R/N_kind` — the same two
    /// theorems over a population a flat scan of the sensor list finds.
    #[test]
    fn a_type_filter_is_uniform_over_the_sensors_of_that_type() {
        let mut sensors = fleet(400, 0, |_| 1.0);
        for (i, m) in sensors.iter_mut().enumerate() {
            m.kind = (i % 3) as u16;
        }
        let member: Vec<bool> = sensors.iter().map(|m| m.kind == 1).collect();
        let sql = format!(
            "SELECT count(*) FROM sensor WHERE location WITHIN {WHOLE} AND type = 1 SAMPLESIZE 16"
        );
        for shards in [1usize, 4] {
            let log = Log::default();
            let (portal, shard_of) = portal(&sensors, 400, shards, &log, |b| b);
            let names = ["shard 0", "shard 1", "shard 2", "shard 3"];
            let components: Vec<(&str, Vec<usize>)> = (0..shards)
                .filter(|_| shards > 1)
                .map(|s| (names[s], (0..400).filter(|&i| shard_of[i] == s).collect()))
                .collect();
            let trials = run(&portal, &log, &sql, 600);
            let what = format!("type = 1, {shards} shard(s), R=16");
            check(&what, &trials, 16.0, &member, &components, true);
        }
    }

    #[test]
    fn theorem1_holds_on_successes_behind_retries_and_live_feedback() {
        // Availability 0.55–0.95 by column, three retries, EWMA feedback:
        // what Algorithm 1 oversamples by is what the prober learns, so the
        // *answered* sample is R whatever the retries recover.
        let sensors = fleet(400, 0, |i| 0.55 + 0.02 * (i % SIDE) as f64);
        let log = Log::default();
        let (portal, _) = portal(&sensors, 400, 1, &log, |b| {
            ResilientProber::new(b, ResilientConfig::default())
        });
        portal.shard(0).enable_resilience_feedback(0.1);
        let sql = samplesize(WHOLE, 32);
        // Warm-up: ~60 observations per sensor, six EWMA time constants.
        run(&portal, &log, &sql, 600);
        let trials = run(&portal, &log, &sql, 1_000);
        check(
            "retries + feedback, R=32",
            &trials,
            32.0,
            &all(400),
            &[],
            false,
        );
    }

    #[test]
    fn approximate_overlap_keeps_theorem1_and_exact_membership() {
        let sensors = fleet(400, 0, |_| 1.0);
        let viewports: [(&str, Region); 3] = [
            (
                "RECT(2.2, 3.3, 17.7, 12.1)",
                Rect::from_coords(2.2, 3.3, 17.7, 12.1).into(),
            ),
            (
                "POLYGON((0 0, 19 2, 8 18))",
                Polygon::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(19.0, 2.0),
                    Point::new(8.0, 18.0),
                ])
                .into(),
            ),
            (
                "CIRCLE(9.5, 9.5, 6.2)",
                Circle::new(Point::new(9.5, 9.5), 6.2).into(),
            ),
        ];
        for (viewport, region) in viewports {
            let log = Log::default();
            let (portal, _) = portal(&sensors, 400, 1, &log, |b| b);
            let member: Vec<bool> = sensors
                .iter()
                .map(|m| region.contains_point(&m.location))
                .collect();
            let trials = run(&portal, &log, &samplesize(viewport, 24), 600);
            let lo = check(viewport, &trials, 24.0, &member, &[], false);
            assert!(lo > 0.0, "{viewport}: an in-range sensor was never sampled");
        }
    }

    /// The region a viewport's SQL names, as the portal parses it.
    fn region_of(viewport: &str) -> Region {
        let req = QueryRequest::from_sql(&samplesize(viewport, 1)).expect("viewport parses");
        req.select().within.region()
    }

    /// `member` narrowed to the sensors inside `viewport`.
    fn inside(viewport: &str, sensors: &[SensorMeta], member: &[bool]) -> Vec<bool> {
        let region = region_of(viewport);
        let at = |i: usize| region.contains_point(&sensors[i].location);
        (0..member.len()).map(|i| member[i] && at(i)).collect()
    }

    /// A level over a 2 × 1 cluster of 200 sensors and 200 sensors spread
    /// over a 90 × 50 box, and 20 arrivals in L0 inside the cluster. Asked
    /// over the cluster alone, L0 holds 20 of the 220 sensors in range and
    /// its share of the sample is 20/220 of it: a split that weighed the
    /// level by its root weight × the viewport's overlap with its root box
    /// handed L0 99 % of it.
    #[test]
    fn a_cluster_beside_fresh_arrivals_splits_by_who_is_in_range() {
        let cluster = (0..200).map(|i| Point::new((i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1));
        let spread = (0..200)
            .map(|i| Point::new(10.0 + (i % 20) as f64 * 4.5, 10.0 + (i / 20) as f64 * 5.0));
        let arrivals = (0..20).map(|i| Point::new(0.05 + i as f64 * 0.1, 0.45));
        let sensors: Vec<SensorMeta> = cluster
            .chain(spread)
            .chain(arrivals)
            .enumerate()
            .map(|(i, at)| SensorMeta::new(i as u32, at, EXPIRY, 1.0))
            .collect();
        let log = Log::default();
        let (portal, _) = portal(&sensors, 400, 1, &log, |b| b);
        for m in &sensors[400..] {
            portal.register_sensor(m.location, m.expiry, m.availability, m.kind);
        }
        let viewport = "RECT(-0.01, -0.01, 2, 1)";
        let member = inside(viewport, &sensors, &all(420));
        assert_eq!(member.iter().filter(|&&m| m).count(), 220);
        let components = [("level", (0..400).collect()), ("L0", (400..420).collect())];
        let trials = run(&portal, &log, &samplesize(viewport, 8), 2_000);
        check(
            "2 × 1 cluster + L0, R=8",
            &trials,
            8.0,
            &member,
            &components,
            false,
        );
    }

    /// [`lsm_portal`] with and without tombstones, asked over a rectangle,
    /// a triangle and a disc that each cut every component: each level's
    /// and L0's share is its live sensors in range over all of them.
    #[test]
    fn lsm_components_share_a_partial_viewport_by_who_is_in_range() {
        let sensors = fleet(300, 92, |_| 1.0);
        let components = [
            ("level 1", (0..300).collect()),
            ("level 2", (300..360).collect()),
            ("level 3", (360..372).collect()),
            ("L0", (372..392).collect()),
        ];
        for retire in [false, true] {
            let log = Log::default();
            let (portal, live) = lsm_portal(&log, retire);
            for viewport in [
                "RECT(2.2, 0.3, 14.7, 9.1)",
                "POLYGON((0 0, 19 2, 8 18))",
                "CIRCLE(9.5, 3.5, 6.2)",
            ] {
                let member = inside(viewport, &sensors, &live);
                let trials = run(&portal, &log, &samplesize(viewport, 8), 1_000);
                let what = format!("3 levels + L0, retire={retire}, {viewport} R=8");
                check(&what, &trials, 8.0, &member, &components, false);
            }
        }
    }

    /// 1,000 sensors drawn from one seed: five dense clusters of unequal
    /// size over a sparse background on the 100-wide square.
    fn clustered_fleet() -> Vec<SensorMeta> {
        let mut rng = StdRng::seed_from_u64(42);
        let clusters = [
            (20.0, 25.0, 260),
            (70.0, 30.0, 200),
            (45.0, 70.0, 180),
            (80.0, 80.0, 120),
            (25.0, 85.0, 90),
        ];
        let mut at = Vec::new();
        for (x, y, n) in clusters {
            let mut near = |c: f64| c + rng.random_range(-8.0..8.0);
            at.extend((0..n).map(|_| Point::new(near(x), near(y))));
        }
        let mut anywhere = || rng.random_range(0.0..100.0);
        at.extend((0..150).map(|_| Point::new(anywhere(), anywhere())));
        let metas = at.into_iter().enumerate();
        metas
            .map(|(i, at)| SensorMeta::new(i as u32, at, EXPIRY, 1.0))
            .collect()
    }

    /// Four shards over [`clustered_fleet`], asked over a rectangle, a
    /// triangle and a disc that each cut every shard: each shard's share is
    /// its sensors in range over all of them, not its sensors times the
    /// viewport's overlap with its box.
    #[test]
    fn four_shards_share_a_partial_viewport_by_who_is_in_range() {
        let sensors = clustered_fleet();
        let n = sensors.len();
        let log = Log::default();
        let (portal, shard_of) = portal(&sensors, n, 4, &log, |b| b);
        let names = ["shard 0", "shard 1", "shard 2", "shard 3"];
        let components: Vec<(&str, Vec<usize>)> = (0..4)
            .map(|s| (names[s], (0..n).filter(|&i| shard_of[i] == s).collect()))
            .collect();
        for viewport in [
            "RECT(15, 12, 85, 85)",
            "POLYGON((10 5, 95 30, 60 98))",
            "CIRCLE(50, 50, 35)",
        ] {
            let member = inside(viewport, &sensors, &all(n));
            let trials = run(&portal, &log, &samplesize(viewport, 64), 400);
            let what = format!("4 clustered shards, {viewport} R=64");
            check(&what, &trials, 64.0, &member, &components, false);
        }
    }

    /// One warm trial: who answered the warm-up, the measured answer's
    /// `sampled`, and who answered the measured request.
    struct WarmTrial {
        warmed: Vec<u32>,
        delivered: u64,
        probed: Vec<u32>,
    }

    /// Each trial moves past every expiry (cold caches), sends `warm_up`,
    /// and then — at the same instant — the measured `sql`.
    fn run_warm<P: ProbeService>(
        portal: &ShardedPortal<P>,
        log: &Log,
        warm_up: &str,
        sql: &str,
        trials: usize,
    ) -> Vec<WarmTrial> {
        let warm_up = QueryRequest::from_sql(warm_up).expect("oracle SQL parses");
        let req = QueryRequest::from_sql(sql).expect("oracle SQL parses");
        (0..trials)
            .map(|_| {
                portal.clock().advance(EXPIRY + EXPIRY);
                portal.execute(&warm_up).expect("warm-up runs");
                let warmed = std::mem::take(&mut *log.lock().unwrap());
                let resp = portal.execute(&req).expect("oracle query runs");
                WarmTrial {
                    warmed,
                    delivered: resp.result.degradation.sampled,
                    probed: std::mem::take(&mut *log.lock().unwrap()),
                }
            })
            .collect()
    }

    /// Theorem 1 on what a warm request *delivers*: cached readings and
    /// cached aggregates count against the target, so the answer represents
    /// at least min(R, N) readings on average — one-sided, at the file's
    /// MEAN_Z (mean >= expected - 5.5·s/√T, 1.9e-8 for a normal mean) — and,
    /// exactly and in every trial, no more than the N live sensors a flat
    /// scan finds in range, no sensor out of range or retired ever contacted,
    /// and at least what the backend returned.
    #[track_caller]
    fn check_warm(what: &str, trials: &[WarmTrial], r: f64, member: &[bool], warmth: f64) {
        let n = member.iter().filter(|&&m| m).count() as f64;
        let t = trials.len() as f64;
        for trial in trials {
            for &i in trial.warmed.iter().chain(&trial.probed) {
                assert!(
                    member[i as usize],
                    "{what}: sensor {i} is out of range or retired"
                );
            }
            assert!(
                trial.delivered as f64 <= n,
                "{what}: delivered {} of {n} in range",
                trial.delivered
            );
            assert!(
                trial.delivered >= trial.probed.len() as u64,
                "{what}: lost probes"
            );
        }
        let delivered: Vec<f64> = trials.iter().map(|x| x.delivered as f64).collect();
        let mean = delivered.iter().sum::<f64>() / t;
        let var = delivered.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (t - 1.0);
        let slack = MEAN_Z * (var / t).sqrt() + 1e-9;
        let expected = r.min(n);
        assert!(
            mean >= expected - slack,
            "{what}: Theorem 1 on delivered: mean {mean:.3} over {t} trials, expected >= \
             {expected:.3} - {slack:.3}"
        );
        // The warm-up did what the row says (a fifth either way: the half
        // rows ask for N/2 and oversampling, redistribution and rounding
        // move that a little), and a fully warm fleet is never probed.
        let warmed = trials.iter().map(|x| x.warmed.len() as f64).sum::<f64>() / t;
        assert!(
            (warmed / n - warmth).abs() <= 0.2 * warmth,
            "{what}: warm-up cached {warmed:.1} of {n}, wanted about {warmth}"
        );
        let probed = trials.iter().map(|x| x.probed.len() as f64).sum::<f64>() / t;
        if warmth >= 1.0 {
            assert_eq!(probed, 0.0, "{what}: a fully warm fleet was probed");
        }
        println!(
            "oracle {what}: T={t} N={n} warmed {warmed:.1}, mean delivered {mean:.3} \
             (>= {expected} - {slack:.3}), mean probed {probed:.3}"
        );
    }

    /// Warm caches, no `CLUSTER`: a contained node whose own slot cache
    /// covers it may answer for its subtree, so a delivered sample is part
    /// cached aggregates, part raw cached readings, part probes.
    #[test]
    fn warm_caches_deliver_the_target_and_nothing_out_of_range() {
        const CUT: &str = "RECT(2.2, 3.3, 17.7, 12.1)";
        let cut: Region = Rect::from_coords(2.2, 3.3, 17.7, 12.1).into();
        let everything = "SELECT count(*) FROM sensor WHERE location WITHIN \
                          RECT(-1, -1, 20, 20) SAMPLESIZE 100000";
        for shards in [1usize, 4] {
            let sensors = fleet(400, 0, |_| 1.0);
            let log = Log::default();
            let (portal, _) = portal(&sensors, 400, shards, &log, |b| b);
            let in_cut: Vec<bool> = sensors
                .iter()
                .map(|m| cut.contains_point(&m.location))
                .collect();
            for r in [8, 64] {
                let what = format!("warm, {shards} shard(s), R={r}");
                let sql = samplesize(WHOLE, r);
                let half = run_warm(&portal, &log, &samplesize(WHOLE, 200), &sql, 300);
                check_warm(&format!("{what}, half"), &half, r as f64, &all(400), 0.5);
                let full = run_warm(&portal, &log, everything, &sql, 300);
                check_warm(&format!("{what}, full"), &full, r as f64, &all(400), 1.0);
            }
            // A viewport that cuts leaves: the warm-up stays inside it too.
            let n_cut = in_cut.iter().filter(|&&m| m).count();
            let half = run_warm(
                &portal,
                &log,
                &samplesize(CUT, n_cut / 2),
                &samplesize(CUT, 24),
                300,
            );
            let what = format!("warm, {shards} shard(s), {CUT} R=24, half");
            check_warm(&what, &half, 24.0, &in_cut, 0.5);
        }
        for retire in [false, true] {
            let log = Log::default();
            let (portal, member) = lsm_portal(&log, retire);
            let live = member.iter().filter(|&&m| m).count();
            for r in [8, 64] {
                let what = format!("warm, 3 levels + L0, retire={retire}, R={r}");
                let sql = samplesize(WHOLE, r);
                let half = run_warm(&portal, &log, &samplesize(WHOLE, live / 2), &sql, 300);
                check_warm(&format!("{what}, half"), &half, r as f64, &member, 0.5);
                let full = run_warm(&portal, &log, everything, &sql, 300);
                check_warm(&format!("{what}, full"), &full, r as f64, &member, 1.0);
            }
        }
    }

    /// The bare `count(*)`s of the population rows over the city map: a
    /// rectangle, a polygon, a disc and a kind filter.
    const POPULATION: [&str; 4] = [
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0, 0, 2000, 1500)",
        "SELECT count(*) FROM sensor WHERE location WITHIN POLYGON((0 0, 3000 200, 1200 2400))",
        "SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(2600, 1200, 800)",
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(500, 300, 3500, 2200) \
         AND type = 1",
    ];

    /// A portal over `base` in `mode` and `shards` shards, probed through a
    /// backend that fails one probe in five. With `churn` it is then driven
    /// to a second level (200 of `arrivals` registered and merged), an L0
    /// (the other 200) and tombstones (one base sensor in 11 of every shard,
    /// one arrival in 7). Returns it with the sensors it was given and the
    /// ones it retired, so that a flat scan counts the difference.
    fn population_portal(
        base: &[SensorMeta],
        arrivals: &[SensorMeta],
        mode: Mode,
        shards: usize,
        churn: bool,
    ) -> (
        ShardedPortal<FailEveryKth>,
        Vec<SensorMeta>,
        Vec<SensorMeta>,
    ) {
        let mut by_shard = Vec::new();
        let config = PortalConfig {
            mode,
            ..Default::default()
        };
        let portal = ShardedPortal::new(
            base.to_vec(),
            |_, metas| {
                by_shard.push(metas.to_vec());
                FailEveryKth::new(EXPIRY.millis(), 5)
            },
            shards,
            config,
        );
        let (mut added, mut retired) = (base.to_vec(), Vec::new());
        if !churn {
            return (portal, added, retired);
        }
        let register =
            |m: &SensorMeta| portal.register_sensor(m.location, m.expiry, m.availability, m.kind);
        let (merged, parked) = arrivals.split_at(arrivals.len() / 2);
        let mut tickets: Vec<usize> = merged.iter().map(register).collect();
        portal.reindex_all();
        tickets.extend(parked.iter().map(register));
        added.extend_from_slice(arrivals);
        for (i, metas) in by_shard.iter().enumerate() {
            for j in (0..metas.len()).step_by(11) {
                assert!(portal.shard(i).retire_sensor(SensorId(j as u32)));
                retired.push(metas[j]);
            }
        }
        for k in (0..tickets.len()).step_by(7) {
            assert!(portal.retire_sensor(tickets[k]));
            retired.push(arrivals[k]);
        }
        for s in 0..shards {
            let shape = portal.shard(s).index_stats().expect("lsm index");
            assert!(
                shape.levels >= 2 && shape.tombstones > 0,
                "shard {s}: {shape:?}"
            );
        }
        (portal, added, retired)
    }

    /// A `count(*)` without `SAMPLESIZE` is the number of live sensors a
    /// flat scan finds in range, and contacts none of them: fresh and
    /// churned, on 1 and 4 shards, cold, half warm and warm, in every mode,
    /// asked alone and in a batch. The city map is the portal tests' 5,000
    /// sensors (`live_local_small`), a third of them of each kind, the last
    /// 400 held back as arrivals.
    #[test]
    fn a_bare_count_is_the_live_population_in_every_mode_shard_count_and_cache_state() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 5_000;
        cfg.queries.count = 0;
        cfg.seed = 2;
        let sensors: Vec<SensorMeta> = cfg
            .build()
            .sensors
            .iter()
            .map(|m| m.with_kind((m.id.0 % 3) as u16))
            .collect();
        let (base, arrivals) = sensors.split_at(4_600);
        let fill = |rect: &str| {
            format!("SELECT count(*) FROM sensor WHERE location WITHIN {rect} SAMPLESIZE 100000")
        };
        let warm_ups = [
            ("cold", None),
            ("half warm", Some(fill("RECT(-1, -1, 2000, 2501)"))),
            ("warm", Some(fill("RECT(-1, -1, 4001, 2501)"))),
        ];
        let (mut wrong, mut rows) = (Vec::new(), 0);
        for mode in [Mode::Colr, Mode::HierCache, Mode::RTree] {
            for shards in [1, 4] {
                for churn in [false, true] {
                    let (portal, added, retired) =
                        population_portal(base, arrivals, mode, shards, churn);
                    for (warmth, warm_up) in &warm_ups {
                        portal.clock().advance(EXPIRY + EXPIRY);
                        if let Some(sql) = warm_up {
                            let req = QueryRequest::from_sql(sql).expect("fill SQL parses");
                            portal.execute(&req).expect("warm-up runs");
                        }
                        let batch = portal.query_many_sql(&POPULATION, 2).expect("batch runs");
                        for (sql, batched) in POPULATION.iter().zip(&batch.results) {
                            let req = QueryRequest::from_sql(sql).expect("count SQL parses");
                            let q = req.select();
                            let region = q.within.region();
                            let scan = |metas: &[SensorMeta]| {
                                let kind =
                                    |m: &&SensorMeta| q.sensor_type.is_none_or(|k| m.kind == k);
                                let inside = |m: &&SensorMeta| region.contains_point(&m.location);
                                metas.iter().filter(kind).filter(inside).count() as u64
                            };
                            let n = scan(&added) - scan(&retired);
                            let alone = portal.execute(&req).expect("count runs").result;
                            for (how, r) in [("alone", &alone), ("batched", batched)] {
                                rows += 1;
                                let grouped: u64 = r.groups.iter().map(|g| g.count).sum();
                                let got = (r.value, r.stats.sensors_probed, r.degradation.sampled);
                                if got != (Some(n as f64), 0, n) || grouped != n {
                                    wrong.push(format!(
                                        "{mode:?}, {shards} shard(s), churn={churn}, {warmth}, \
                                         {how}: {sql}: (value, probed, sampled) = {got:?}, \
                                         groups {grouped}; the flat scan counts {n}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            wrong.is_empty(),
            "{} of {rows} bare counts are not the population:\n{}",
            wrong.len(),
            wrong.join("\n")
        );
    }
}
