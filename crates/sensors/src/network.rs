//! The simulated probe endpoint.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use colr_geo::Point;
use colr_telemetry::{global, Counter};
use colr_tree::{ProbeService, Reading, SensorId, SensorMeta, Timestamp};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::FaultPlan;
use crate::field::ValueField;

/// A simulated wide-area sensor network.
///
/// Implements [`ProbeService`]: each probe of sensor `s` succeeds with
/// probability `meta.availability` (independently per probe — the paper's
/// nondeterministic unavailability) and, on success, yields a reading whose
/// value comes from the configured [`ValueField`], timestamped `now` and
/// valid for `meta.expiry`. An active [`FaultPlan`] layers scheduled
/// outages, flapping, and availability drift on top of the base model.
///
/// The network keeps per-sensor probe counters so experiments can audit the
/// *sensing workload* — Theorem 2's uniformity claim is about exactly this
/// distribution.
///
/// Probing takes `&self` so one network can serve many concurrent query
/// threads: the value field and its availability RNG live behind a mutex
/// (each batch draws from it atomically), and the counters are lock-free
/// atomics. Under concurrency the interleaving of batches — and hence which
/// RNG draw lands on which probe — depends on scheduling; single-threaded
/// use remains fully deterministic for a fixed seed.
pub struct SimNetwork<F> {
    sensors: Vec<SensorMeta>,
    state: Mutex<NetState<F>>,
    probes: Vec<AtomicU64>,
    /// Optional override forcing specific sensors offline (failure
    /// injection).
    forced_down: Vec<AtomicBool>,
    /// Scheduled fault injection (outages, flapping, drift, latency).
    /// Lock ordering: `faults` before `state`; never the reverse.
    faults: Mutex<FaultPlan>,
}

/// The mutable part of the network: value process + availability RNG.
struct NetState<F> {
    field: F,
    rng: StdRng,
}

/// Probe requests that reached the network, any outcome
/// (`colr_net_probes_total`).
fn probes_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| global().counter("colr_net_probes_total"))
}

impl<F: ValueField> SimNetwork<F> {
    /// A network over `sensors` whose values come from `field`.
    pub fn new(sensors: Vec<SensorMeta>, field: F, seed: u64) -> Self {
        let n = sensors.len();
        SimNetwork {
            sensors,
            state: Mutex::new(NetState {
                field,
                rng: StdRng::seed_from_u64(seed),
            }),
            probes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            forced_down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            faults: Mutex::new(FaultPlan::new()),
        }
    }

    /// Registered sensors.
    pub fn sensors(&self) -> &[SensorMeta] {
        &self.sensors
    }

    /// Times each sensor has been probed so far.
    pub fn probe_counts(&self) -> Vec<u64> {
        self.probes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total probes issued across all sensors.
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Forces a sensor offline (`true`) or back to its availability model
    /// (`false`) — failure injection for tests and experiments.
    pub fn set_forced_down(&self, s: SensorId, down: bool) {
        self.forced_down[s.index()].store(down, Ordering::Relaxed);
    }

    /// Activates a fault-injection plan (replacing any previous one).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.lock() = plan;
    }

    /// Removes all injected faults: the scheduled plan and every
    /// forced-down override. The network reverts to its base
    /// availability model.
    pub fn clear_faults(&self) {
        *self.faults.lock() = FaultPlan::new();
        for f in &self.forced_down {
            f.store(false, Ordering::Relaxed);
        }
    }

    /// Ground-truth probability that a probe of `s` succeeds at `now`,
    /// accounting for forced-down state and the active fault plan — what
    /// a live availability estimator is trying to learn.
    pub fn true_availability(&self, s: SensorId, now: Timestamp) -> f64 {
        let meta = &self.sensors[s.index()];
        if self.forced_down[s.index()].load(Ordering::Relaxed) {
            return 0.0;
        }
        let faults = self.faults.lock();
        if faults.is_down(s, meta.location, now) {
            return 0.0;
        }
        (meta.availability * faults.availability_factor(now)).clamp(0.0, 1.0)
    }

    /// Ground truth for every registered sensor at `now` (indexable by
    /// `SensorId::index`; pairs with `LiveAvailability::mean_abs_gap`).
    pub fn true_availabilities(&self, now: Timestamp) -> Vec<f64> {
        (0..self.sensors.len())
            .map(|i| self.true_availability(SensorId(i as u32), now))
            .collect()
    }

    /// The fault plan's RTT multiplier at `now` (for experiments that
    /// scale the modelled probe RTT during latency spikes).
    pub fn latency_factor(&self, now: Timestamp) -> f64 {
        self.faults.lock().latency_factor(now)
    }

    /// The ground-truth value sensor `s` would report at `now` if probed and
    /// available. Advances stateful fields exactly like a probe does.
    pub fn observe(&self, s: SensorId, now: Timestamp) -> f64 {
        let loc = self.sensors[s.index()].location;
        self.state.lock().field.value(s, loc, now)
    }

    /// Location of a sensor (convenience passthrough).
    pub fn location(&self, s: SensorId) -> Point {
        self.sensors[s.index()].location
    }
}

impl<F: ValueField> ProbeService for SimNetwork<F> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        probes_total().add(ids.len() as u64);
        // Lock ordering: faults before state (see the field docs).
        let faults = self.faults.lock();
        let avail_factor = faults.availability_factor(now);
        // One lock acquisition per batch: probes within a batch are
        // "concurrent" in the latency model, so serialising the whole batch
        // on the state mutex matches the simulated semantics.
        let mut state = self.state.lock();
        ids.iter()
            .map(|&id| {
                let meta = self.sensors[id.index()];
                self.probes[id.index()].fetch_add(1, Ordering::Relaxed);
                // Every probe consumes exactly one availability draw —
                // even always-up, dead, and fault-injected sensors — so
                // the random fault stream each sensor sees depends only on
                // its position in the cumulative probe sequence, never on
                // the composition of its batch.
                let u: f64 = state.rng.random();
                if self.forced_down[id.index()].load(Ordering::Relaxed)
                    || faults.is_down(id, meta.location, now)
                {
                    return None;
                }
                // `u ∈ [0, 1)`: effective availability 1.0 always
                // succeeds, 0.0 never does.
                let effective = (meta.availability * avail_factor).clamp(0.0, 1.0);
                if u >= effective {
                    return None;
                }
                let value = state.field.value(id, meta.location, now);
                Some(Reading {
                    sensor: id,
                    value,
                    timestamp: now,
                    expires_at: now + meta.expiry,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::ConstantField;
    use colr_tree::TimeDelta;

    fn sensors(n: usize, availability: f64) -> Vec<SensorMeta> {
        (0..n)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new(i as f64, 0.0),
                    TimeDelta::from_mins(5),
                    availability,
                )
            })
            .collect()
    }

    #[test]
    fn probe_returns_reading_with_meta_expiry() {
        let net = SimNetwork::new(
            sensors(3, 1.0),
            ConstantField {
                base: 1.0,
                step: 1.0,
            },
            1,
        );
        let out = net.probe_batch(&[SensorId(2)], Timestamp(1_000));
        let r = out[0].expect("available");
        assert_eq!(r.sensor, SensorId(2));
        assert_eq!(r.value, 3.0);
        assert_eq!(r.timestamp, Timestamp(1_000));
        assert_eq!(r.expires_at, Timestamp(1_000 + 300_000));
    }

    #[test]
    fn full_availability_never_fails() {
        let net = SimNetwork::new(
            sensors(10, 1.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        let ids: Vec<SensorId> = (0..10).map(SensorId).collect();
        let out = net.probe_batch(&ids, Timestamp(0));
        assert!(out.iter().all(|r| r.is_some()));
    }

    #[test]
    fn zero_availability_always_fails() {
        let net = SimNetwork::new(
            sensors(10, 0.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        let ids: Vec<SensorId> = (0..10).map(SensorId).collect();
        let out = net.probe_batch(&ids, Timestamp(0));
        assert!(out.iter().all(|r| r.is_none()));
    }

    #[test]
    fn availability_rate_matches_statistics() {
        let net = SimNetwork::new(
            sensors(1, 0.7),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        let trials = 20_000;
        let mut ok = 0;
        for t in 0..trials {
            if net.probe_batch(&[SensorId(0)], Timestamp(t))[0].is_some() {
                ok += 1;
            }
        }
        let rate = ok as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn counters_track_probes() {
        let net = SimNetwork::new(
            sensors(3, 1.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        net.probe_batch(&[SensorId(0), SensorId(0), SensorId(2)], Timestamp(0));
        assert_eq!(net.probe_counts(), &[2, 0, 1]);
        assert_eq!(net.total_probes(), 3);
    }

    #[test]
    fn forced_down_sensor_fails_despite_availability() {
        let net = SimNetwork::new(
            sensors(2, 1.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        net.set_forced_down(SensorId(0), true);
        let out = net.probe_batch(&[SensorId(0), SensorId(1)], Timestamp(0));
        assert!(out[0].is_none());
        assert!(out[1].is_some());
        // The failed probe is counted too.
        assert_eq!(net.probe_counts(), &[1, 1]);
        net.set_forced_down(SensorId(0), false);
        assert!(net.probe_batch(&[SensorId(0)], Timestamp(0))[0].is_some());
    }

    #[test]
    fn fault_stream_is_composition_stable() {
        // Same seed, same probe sequence — but sensor 0's availability
        // differs (always-up vs mostly-down). Sensor 1's outcomes must be
        // identical in both networks: every probe consumes exactly one
        // draw, so a neighbour's availability can't shift the stream.
        let field = || ConstantField {
            base: 0.0,
            step: 0.0,
        };
        let mut a_sensors = sensors(2, 0.7);
        a_sensors[0].availability = 1.0;
        let mut b_sensors = sensors(2, 0.7);
        b_sensors[0].availability = 0.3;
        let net_a = SimNetwork::new(a_sensors, field(), 99);
        let net_b = SimNetwork::new(b_sensors, field(), 99);
        let ids = [SensorId(0), SensorId(1)];
        let s1_a: Vec<bool> = (0..200)
            .map(|t| net_a.probe_batch(&ids, Timestamp(t))[1].is_some())
            .collect();
        let s1_b: Vec<bool> = (0..200)
            .map(|t| net_b.probe_batch(&ids, Timestamp(t))[1].is_some())
            .collect();
        assert_eq!(s1_a, s1_b);
    }

    #[test]
    fn regional_outage_downs_region_then_recovers() {
        use crate::faults::{FaultEvent, FaultPlan};
        let net = SimNetwork::new(
            sensors(4, 1.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        // Sensors sit at x = 0..3; the outage covers x <= 1.5.
        net.set_fault_plan(FaultPlan::new().with(FaultEvent::RegionalOutage {
            region: colr_geo::Rect::from_coords(-1.0, -1.0, 1.5, 1.0),
            from: Timestamp(1_000),
            until: Timestamp(2_000),
        }));
        let ids: Vec<SensorId> = (0..4).map(SensorId).collect();
        let during: Vec<bool> = net
            .probe_batch(&ids, Timestamp(1_500))
            .iter()
            .map(|r| r.is_some())
            .collect();
        assert_eq!(during, vec![false, false, true, true]);
        assert_eq!(net.true_availability(SensorId(0), Timestamp(1_500)), 0.0);
        assert_eq!(net.true_availability(SensorId(2), Timestamp(1_500)), 1.0);
        let after: Vec<bool> = net
            .probe_batch(&ids, Timestamp(2_500))
            .iter()
            .map(|r| r.is_some())
            .collect();
        assert_eq!(after, vec![true; 4]);
        // Cleared, the plan downs nothing, even inside its window.
        net.clear_faults();
        assert!(net
            .probe_batch(&ids, Timestamp(1_500))
            .iter()
            .all(|r| r.is_some()));
    }

    #[test]
    fn availability_drift_scales_success_probability() {
        use crate::faults::{FaultEvent, FaultPlan};
        let net = SimNetwork::new(
            sensors(1, 1.0),
            ConstantField {
                base: 0.0,
                step: 0.0,
            },
            1,
        );
        net.set_fault_plan(FaultPlan::new().with(FaultEvent::AvailabilityDrift {
            from: Timestamp(0),
            until: Timestamp(1),
            start_factor: 0.0,
            end_factor: 0.0,
        }));
        // Factor 0 at every instant: even a perfect sensor never answers.
        for t in 0..50 {
            assert!(net.probe_batch(&[SensorId(0)], Timestamp(t))[0].is_none());
        }
        assert_eq!(net.true_availability(SensorId(0), Timestamp(10)), 0.0);
    }

    #[test]
    fn shared_network_serves_concurrent_probes() {
        let net = SimNetwork::new(
            sensors(8, 1.0),
            ConstantField {
                base: 0.0,
                step: 1.0,
            },
            1,
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let ids: Vec<SensorId> = (0..8).map(SensorId).collect();
                    for t in 0..50 {
                        let out = net.probe_batch(&ids, Timestamp(t));
                        assert!(out.iter().all(|r| r.is_some()));
                    }
                });
            }
        });
        assert_eq!(net.total_probes(), 4 * 50 * 8);
    }
}
