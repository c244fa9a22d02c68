//! The probe backend the benchmark owns: a [`SimNetwork`] that *charges*
//! each round trip instead of sleeping it.
//!
//! Probing models asynchronous wide-area I/O: a real portal would wait
//! `rtt_ms` per wave without burning CPU. Sleeping that wait would measure
//! the host's timer (1347 µs observed for 200 µs requested), so each
//! non-empty `probe_batch` adds one wave to a per-thread tally instead and
//! the load generator adds `waves × RTT_MS` to the request's latency. Network
//! time is then exact and only CPU time is measured. Overlap between the
//! waits of concurrent requests is deliberately not modelled.

use std::cell::Cell;
use std::time::Instant;

use colr_sensors::{RandomWalkField, SimNetwork};
use colr_tree::{ProbeService, Reading, SensorId, SensorMeta, TimeDelta, Timestamp};

use crate::trace;

/// Round-trip time charged per probe wave: `CostModel::default().probe_rtt_ms`.
pub const RTT_MS: f64 = 25.0;

/// What the probes issued by one thread have cost since the last [`take`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Charge {
    /// Sensors contacted.
    pub probes: u64,
    /// Non-empty `probe_batch` calls, one charged round trip each.
    pub waves: u64,
    /// Probes that returned no reading.
    pub failed: u64,
    /// Real time spent inside the simulated network (only while
    /// [`time_backend`] is on).
    pub backend_ns: u64,
}

impl Charge {
    /// The network time charged for these waves, in ms.
    pub fn charged_ms(&self) -> f64 {
        self.waves as f64 * RTT_MS
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Charge) {
        self.probes += other.probes;
        self.waves += other.waves;
        self.failed += other.failed;
        self.backend_ns += other.backend_ns;
    }
}

thread_local! {
    static CHARGE: Cell<Charge> = const { Cell::new(Charge { probes: 0, waves: 0, failed: 0, backend_ns: 0 }) };
    static TIME_BACKEND: Cell<bool> = const { Cell::new(false) };
}

/// Returns and clears the calling thread's tally. A request executes on the
/// thread that submits it, so the load generator calls this after each
/// response to get that request's probes.
pub fn take() -> Charge {
    CHARGE.with(Cell::take)
}

/// Turns timing of the simulated network on or off for this thread (two
/// clock reads per wave; the untraced run leaves it off).
pub fn time_backend(on: bool) {
    TIME_BACKEND.with(|t| t.set(on));
}

/// A [`SimNetwork`] over one shard's population that counts and charges.
///
/// Sensors registered after construction (ids at or beyond the initial
/// population, as the churn workload creates) always answer, with a reading
/// valid for `late_expiry`.
pub struct ChargedProbe {
    net: SimNetwork<RandomWalkField>,
    population: u32,
    late_expiry: TimeDelta,
}

impl ChargedProbe {
    /// A charged network over `sensors`, its value walk and availability
    /// draws seeded from `seed`.
    pub fn new(sensors: &[SensorMeta], late_expiry: TimeDelta, seed: u64) -> ChargedProbe {
        let field = RandomWalkField::new(sensors.len(), 0.0, 60.0, 2.0, seed ^ 0xf1e1d);
        ChargedProbe {
            net: SimNetwork::new(sensors.to_vec(), field, seed),
            population: sensors.len() as u32,
            late_expiry,
        }
    }

    fn answer(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if ids.iter().all(|id| id.0 < self.population) {
            return self.net.probe_batch(ids, now);
        }
        ids.iter()
            .map(|&id| {
                if id.0 < self.population {
                    return self.net.probe_batch(&[id], now)[0];
                }
                Some(Reading {
                    sensor: id,
                    value: 20.0 + f64::from(id.0 % 40),
                    timestamp: now,
                    expires_at: now + self.late_expiry,
                })
            })
            .collect()
    }
}

impl ProbeService for ChargedProbe {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if ids.is_empty() {
            return Vec::new();
        }
        trace::span("probe.wave", || {
            let started = TIME_BACKEND.with(Cell::get).then(Instant::now);
            let out = self.answer(ids, now);
            let mut charge = CHARGE.with(Cell::get);
            charge.probes += ids.len() as u64;
            charge.waves += 1;
            charge.failed += out.iter().filter(|r| r.is_none()).count() as u64;
            if let Some(t0) = started {
                charge.backend_ns += t0.elapsed().as_nanos() as u64;
            }
            CHARGE.with(|c| c.set(charge));
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colr_geo::Point;

    #[test]
    fn counts_waves_and_answers_late_registrations() {
        let sensors: Vec<SensorMeta> = (0..4)
            .map(|i| {
                SensorMeta::new(
                    i,
                    Point::new(f64::from(i), 0.0),
                    TimeDelta::from_mins(5),
                    1.0,
                )
            })
            .collect();
        let probe = ChargedProbe::new(&sensors, TimeDelta::from_mins(10), 1);
        take();
        assert!(probe.probe_batch(&[], Timestamp(5)).is_empty());
        let out = probe.probe_batch(&[SensorId(1), SensorId(9)], Timestamp(5));
        assert!(out.iter().all(Option::is_some));
        assert_eq!(out[1].unwrap().expires_at, Timestamp(5 + 600_000));
        let charge = take();
        assert_eq!((charge.probes, charge.waves, charge.failed), (2, 1, 0));
        assert_eq!(charge.charged_ms(), RTT_MS);
        assert_eq!(take(), Charge::default());
    }
}
