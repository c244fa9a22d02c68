//! The data-collection boundary.
//!
//! COLR-Tree *pulls* data from sensors on demand during query processing.
//! [`ProbeService`] is the trait the index calls at probe points; the
//! `colr-sensors` crate provides the simulated live network implementation
//! (Bernoulli availability, spatially correlated values), and tests use small
//! scripted implementations. Fault-aware services (see
//! [`crate::resilient::ResilientProber`]) additionally report retry and
//! breaker accounting through [`ProbeReport`].

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::reading::{Reading, SensorId};
use crate::time::Timestamp;

/// The outcome of one fault-aware probe batch: per-sensor results plus the
/// accounting the latency model and degradation reports need.
///
/// Plain services leave every extra field zero; `outcomes` alone is the
/// `probe_batch` contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeReport {
    /// One outcome per requested id, in order (`None` = final failure).
    pub outcomes: Vec<Option<Reading>>,
    /// Individual probes re-issued by retry waves.
    pub retries_issued: u64,
    /// Retry waves after the primary wave; each costs one modelled RTT.
    pub retry_waves: u64,
    /// Cumulative simulated backoff waited before retry waves, ms.
    pub backoff_wait_ms: u64,
    /// Sensors skipped because their circuit breaker was open.
    pub breaker_skipped: u64,
    /// Failed sensors whose retries were abandoned on the deadline budget.
    pub deadline_clipped: u64,
}

impl ProbeReport {
    /// Wraps plain outcomes with zeroed fault-tolerance accounting.
    pub fn plain(outcomes: Vec<Option<Reading>>) -> Self {
        ProbeReport {
            outcomes,
            ..ProbeReport::default()
        }
    }
}

/// A live collection endpoint for a set of registered sensors.
///
/// A probe of a sensor either yields a fresh [`Reading`] or `None` when the
/// sensor is unavailable (disconnected, failed, resource-constrained — the
/// paper's Section I heterogeneity). Probes issued in one `probe_batch` call
/// are considered concurrent by the latency model.
///
/// `probe_batch` takes `&self` so one service can serve many query threads
/// at once; implementations keep any bookkeeping behind interior mutability
/// (atomics or a lock).
pub trait ProbeService {
    /// Probes every sensor in `ids` at simulated instant `now`, returning one
    /// outcome per id, in order.
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>>;

    /// Fault-aware variant: like `probe_batch`, but may spend up to
    /// `retry_budget_ms` of simulated time on retries and reports the
    /// retry/breaker accounting alongside the outcomes. The default
    /// implementation performs a single wave with no retries, so plain
    /// services need only implement `probe_batch`.
    fn probe_batch_report(
        &self,
        ids: &[SensorId],
        now: Timestamp,
        retry_budget_ms: u64,
    ) -> ProbeReport {
        let _ = retry_budget_ms;
        ProbeReport::plain(self.probe_batch(ids, now))
    }
}

impl<P: ProbeService + ?Sized> ProbeService for &P {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        (**self).probe_batch(ids, now)
    }

    fn probe_batch_report(
        &self,
        ids: &[SensorId],
        now: Timestamp,
        retry_budget_ms: u64,
    ) -> ProbeReport {
        (**self).probe_batch_report(ids, now, retry_budget_ms)
    }
}

impl<P: ProbeService + ?Sized> ProbeService for &mut P {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        (**self).probe_batch(ids, now)
    }

    fn probe_batch_report(
        &self,
        ids: &[SensorId],
        now: Timestamp,
        retry_budget_ms: u64,
    ) -> ProbeReport {
        (**self).probe_batch_report(ids, now, retry_budget_ms)
    }
}

/// A probe service for tests: every sensor always answers with a fixed value
/// equal to its id, full expiry `expiry_ms`, timestamped `now`.
#[derive(Debug, Clone)]
pub struct AlwaysAvailable {
    /// Expiry duration applied to produced readings, in milliseconds.
    pub expiry_ms: u64,
}

impl ProbeService for AlwaysAvailable {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        ids.iter()
            .map(|&id| {
                Some(Reading {
                    sensor: id,
                    value: id.0 as f64,
                    timestamp: now,
                    expires_at: now + crate::time::TimeDelta::from_millis(self.expiry_ms),
                })
            })
            .collect()
    }
}

/// A probe service for tests that fails deterministically per *(sensor,
/// probe ordinal)*: the `n`-th probe of sensor `s` (1-based) fails iff
/// `(s + n) % k == 0`.
///
/// The failure pattern depends only on how many times each individual
/// sensor has been probed — not on batch composition, interleaving, or
/// scheduling — so results are identical whether a workload runs on one
/// thread or sixteen (`ShardedPortal::execute_many` parity). The `s` offset
/// staggers the phase so a single wave over many sensors still sees ~1/k
/// of them fail.
#[derive(Debug)]
pub struct FailEveryKth {
    inner: AlwaysAvailable,
    k: u64,
    seen: Mutex<HashMap<u32, u64>>,
}

impl Clone for FailEveryKth {
    fn clone(&self) -> Self {
        FailEveryKth {
            inner: self.inner.clone(),
            k: self.k,
            seen: Mutex::new(self.seen.lock().clone()),
        }
    }
}

impl FailEveryKth {
    /// Fails every `k`-th probe of each sensor (phase-staggered by sensor
    /// id); `k == 0` never fails.
    pub fn new(expiry_ms: u64, k: u64) -> Self {
        FailEveryKth {
            inner: AlwaysAvailable { expiry_ms },
            k,
            seen: Mutex::new(HashMap::new()),
        }
    }
}

impl ProbeService for FailEveryKth {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        let base = self.inner.probe_batch(ids, now);
        let mut seen = self.seen.lock();
        ids.iter()
            .zip(base)
            .map(|(&id, r)| {
                let ordinal = seen.entry(id.0).or_insert(0);
                *ordinal += 1;
                if self.k > 0 && (id.0 as u64 + *ordinal).is_multiple_of(self.k) {
                    None
                } else {
                    r
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_available_yields_all() {
        let svc = AlwaysAvailable { expiry_ms: 1_000 };
        let ids = [SensorId(0), SensorId(5)];
        let out = svc.probe_batch(&ids, Timestamp(10));
        assert_eq!(out.len(), 2);
        let r = out[1].unwrap();
        assert_eq!(r.sensor, SensorId(5));
        assert_eq!(r.value, 5.0);
        assert_eq!(r.timestamp, Timestamp(10));
        assert_eq!(r.expires_at, Timestamp(1_010));
    }

    #[test]
    fn default_report_wraps_probe_batch() {
        let svc = AlwaysAvailable { expiry_ms: 1_000 };
        let ids = [SensorId(3), SensorId(4)];
        let report = svc.probe_batch_report(&ids, Timestamp(10), 5_000);
        assert_eq!(report.outcomes, svc.probe_batch(&ids, Timestamp(10)));
        assert_eq!(report.retries_issued, 0);
        assert_eq!(report.retry_waves, 0);
        assert_eq!(report.backoff_wait_ms, 0);
        assert_eq!(report.breaker_skipped, 0);
        assert_eq!(report.deadline_clipped, 0);
    }

    #[test]
    fn fail_every_kth_fails_deterministically() {
        // First probe of each sensor (ordinal 1): (id + 1) % 3 == 0 fails.
        let svc = FailEveryKth::new(1_000, 3);
        let ids: Vec<SensorId> = (0..6).map(SensorId).collect();
        let out = svc.probe_batch(&ids, Timestamp(0));
        let failures: Vec<usize> = out
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        assert_eq!(failures, vec![2, 5]);
    }

    #[test]
    fn fail_pattern_is_per_sensor_not_global() {
        // Sensor 0 with k = 2 fails on its 2nd, 4th, ... probes regardless
        // of how many other sensors are probed in between.
        let svc = FailEveryKth::new(1_000, 2);
        let s0 = [SensorId(0)];
        let pattern: Vec<bool> = (0..4)
            .map(|i| {
                // Interleave unrelated probes that must not shift s0's phase.
                svc.probe_batch(&[SensorId(9), SensorId(10)], Timestamp(i));
                svc.probe_batch(&s0, Timestamp(i))[0].is_some()
            })
            .collect();
        assert_eq!(pattern, vec![true, false, true, false]);
    }

    #[test]
    fn fail_pattern_is_composition_independent() {
        // The same per-sensor probe sequence yields the same outcomes
        // whether sensors are probed together or in separate batches.
        let joint = FailEveryKth::new(1_000, 3);
        let split = FailEveryKth::new(1_000, 3);
        let ids: Vec<SensorId> = (0..8).map(SensorId).collect();
        for round in 0..6u64 {
            let a = joint.probe_batch(&ids, Timestamp(round));
            let b: Vec<Option<Reading>> = ids
                .iter()
                .flat_map(|&id| split.probe_batch(&[id], Timestamp(round)))
                .collect();
            assert_eq!(a, b, "round {round}");
        }
    }
}
