//! Fault-tolerant probe layer: deadline-budgeted retries, per-sensor
//! circuit breakers, and live availability feedback.
//!
//! `ResilientProber` wraps any [`ProbeService`] and adds the collection
//! robustness the paper assumes of its portal front end (Section I:
//! "nondeterministic unavailability"):
//!
//! * **Retries** — failed probes are re-issued in waves with capped
//!   exponential backoff. All waiting happens in *simulated* time: each
//!   retry wave is probed at `now + elapsed backoff` and the wave/backoff
//!   totals are reported back so `lookup.rs` can charge them to the probe
//!   latency model. A per-query deadline budget bounds the cumulative
//!   backoff; retries that would exceed it are abandoned and counted as
//!   `deadline_clipped`.
//! * **Circuit breakers** — per-sensor closed → open (after N consecutive
//!   failures) → half-open (one trial probe once a cooldown elapses on the
//!   simulated clock). Sensors with an open breaker are skipped before the
//!   inner service is consulted at all, so persistently dead sensors stop
//!   consuming probe waves (observable as a plateau in
//!   `SimNetwork::probe_counts`).
//! * **Availability feedback** — when a [`LiveAvailability`] map is
//!   attached, every final probe outcome (including breaker skips, which
//!   are known failures) updates the live EWMA that `sampling.rs`
//!   consults in place of the frozen build-time `avail_mean`.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::avail::LiveAvailability;
use crate::probe::{ProbeReport, ProbeService};
use crate::reading::{Reading, SensorId};
use crate::telem;
use crate::time::{TimeDelta, Timestamp};

/// Tuning knobs for [`ResilientProber`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Maximum retry waves after the primary wave.
    pub max_retries: u32,
    /// Backoff before the first retry wave; doubles each wave.
    pub base_backoff: TimeDelta,
    /// Cap on the per-wave backoff.
    pub max_backoff: TimeDelta,
    /// Consecutive failures that trip a sensor's breaker open.
    pub breaker_threshold: u32,
    /// Simulated time an open breaker waits before a half-open trial.
    pub breaker_cooldown: TimeDelta,
    /// Deadline budget used when callers go through the plain
    /// `probe_batch` path (no explicit budget).
    pub default_retry_budget: TimeDelta,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            max_retries: 3,
            base_backoff: TimeDelta::from_millis(50),
            max_backoff: TimeDelta::from_millis(400),
            breaker_threshold: 5,
            breaker_cooldown: TimeDelta::from_secs(30),
            default_retry_budget: TimeDelta::from_secs(2),
        }
    }
}

/// Circuit-breaker states, exposed for tests and inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Probes flow through; consecutive failures are counted.
    #[default]
    Closed,
    /// Probes are skipped until the cooldown elapses.
    Open,
    /// One trial probe is in flight; success closes, failure reopens.
    HalfOpen,
}

#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Timestamp,
}

#[derive(Default)]
struct BreakerTable {
    slots: Vec<Breaker>,
    open: usize,
}

impl BreakerTable {
    fn slot(&mut self, id: SensorId) -> &mut Breaker {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Breaker::default());
        }
        &mut self.slots[i]
    }
}

/// A [`ProbeService`] decorator adding retries, circuit breakers, and
/// availability feedback. See the module docs for the full contract.
pub struct ResilientProber<P> {
    inner: P,
    config: ResilientConfig,
    breakers: Mutex<BreakerTable>,
    avail: RwLock<Option<Arc<LiveAvailability>>>,
}

impl<P> ResilientProber<P> {
    pub fn new(inner: P, config: ResilientConfig) -> Self {
        ResilientProber {
            inner,
            config,
            breakers: Mutex::new(BreakerTable::default()),
            avail: RwLock::new(None),
        }
    }

    /// The wrapped probe service (e.g. to drive a `SimNetwork` fault plan).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn config(&self) -> &ResilientConfig {
        &self.config
    }

    /// Attaches a live availability map; every subsequent probe outcome
    /// feeds its EWMAs. Pair with `ColrTree::enable_live_availability` so
    /// Algorithm 1 consumes what this prober learns.
    pub fn attach_availability(&self, live: Arc<LiveAvailability>) {
        *self.avail.write() = Some(live);
    }

    /// The currently attached availability map, if any.
    pub fn availability(&self) -> Option<Arc<LiveAvailability>> {
        self.avail.read().clone()
    }

    /// Current breaker state for a sensor (Closed if never probed).
    pub fn breaker_state(&self, id: SensorId) -> BreakerState {
        let table = self.breakers.lock();
        table
            .slots
            .get(id.index())
            .map(|b| b.state)
            .unwrap_or_default()
    }

    /// Number of breakers currently open.
    pub fn open_breakers(&self) -> usize {
        self.breakers.lock().open
    }

    fn run_batch(&self, ids: &[SensorId], now: Timestamp, retry_budget_ms: u64) -> ProbeReport
    where
        P: ProbeService,
    {
        let t = telem::resilient();
        let mut report = ProbeReport {
            outcomes: vec![None; ids.len()],
            ..ProbeReport::default()
        };
        if ids.is_empty() {
            return report;
        }
        // Breaker admission: indexes into `ids` that reach the wire.
        let mut pending: Vec<usize> = Vec::with_capacity(ids.len());
        {
            let mut table = self.breakers.lock();
            for (i, &id) in ids.iter().enumerate() {
                let cooldown = self.config.breaker_cooldown;
                let b = table.slot(id);
                let admit = match b.state {
                    BreakerState::Closed | BreakerState::HalfOpen => true,
                    BreakerState::Open => {
                        if now >= b.opened_at + cooldown {
                            b.state = BreakerState::HalfOpen;
                            table.open -= 1;
                            t.breaker_half_open.inc();
                            true
                        } else {
                            false
                        }
                    }
                };
                if admit {
                    pending.push(i);
                } else {
                    report.breaker_skipped += 1;
                }
            }
        }
        t.breaker_skipped.add(report.breaker_skipped);

        let mut wave = 0u32;
        while !pending.is_empty() {
            let batch: Vec<SensorId> = pending.iter().map(|&i| ids[i]).collect();
            let at = now + TimeDelta::from_millis(report.backoff_wait_ms);
            let outcomes = self.inner.probe_batch(&batch, at);
            debug_assert_eq!(outcomes.len(), batch.len(), "probe service size contract");

            let mut retryable: Vec<usize> = Vec::new();
            {
                let mut table = self.breakers.lock();
                for (&i, outcome) in pending.iter().zip(outcomes) {
                    let id = ids[i];
                    let ok = outcome.is_some();
                    let threshold = self.config.breaker_threshold;
                    let mut tripped = false;
                    let b = table.slot(id);
                    if ok {
                        if b.state != BreakerState::Closed {
                            t.breaker_closed.inc();
                        }
                        b.state = BreakerState::Closed;
                        b.consecutive_failures = 0;
                        report.outcomes[i] = outcome;
                    } else {
                        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
                        let trip = match b.state {
                            // A half-open trial failure reopens immediately.
                            BreakerState::HalfOpen => true,
                            BreakerState::Closed => b.consecutive_failures >= threshold,
                            BreakerState::Open => false,
                        };
                        if trip {
                            b.state = BreakerState::Open;
                            b.opened_at = at;
                            tripped = true;
                            t.breaker_opened.inc();
                        }
                        // Only still-closed sensors are worth retrying.
                        if b.state == BreakerState::Closed {
                            retryable.push(i);
                        }
                    }
                    if tripped {
                        table.open += 1;
                    }
                }
                t.open_breakers.set(table.open as i64);
            }

            if retryable.is_empty() || wave >= self.config.max_retries {
                break;
            }
            let backoff = self
                .config
                .base_backoff
                .millis()
                .saturating_mul(1u64 << wave.min(16))
                .min(self.config.max_backoff.millis());
            if report.backoff_wait_ms.saturating_add(backoff) > retry_budget_ms {
                report.deadline_clipped += retryable.len() as u64;
                t.deadline_clipped.add(retryable.len() as u64);
                break;
            }
            report.backoff_wait_ms += backoff;
            report.retry_waves += 1;
            report.retries_issued += retryable.len() as u64;
            t.retries.add(retryable.len() as u64);
            t.retry_waves.inc();
            crate::flight::with(|f| {
                f.retry_round(u64::from(wave) + 1, retryable.len() as u64, backoff)
            });
            wave += 1;
            pending = retryable;
        }
        // Feedback is per selection, not per attempt: what Algorithm 1
        // divides a target by is the chance that a *chosen* sensor ends up
        // answering, retries included — fed the per-attempt rate it would
        // oversample for failures the retries have already recovered. A
        // breaker skip is a known failure: it keeps teaching the estimator
        // that the sensor is down.
        if let Some(live) = self.avail.read().as_ref() {
            for (&id, outcome) in ids.iter().zip(&report.outcomes) {
                live.record(id, outcome.is_some());
            }
        }
        report
    }
}

impl<P: ProbeService> ProbeService for ResilientProber<P> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        self.run_batch(ids, now, self.config.default_retry_budget.millis())
            .outcomes
    }

    fn probe_batch_report(
        &self,
        ids: &[SensorId],
        now: Timestamp,
        retry_budget_ms: u64,
    ) -> ProbeReport {
        self.run_batch(ids, now, retry_budget_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::AlwaysAvailable;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const EXPIRY_MS: u64 = 60_000;

    /// A probe service whose health is a switch, counting wire probes.
    struct Switched {
        inner: AlwaysAvailable,
        up: AtomicBool,
        wire_probes: AtomicU64,
    }

    impl Switched {
        fn new(up: bool) -> Self {
            Switched {
                inner: AlwaysAvailable {
                    expiry_ms: EXPIRY_MS,
                },
                up: AtomicBool::new(up),
                wire_probes: AtomicU64::new(0),
            }
        }

        fn set_up(&self, up: bool) {
            self.up.store(up, Ordering::Relaxed);
        }

        fn wire_probes(&self) -> u64 {
            self.wire_probes.load(Ordering::Relaxed)
        }
    }

    impl ProbeService for Switched {
        fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
            self.wire_probes
                .fetch_add(ids.len() as u64, Ordering::Relaxed);
            if self.up.load(Ordering::Relaxed) {
                self.inner.probe_batch(ids, now)
            } else {
                vec![None; ids.len()]
            }
        }
    }

    fn one_shot_config() -> ResilientConfig {
        // max_retries = 0 isolates the breaker state machine: each
        // probe_batch call is exactly one attempt.
        ResilientConfig {
            max_retries: 0,
            breaker_threshold: 3,
            breaker_cooldown: TimeDelta::from_secs(60),
            ..ResilientConfig::default()
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let svc = Switched::new(false);
        let prober = ResilientProber::new(svc, one_shot_config());
        let s = SensorId(7);
        let t0 = Timestamp(1_000);

        // Three consecutive failures: closed → open.
        for k in 0..3u64 {
            assert_eq!(prober.breaker_state(s), BreakerState::Closed);
            let out = prober.probe_batch(&[s], t0 + TimeDelta::from_millis(k));
            assert!(out[0].is_none());
        }
        assert_eq!(prober.breaker_state(s), BreakerState::Open);
        assert_eq!(prober.open_breakers(), 1);

        // Within the cooldown: skipped without touching the wire.
        let wire_before = prober.inner().wire_probes();
        let report = prober.probe_batch_report(&[s], t0 + TimeDelta::from_secs(1), 0);
        assert_eq!(report.breaker_skipped, 1);
        assert!(report.outcomes[0].is_none());
        assert_eq!(prober.inner().wire_probes(), wire_before);

        // Past the cooldown, still down: half-open trial fails → reopen.
        let t1 = t0 + TimeDelta::from_secs(120);
        let out = prober.probe_batch(&[s], t1);
        assert!(out[0].is_none());
        assert_eq!(prober.breaker_state(s), BreakerState::Open);
        assert_eq!(prober.inner().wire_probes(), wire_before + 1);

        // Recovery: next half-open trial succeeds → closed.
        prober.inner().set_up(true);
        let t2 = t1 + TimeDelta::from_secs(120);
        let out = prober.probe_batch(&[s], t2);
        assert!(out[0].is_some());
        assert_eq!(prober.breaker_state(s), BreakerState::Closed);
        assert_eq!(prober.open_breakers(), 0);
    }

    #[test]
    fn retries_recover_transient_failures_within_budget() {
        /// Fails each sensor's first `fail_first` probes, then succeeds.
        struct Flaky {
            inner: AlwaysAvailable,
            fail_first: u64,
            seen: Mutex<std::collections::HashMap<u32, u64>>,
        }
        impl ProbeService for Flaky {
            fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
                let ok = self.inner.probe_batch(ids, now);
                let mut seen = self.seen.lock();
                ids.iter()
                    .zip(ok)
                    .map(|(&id, r)| {
                        let n = seen.entry(id.0).or_insert(0);
                        *n += 1;
                        if *n <= self.fail_first {
                            None
                        } else {
                            r
                        }
                    })
                    .collect()
            }
        }
        let svc = Flaky {
            inner: AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            },
            fail_first: 2,
            seen: Mutex::new(Default::default()),
        };
        let prober = ResilientProber::new(svc, ResilientConfig::default());
        let ids = [SensorId(1), SensorId(2)];
        let report = prober.probe_batch_report(&ids, Timestamp(5_000), 2_000);
        assert!(report.outcomes.iter().all(|o| o.is_some()));
        assert_eq!(report.retry_waves, 2);
        assert_eq!(report.retries_issued, 4);
        // Backoff 50 then 100 ms, capped well under the budget.
        assert_eq!(report.backoff_wait_ms, 150);
        assert_eq!(report.deadline_clipped, 0);
    }

    #[test]
    fn deadline_budget_clips_retries() {
        let svc = Switched::new(false);
        let prober = ResilientProber::new(
            svc,
            ResilientConfig {
                breaker_threshold: 100,
                ..ResilientConfig::default()
            },
        );
        let ids = [SensorId(0), SensorId(1), SensorId(2)];
        // Budget admits the first retry wave (50 ms) but not the second
        // (another 100 ms).
        let report = prober.probe_batch_report(&ids, Timestamp(1_000), 60);
        assert_eq!(report.retry_waves, 1);
        assert_eq!(report.backoff_wait_ms, 50);
        assert_eq!(report.deadline_clipped, 3);
        // Zero budget: no retries at all.
        let report = prober.probe_batch_report(&ids, Timestamp(2_000), 0);
        assert_eq!(report.retry_waves, 0);
        assert_eq!(report.deadline_clipped, 3);
    }

    #[test]
    fn open_breaker_stops_wire_probes_and_feeds_estimator() {
        use crate::reading::SensorMeta;
        use crate::tree::{ColrConfig, ColrTree};
        use colr_geo::Point;

        let sensors: Vec<SensorMeta> = (0..4)
            .map(|i| SensorMeta::new(i, Point::new(i as f64, 0.0), TimeDelta::from_mins(5), 1.0))
            .collect();
        let tree = ColrTree::build(sensors, ColrConfig::default(), 3);
        let live = Arc::new(LiveAvailability::from_tree(&tree, 0.5));

        let svc = Switched::new(false);
        let prober = ResilientProber::new(svc, one_shot_config());
        prober.attach_availability(live.clone());

        let s = SensorId(2);
        for k in 0..10u64 {
            prober.probe_batch(&[s], Timestamp(1_000 + k));
        }
        // Threshold 3: the wire saw exactly 3 probes, the rest skipped.
        assert_eq!(prober.inner().wire_probes(), 3);
        // Skips keep training the EWMA toward zero.
        assert!(live.sensor(s) < 0.01, "est {}", live.sensor(s));
    }
}
