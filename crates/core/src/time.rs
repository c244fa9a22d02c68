//! Virtual time.
//!
//! Everything in the reproduction runs on simulated time so experiments and
//! tests are deterministic and machine-independent. [`Timestamp`] is an
//! absolute instant (milliseconds since simulation epoch) and [`TimeDelta`] a
//! non-negative span. End-to-end latency is *modelled* by
//! [`crate::stats::latency_ms`], never measured from the wall clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Milliseconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A non-negative span of simulated time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Timestamp {
    /// The simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Raw milliseconds.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Timestamp `delta` before `self`, saturating at the epoch.
    #[inline]
    pub fn saturating_sub(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta.0))
    }

    /// The span from `earlier` to `self`, or zero when `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// Zero span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> TimeDelta {
        TimeDelta(ms)
    }

    /// A span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> TimeDelta {
        TimeDelta(s * 1_000)
    }

    /// A span of `m` minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> TimeDelta {
        TimeDelta(m * 60_000)
    }

    /// Raw milliseconds.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Scales the span by a non-negative factor, rounding to milliseconds.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> TimeDelta {
        debug_assert!(factor >= 0.0, "negative time scale");
        TimeDelta((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A monotonically advancing simulation clock.
///
/// Experiments advance the clock as they replay a query trace; the COLR-Tree
/// itself never advances time, it only observes `now` passed into each
/// operation.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        SimClock { now: t }
    }

    /// Current instant.
    #[inline]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances the clock by `delta`.
    pub fn advance(&mut self, delta: TimeDelta) {
        self.now += delta;
    }

    /// Advances the clock to `t`; clocks never move backwards, so an earlier
    /// `t` is ignored.
    pub fn advance_to(&mut self, t: Timestamp) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// A cheaply cloneable, thread-safe simulation clock.
///
/// Where [`SimClock`] is a single-owner value (`advance` takes `&mut self`),
/// a `ClockHandle` shares one atomic instant between any number of clones:
/// a service thread can advance time while query threads read it, with no
/// lock. Clocks never move backwards — [`ClockHandle::advance_to`] is a
/// `fetch_max`, so racing advancers settle on the latest instant.
#[derive(Debug, Clone, Default)]
pub struct ClockHandle {
    now_ms: Arc<AtomicU64>,
}

impl ClockHandle {
    /// A shared clock at the simulation epoch.
    pub fn new() -> Self {
        ClockHandle::default()
    }

    /// A shared clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        ClockHandle {
            now_ms: Arc::new(AtomicU64::new(t.0)),
        }
    }

    /// Current instant.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now_ms.load(Ordering::Acquire))
    }

    /// Advances the clock by `delta`, visible to every clone.
    pub fn advance(&self, delta: TimeDelta) {
        self.now_ms.fetch_add(delta.0, Ordering::AcqRel);
    }

    /// Advances the clock to `t`; an earlier `t` is ignored (monotonicity),
    /// including under concurrent advancement.
    pub fn advance_to(&self, t: Timestamp) {
        self.now_ms.fetch_max(t.0, Ordering::AcqRel);
    }

    /// `true` when `other` is a clone of this clock (shares the instant).
    pub fn shares_with(&self, other: &ClockHandle) -> bool {
        Arc::ptr_eq(&self.now_ms, &other.now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(TimeDelta::from_secs(2), TimeDelta::from_millis(2_000));
        assert_eq!(TimeDelta::from_mins(3), TimeDelta::from_secs(180));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t + TimeDelta::from_millis(500), Timestamp(1_500));
        assert_eq!(
            t.saturating_sub(TimeDelta::from_millis(1_500)),
            Timestamp::ZERO
        );
        assert_eq!(Timestamp(2_000).since(t), TimeDelta::from_millis(1_000));
        assert_eq!(t.since(Timestamp(2_000)), TimeDelta::ZERO);
    }

    #[test]
    fn delta_scaling() {
        assert_eq!(
            TimeDelta::from_millis(1000).mul_f64(0.25),
            TimeDelta::from_millis(250)
        );
        assert_eq!(
            TimeDelta::from_millis(3).mul_f64(0.5),
            TimeDelta::from_millis(2)
        ); // rounds
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance(TimeDelta::from_secs(10));
        assert_eq!(c.now(), Timestamp(10_000));
        c.advance_to(Timestamp(5_000)); // ignored
        assert_eq!(c.now(), Timestamp(10_000));
        c.advance_to(Timestamp(20_000));
        assert_eq!(c.now(), Timestamp(20_000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp(42).to_string(), "t+42ms");
        assert_eq!(TimeDelta(42).to_string(), "42ms");
    }

    #[test]
    fn clock_handle_clones_share_one_instant() {
        let a = ClockHandle::new();
        let b = a.clone();
        assert!(a.shares_with(&b));
        a.advance(TimeDelta::from_secs(3));
        assert_eq!(b.now(), Timestamp(3_000));
        b.advance_to(Timestamp(10_000));
        assert_eq!(a.now(), Timestamp(10_000));
        // Monotone: an earlier advance_to is ignored.
        b.advance_to(Timestamp(5_000));
        assert_eq!(a.now(), Timestamp(10_000));
        // A fresh handle is a different clock.
        assert!(!a.shares_with(&ClockHandle::starting_at(Timestamp(10_000))));
    }

    #[test]
    fn clock_handle_concurrent_advances_accumulate() {
        let clock = ClockHandle::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = clock.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        c.advance(TimeDelta::from_millis(1));
                    }
                });
            }
        });
        assert_eq!(clock.now(), Timestamp(4_000));
    }
}
