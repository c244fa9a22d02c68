//! Sensor identity, static metadata, and live readings.

use colr_geo::{Point, Region};

use crate::time::{TimeDelta, Timestamp};

/// Dense identifier of a registered sensor (index into the portal's sensor
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(pub u32);

impl SensorId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static metadata a publisher registers with the portal (Section III-A):
/// location, the expiry duration its readings carry, and the historically
/// observed availability used by the oversampling step of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorMeta {
    /// The sensor's identifier.
    pub id: SensorId,
    /// Fixed location. COLR-Tree assumes locations change rarely and the tree
    /// is periodically rebuilt to reflect moves.
    pub location: Point,
    /// How long each reading from this sensor remains valid. Heterogeneous
    /// across sensors; the maximum over all sensors is the slot-cache window
    /// `t_max`.
    pub expiry: TimeDelta,
    /// Historical probability in `[0, 1]` that a probe of this sensor
    /// succeeds (the `p_i` of Section V-A).
    pub availability: f64,
    /// Application-defined sensor type (SensorMap's "types of sensors"
    /// metadata); 0 by default. Queries may filter on it.
    pub kind: u16,
}

impl SensorMeta {
    /// Convenience constructor.
    ///
    /// Debug builds reject non-finite or out-of-range inputs loudly: a
    /// `NaN` availability would otherwise slip through every downstream
    /// `max`/`clamp` (NaN comparisons are all false) and silently poison
    /// the tree's availability means.
    pub fn new(id: u32, location: Point, expiry: TimeDelta, availability: f64) -> Self {
        debug_assert!(
            availability.is_finite(),
            "sensor {id}: availability must be finite, got {availability}"
        );
        debug_assert!(
            (0.0..=1.0).contains(&availability),
            "sensor {id}: availability must be a probability in [0, 1], got {availability}"
        );
        debug_assert!(
            location.x.is_finite() && location.y.is_finite(),
            "sensor {id}: location must be finite, got ({}, {})",
            location.x,
            location.y
        );
        SensorMeta {
            id: SensorId(id),
            location,
            expiry,
            availability,
            kind: 0,
        }
    }

    /// Sets the application-defined sensor type.
    pub fn with_kind(mut self, kind: u16) -> Self {
        self.kind = kind;
        self
    }

    /// `true` when the sensor is of `kind` (any when `None`) inside `region`.
    pub(crate) fn is_in(&self, region: &Region, kind: Option<u16>) -> bool {
        kind.is_none_or(|k| self.kind == k) && region.contains_point(&self.location)
    }
}

/// One live data point collected from a sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Source sensor.
    pub sensor: SensorId,
    /// Observed value (waiting time, water discharge, temperature, ...).
    pub value: f64,
    /// When the sensor produced the reading.
    pub timestamp: Timestamp,
    /// Publisher-specified instant after which the reading is invalid
    /// (`timestamp + meta.expiry`).
    pub expires_at: Timestamp,
}

impl Reading {
    /// `true` while the reading is valid at `now` (expiry instant exclusive).
    #[inline]
    pub fn is_live(&self, now: Timestamp) -> bool {
        self.expires_at > now
    }

    /// `true` when the reading satisfies a query freshness bound of
    /// `staleness` at `now`, i.e. it was produced within the last
    /// `staleness` and has not expired.
    #[inline]
    pub fn is_fresh(&self, now: Timestamp, staleness: TimeDelta) -> bool {
        self.is_live(now) && self.timestamp >= now.saturating_sub(staleness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(ts: u64, exp: u64) -> Reading {
        Reading {
            sensor: SensorId(1),
            value: 1.0,
            timestamp: Timestamp(ts),
            expires_at: Timestamp(exp),
        }
    }

    #[test]
    fn liveness_is_exclusive_at_expiry() {
        let r = reading(0, 100);
        assert!(r.is_live(Timestamp(99)));
        assert!(!r.is_live(Timestamp(100)));
        assert!(!r.is_live(Timestamp(101)));
    }

    #[test]
    fn freshness_requires_both_bounds() {
        let r = reading(1_000, 10_000);
        // Within staleness, not expired.
        assert!(r.is_fresh(Timestamp(1_500), TimeDelta::from_millis(600)));
        // Too stale.
        assert!(!r.is_fresh(Timestamp(2_000), TimeDelta::from_millis(600)));
        // Fresh by timestamp but expired.
        let r2 = reading(1_000, 1_200);
        assert!(!r2.is_fresh(Timestamp(1_500), TimeDelta::from_millis(600)));
    }

    #[test]
    fn freshness_saturates_at_epoch() {
        let r = reading(0, 10);
        assert!(r.is_fresh(Timestamp(5), TimeDelta::from_millis(100)));
    }

    #[test]
    fn meta_constructor_assigns_fields() {
        let m = SensorMeta::new(7, Point::new(1.0, 2.0), TimeDelta::from_mins(5), 0.9);
        assert_eq!(m.id, SensorId(7));
        assert_eq!(m.id.index(), 7);
        assert_eq!(m.expiry, TimeDelta::from_mins(5));
        assert_eq!(m.availability, 0.9);
        assert_eq!(m.kind, 0);
        assert_eq!(m.with_kind(3).kind, 3);
    }
}
