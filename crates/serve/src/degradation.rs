//! The fidelity degradation ladder: watermark hysteresis over queue depth.
//!
//! Under sustained overload the primary read path cannot keep up with
//! admission. Rather than letting the queue grow until every request
//! times out, the scheduler *degrades*: once queue depth reaches the
//! **high-water mark**, newly admitted requests are served by the
//! fallback model (typically `Calibrated` behind an `Exact` primary) —
//! the paper's close-loop degradation analysis in reverse, trading read
//! fidelity for sustained throughput. The scheduler recovers
//! automatically once depth falls back to the **low-water mark**.
//!
//! Two marks instead of one give the ladder hysteresis: between the low
//! and the high mark the current state is kept, so a queue oscillating
//! around a single threshold cannot flap between fidelities on every
//! request. [`Hysteresis`] is a pure state machine over observed depths —
//! no clocks, no atomics — so the scheduler can drive it under its queue
//! lock and tests can drive it directly.

/// What a depth observation did to the degradation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The state did not change.
    None,
    /// Depth reached the high-water mark: degradation engaged.
    Entered,
    /// Depth fell to the low-water mark: degradation released.
    Exited,
}

/// Watermark hysteresis over queue depth.
///
/// Degradation engages when an observed depth reaches `high_water` and
/// releases when one falls to `low_water`; depths strictly between the
/// marks keep the current state. `high_water == usize::MAX` can never be
/// reached by a bounded queue, so it disables the ladder outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hysteresis {
    high_water: usize,
    low_water: usize,
    degraded: bool,
}

impl Hysteresis {
    /// A ladder entering at `high_water` and exiting at `low_water`.
    ///
    /// Returns `None` when `low_water > high_water` (the band would be
    /// inverted) or `high_water == 0` (the queue would be born degraded).
    pub fn new(high_water: usize, low_water: usize) -> Option<Self> {
        if low_water > high_water || high_water == 0 {
            return None;
        }
        Some(Self {
            high_water,
            low_water,
            degraded: false,
        })
    }

    /// A ladder that never engages.
    pub fn disabled() -> Self {
        Self {
            high_water: usize::MAX,
            low_water: 0,
            degraded: false,
        }
    }

    /// The depth at which degradation engages.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The depth at which degradation releases.
    pub fn low_water(&self) -> usize {
        self.low_water
    }

    /// Whether new admissions are currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Feeds one observed queue depth through the state machine.
    pub fn observe(&mut self, depth: usize) -> Transition {
        if !self.degraded && depth >= self.high_water {
            self.degraded = true;
            Transition::Entered
        } else if self.degraded && depth <= self.low_water {
            self.degraded = false;
            Transition::Exited
        } else {
            Transition::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enters_at_high_water_and_exits_at_low_water() {
        let mut h = Hysteresis::new(8, 2).unwrap();
        assert!(!h.is_degraded());
        assert_eq!(h.observe(7), Transition::None);
        assert_eq!(h.observe(8), Transition::Entered);
        assert!(h.is_degraded());
        // Still above the low mark: stays degraded.
        assert_eq!(h.observe(3), Transition::None);
        assert!(h.is_degraded());
        assert_eq!(h.observe(2), Transition::Exited);
        assert!(!h.is_degraded());
    }

    #[test]
    fn no_flapping_between_the_marks() {
        let mut h = Hysteresis::new(8, 2).unwrap();
        let _ = h.observe(8);
        // A queue oscillating strictly between the marks never transitions.
        for depth in [5, 7, 3, 6, 4, 7] {
            assert_eq!(h.observe(depth), Transition::None);
            assert!(h.is_degraded());
        }
        let _ = h.observe(1);
        for depth in [5, 7, 3, 6, 4, 7] {
            assert_eq!(h.observe(depth), Transition::None);
            assert!(!h.is_degraded());
        }
    }

    #[test]
    fn equal_marks_behave_as_a_single_threshold() {
        let mut h = Hysteresis::new(4, 4).unwrap();
        assert_eq!(h.observe(4), Transition::Entered);
        assert_eq!(h.observe(4), Transition::Exited);
    }

    #[test]
    fn invalid_bands_are_rejected() {
        assert!(Hysteresis::new(2, 8).is_none(), "inverted band");
        assert!(Hysteresis::new(0, 0).is_none(), "born degraded");
        assert!(Hysteresis::new(1, 0).is_some());
    }

    #[test]
    fn disabled_ladder_never_engages() {
        let mut h = Hysteresis::disabled();
        for depth in [0, 1, 1 << 20, usize::MAX - 1] {
            assert_eq!(h.observe(depth), Transition::None);
        }
        assert!(!h.is_degraded());
    }
}
