//! Wall-clock budgeting.

use std::time::{Duration, Instant};

/// A wall-clock budget, used to reproduce the paper's anytime behaviour
/// (the contest imposed a hard time limit; the algorithm early-stops
/// tree construction and still emits a circuit).
///
/// An unlimited budget is a real sentinel, not a huge finite duration,
/// so arithmetic on limits can never overflow: a fraction of it stays
/// unlimited, and [`Budget::remaining`] reports [`Duration::MAX`].
///
/// # Examples
///
/// ```
/// use cirlearn::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::new(Duration::from_secs(60));
/// assert!(!budget.exhausted());
/// assert!(budget.remaining() <= Duration::from_secs(60));
/// assert_eq!(Budget::unlimited().remaining(), Duration::MAX);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    limit: Option<Duration>,
}

impl Budget {
    /// Starts a budget of the given length now.
    pub fn new(limit: Duration) -> Self {
        Budget {
            start: Instant::now(),
            limit: Some(limit),
        }
    }

    /// A budget that never runs out (for tests and unconstrained runs).
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            limit: None,
        }
    }

    /// Elapsed time since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left, saturating at zero. An unlimited budget reports
    /// [`Duration::MAX`].
    pub fn remaining(&self) -> Duration {
        match self.limit {
            Some(limit) => limit.saturating_sub(self.start.elapsed()),
            None => Duration::MAX,
        }
    }

    /// Whether the budget has run out (never, when unlimited).
    pub fn exhausted(&self) -> bool {
        match self.limit {
            Some(limit) => self.start.elapsed() >= limit,
            None => false,
        }
    }

    /// Returns a sub-budget capped at `fraction` of the *remaining*
    /// time — how the learner portions tree construction across the
    /// outputs still to be learned. A fraction of an unlimited budget
    /// is unlimited.
    pub fn fraction_of_remaining(&self, fraction: f64) -> Budget {
        match self.limit {
            Some(_) => Budget::new(self.remaining().mul_f64(fraction.clamp(0.0, 1.0))),
            None => Budget::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_is_exhausted() {
        let b = Budget::new(Duration::ZERO);
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Duration::ZERO);
    }

    #[test]
    fn unlimited_is_a_sentinel() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert_eq!(b.remaining(), Duration::MAX);
        // Fractions of unlimited stay unlimited rather than becoming a
        // huge finite limit that could overflow downstream arithmetic.
        assert_eq!(b.fraction_of_remaining(0.01).remaining(), Duration::MAX);
    }

    #[test]
    fn fraction_is_bounded() {
        let b = Budget::new(Duration::from_secs(10));
        let half = b.fraction_of_remaining(0.5);
        assert!(half.remaining() <= Duration::from_secs(5));
        let clamped = b.fraction_of_remaining(7.0);
        assert!(clamped.remaining() <= Duration::from_secs(10));
    }

    #[test]
    fn elapsed_monotone() {
        let b = Budget::new(Duration::from_secs(1));
        let e1 = b.elapsed();
        let e2 = b.elapsed();
        assert!(e2 >= e1);
    }
}
