//! Deterministic fault injection: one seed, one reproducible disaster.
//!
//! A [`ChaosPlan`] is a frozen schedule of faults drawn once from a
//! seeded generator — *which* batches panic their worker, *which*
//! batches run slow, *which* devices get stuck, how far the conductances
//! have drifted, and which training mini-epochs die and checkpoint bits
//! flip. The plan is a pure value: the scheduler consults it on the
//! dispatch path ([`ChaosPlan::should_panic`] / [`ChaosPlan::slow_down`]),
//! the model-level faults ([`ChaosPlan::cell_faults`],
//! [`ChaosPlan::drift`]) are applied by the test or bench harness before
//! serving starts, and the `vortex-train` supervisor consults the
//! training faults ([`ChaosPlan::should_kill_training`],
//! [`ChaosPlan::corrupt_checkpoint`]).
//!
//! Because every draw comes from `Xoshiro256PlusPlus` seeded with
//! [`ChaosConfig::seed`], the same configuration always produces the
//! same plan, bit for bit — a chaos run is as assertable as a unit test.
//!
//! ```
//! use vortex_serve::chaos::{ChaosConfig, ChaosPlan};
//!
//! let config = ChaosConfig::new(42, 8, 4).with_worker_panics(1);
//! let plan = ChaosPlan::generate(&config);
//! assert_eq!(plan, ChaosPlan::generate(&config)); // same seed, same plan
//! assert_eq!(plan.panic_batches().len(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_runtime::CellFault;

/// What a chaos plan injects into a serving stack.
///
/// All fault counts default to zero: `ChaosConfig::new(seed, rows,
/// cols)` is a no-op plan until faults are opted in through the builder
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: every fault draw derives from it.
    pub seed: u64,
    /// Crossbar rows, for placing stuck-at devices.
    pub rows: usize,
    /// Crossbar columns, for placing stuck-at devices.
    pub cols: usize,
    /// Batch-sequence window `[0, horizon)` panics and slowdowns are
    /// drawn from.
    pub horizon_batches: u64,
    /// Number of batches whose dispatching worker panics.
    pub worker_panics: usize,
    /// Number of batches dispatched with extra latency.
    pub slow_batches: usize,
    /// The extra latency a slow batch suffers.
    pub slow_delay: Duration,
    /// Number of devices pinned to [`Self::stuck_conductance`].
    pub stuck_cells: usize,
    /// Conductance stuck devices are pinned at (S); 0.0 is stuck-off.
    pub stuck_conductance: f64,
    /// Retention-drift age applied to the model (seconds; 0 disables).
    pub drift_t_s: f64,
    /// Number of training mini-epochs whose job is killed mid-flight
    /// (consulted by the `vortex-train` supervisor).
    pub train_kills: usize,
    /// Mini-epoch window `[0, horizon)` training kills are drawn from.
    pub train_horizon_epochs: u64,
    /// Number of checkpoint bits flipped by
    /// [`ChaosPlan::corrupt_checkpoint`].
    pub checkpoint_bit_flips: usize,
}

impl ChaosConfig {
    /// A fault-free configuration for a `rows` × `cols` crossbar; enable
    /// faults with the builder methods.
    pub fn new(seed: u64, rows: usize, cols: usize) -> Self {
        Self {
            seed,
            rows,
            cols,
            horizon_batches: 64,
            worker_panics: 0,
            slow_batches: 0,
            slow_delay: Duration::from_millis(1),
            stuck_cells: 0,
            stuck_conductance: 0.0,
            drift_t_s: 0.0,
            train_kills: 0,
            train_horizon_epochs: 32,
            checkpoint_bit_flips: 0,
        }
    }

    /// This configuration drawing faults from the first `n` batches.
    pub fn with_horizon(mut self, n: u64) -> Self {
        self.horizon_batches = n;
        self
    }

    /// This configuration panicking `n` batch dispatches.
    pub fn with_worker_panics(mut self, n: usize) -> Self {
        self.worker_panics = n;
        self
    }

    /// This configuration slowing `n` batch dispatches by `delay` each.
    pub fn with_slow_batches(mut self, n: usize, delay: Duration) -> Self {
        self.slow_batches = n;
        self.slow_delay = delay;
        self
    }

    /// This configuration pinning `n` devices at conductance `g`.
    pub fn with_stuck_cells(mut self, n: usize, g: f64) -> Self {
        self.stuck_cells = n;
        self.stuck_conductance = g;
        self
    }

    /// This configuration aging the model by `t_s` seconds of drift.
    pub fn with_drift(mut self, t_s: f64) -> Self {
        self.drift_t_s = t_s;
        self
    }

    /// This configuration killing `n` training mini-epochs drawn from the
    /// first `horizon` epochs of a job.
    pub fn with_train_kills(mut self, n: usize, horizon: u64) -> Self {
        self.train_kills = n;
        self.train_horizon_epochs = horizon;
        self
    }

    /// This configuration flipping `n` checkpoint bits.
    pub fn with_checkpoint_bit_flips(mut self, n: usize) -> Self {
        self.checkpoint_bit_flips = n;
        self
    }
}

/// A frozen fault schedule. See the module docs; build one with
/// [`ChaosPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    panics: BTreeSet<u64>,
    slow: BTreeMap<u64, Duration>,
    faults: Vec<CellFault>,
    drift_t_s: f64,
    drift_seed: u64,
    train_kills: BTreeSet<u64>,
    checkpoint_flips: Vec<u64>,
}

impl ChaosPlan {
    /// Draws a complete fault schedule from the configuration. Pure:
    /// equal configurations yield equal plans.
    pub fn generate(config: &ChaosConfig) -> Self {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
        let horizon = config.horizon_batches.max(1);
        let mut panics = BTreeSet::new();
        while panics.len() < config.worker_panics.min(horizon as usize) {
            panics.insert(rng.next_u64() % horizon);
        }
        let mut slow = BTreeMap::new();
        // Only the batches left without a panic can run slow.
        while slow.len() < config.slow_batches.min(horizon as usize - panics.len()) {
            let seq = rng.next_u64() % horizon;
            // Panicking batches stay panicking; slowdowns land elsewhere.
            if !panics.contains(&seq) {
                slow.insert(seq, config.slow_delay);
            }
        }
        let cells = config.rows * config.cols;
        let mut taken = BTreeSet::new();
        let mut faults = Vec::new();
        while faults.len() < config.stuck_cells.min(cells.saturating_mul(2)) {
            let flat = (rng.next_u64() % (cells.max(1) as u64 * 2)) as usize;
            if cells == 0 || !taken.insert(flat) {
                continue;
            }
            faults.push(CellFault {
                row: (flat % cells) / config.cols,
                col: (flat % cells) % config.cols,
                negative: flat >= cells,
                conductance: config.stuck_conductance,
            });
        }
        let drift_seed = rng.next_u64();
        // Training faults are drawn strictly *after* every pre-existing
        // draw: a configuration without them consumes exactly the same
        // stream as older builds, so existing seeds keep their plans bit
        // for bit.
        let train_horizon = config.train_horizon_epochs.max(1);
        let mut train_kills = BTreeSet::new();
        while train_kills.len() < config.train_kills.min(train_horizon as usize) {
            train_kills.insert(rng.next_u64() % train_horizon);
        }
        let checkpoint_flips = (0..config.checkpoint_bit_flips)
            .map(|_| rng.next_u64())
            .collect();
        Self {
            panics,
            slow,
            faults,
            drift_t_s: config.drift_t_s,
            drift_seed,
            train_kills,
            checkpoint_flips,
        }
    }

    /// Whether the worker dispatching batch `seq` must panic.
    pub fn should_panic(&self, seq: u64) -> bool {
        self.panics.contains(&seq)
    }

    /// Extra latency batch `seq` suffers before dispatch, if any.
    pub fn slow_down(&self, seq: u64) -> Option<Duration> {
        self.slow.get(&seq).copied()
    }

    /// The batch sequence numbers scheduled to panic, in order.
    pub fn panic_batches(&self) -> Vec<u64> {
        self.panics.iter().copied().collect()
    }

    /// The stuck-at device faults to apply with
    /// [`vortex_runtime::CompiledModel::with_cell_faults`].
    pub fn cell_faults(&self) -> &[CellFault] {
        &self.faults
    }

    /// The drift age and ν-sampling seed for
    /// [`vortex_runtime::CompiledModel::age_with`], or `None` when the
    /// plan carries no aging.
    pub fn drift(&self) -> Option<(f64, u64)> {
        (self.drift_t_s > 0.0).then_some((self.drift_t_s, self.drift_seed))
    }

    /// Whether the training job must be killed when it first reaches
    /// mini-epoch `epoch`.
    ///
    /// The plan only says *where* the kills land; the supervisor is
    /// responsible for firing each kill once (a kill that re-fired on
    /// every resume attempt would pin the job at that epoch forever).
    pub fn should_kill_training(&self, epoch: u64) -> bool {
        self.train_kills.contains(&epoch)
    }

    /// The mini-epochs scheduled to kill the training job, in order.
    pub fn train_kill_epochs(&self) -> Vec<u64> {
        self.train_kills.iter().copied().collect()
    }

    /// Flips the planned checkpoint bits of a byte stream in place
    /// (positions wrap modulo the stream length). Returns how many bits
    /// flipped; zero for an empty stream or a flip-free plan.
    pub fn corrupt_checkpoint(&self, bytes: &mut [u8]) -> usize {
        Self::flip_bits(&self.checkpoint_flips, bytes)
    }

    fn flip_bits(flips: &[u64], bytes: &mut [u8]) -> usize {
        if bytes.is_empty() {
            return 0;
        }
        let n_bits = bytes.len() as u64 * 8;
        for &raw in flips {
            let bit = raw % n_bits;
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        flips.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ChaosConfig {
        ChaosConfig::new(7, 6, 3)
            .with_horizon(16)
            .with_worker_panics(2)
            .with_slow_batches(3, Duration::from_millis(2))
            .with_stuck_cells(4, 0.0)
            .with_drift(1e6)
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(
            ChaosPlan::generate(&config()),
            ChaosPlan::generate(&config())
        );
        let other = ChaosConfig {
            seed: 8,
            ..config()
        };
        assert_ne!(ChaosPlan::generate(&config()), ChaosPlan::generate(&other));
    }

    #[test]
    fn plan_honors_requested_counts() {
        let plan = ChaosPlan::generate(&config());
        assert_eq!(plan.panic_batches().len(), 2);
        assert_eq!(plan.cell_faults().len(), 4);
        assert!(plan.drift().is_some());
        let slow: Vec<u64> = (0..16).filter(|&s| plan.slow_down(s).is_some()).collect();
        assert_eq!(slow.len(), 3);
        // Panics and slowdowns never share a batch.
        for seq in plan.panic_batches() {
            assert!(plan.slow_down(seq).is_none());
        }
    }

    #[test]
    fn stuck_cells_are_distinct_and_in_range() {
        let plan = ChaosPlan::generate(&config());
        let mut seen = BTreeSet::new();
        for f in plan.cell_faults() {
            assert!(f.row < 6 && f.col < 3);
            assert!(seen.insert((f.row, f.col, f.negative)), "duplicate cell");
        }
    }

    #[test]
    fn overfull_horizon_caps_slow_batches() {
        // Slowdowns only land on batches without a panic: a horizon the
        // panics fill leaves no room, and one free batch takes one.
        let delay = Duration::from_millis(2);
        let full = ChaosConfig::new(7, 4, 4)
            .with_horizon(4)
            .with_worker_panics(4)
            .with_slow_batches(1, delay);
        let plan = ChaosPlan::generate(&full);
        assert_eq!(plan.panic_batches().len(), 4);
        assert!((0..4).all(|s| plan.slow_down(s).is_none()));
        let one_free = ChaosConfig::new(7, 4, 4)
            .with_horizon(4)
            .with_worker_panics(3)
            .with_slow_batches(5, delay);
        let plan = ChaosPlan::generate(&one_free);
        assert_eq!((0..4).filter(|&s| plan.slow_down(s).is_some()).count(), 1);
    }

    #[test]
    fn corrupt_checkpoint_flips_and_wraps() {
        let plan = ChaosPlan::generate(&config().with_checkpoint_bit_flips(2));
        let mut bytes = vec![0u8; 32];
        assert_eq!(plan.corrupt_checkpoint(&mut bytes), 2);
        let set: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert!(
            (1..=2).contains(&set),
            "expected 1-2 flipped bits, got {set}"
        );
        assert_eq!(plan.corrupt_checkpoint(&mut []), 0);
    }

    #[test]
    fn training_faults_do_not_disturb_existing_draws() {
        // The training-fault draws are appended after every pre-existing
        // draw, so turning them on must leave the rest of the plan
        // untouched — existing seeds keep their disasters.
        let base = ChaosPlan::generate(&config());
        let extended = ChaosPlan::generate(
            &config()
                .with_train_kills(3, 16)
                .with_checkpoint_bit_flips(2),
        );
        assert_eq!(base.panic_batches(), extended.panic_batches());
        assert_eq!(base.cell_faults(), extended.cell_faults());
        assert_eq!(base.drift(), extended.drift());
        assert_eq!(extended.train_kill_epochs().len(), 3);
        assert!(extended.train_kill_epochs().iter().all(|&e| e < 16));
    }

    #[test]
    fn train_kills_are_deterministic_and_bounded() {
        let cfg = ChaosConfig::new(13, 4, 4).with_train_kills(2, 8);
        let plan = ChaosPlan::generate(&cfg);
        assert_eq!(plan, ChaosPlan::generate(&cfg));
        assert_eq!(plan.train_kill_epochs().len(), 2);
        for e in plan.train_kill_epochs() {
            assert!(plan.should_kill_training(e));
        }
        assert!((8..64).all(|e| !plan.should_kill_training(e)));
    }

    #[test]
    fn empty_config_is_a_no_op_plan() {
        let plan = ChaosPlan::generate(&ChaosConfig::new(1, 4, 4));
        assert!(plan.panic_batches().is_empty());
        assert!(plan.cell_faults().is_empty());
        assert!(plan.drift().is_none());
        assert!((0..64).all(|s| !plan.should_panic(s) && plan.slow_down(s).is_none()));
        let mut bytes = vec![0xFFu8; 8];
        assert_eq!(plan.corrupt_checkpoint(&mut bytes), 0);
        assert!(bytes.iter().all(|&b| b == 0xFF));
    }
}
