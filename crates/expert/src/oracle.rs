//! Simulated domain experts.
//!
//! The paper's expert sourcing routes questions to human domain experts.
//! Experiments need that loop closed without humans, so the oracle answers
//! from generator ground truth with a configurable error rate — letting the
//! benches measure how integration quality responds to expert accuracy
//! (perfect, realistic, adversarial).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A simulated expert.
#[derive(Debug)]
pub struct SimulatedExpert {
    /// Expert name (for reports).
    pub name: String,
    /// Domain the expert answers ("schema", "dedup", ...).
    pub domain: String,
    /// Probability an answer is correct; checked by [`SimulatedExpert::new`]
    /// and private so no later write can take it out of `[0, 1]`.
    accuracy: f64,
    /// Cost charged per answered task (abstract units; benches sum it).
    pub cost_per_task: f64,
    rng: StdRng,
    answered: u64,
}

impl SimulatedExpert {
    /// Create an expert; `None` unless `accuracy` is a probability (in
    /// `[0, 1]`).
    pub fn new(
        name: impl Into<String>,
        domain: impl Into<String>,
        accuracy: f64,
        cost_per_task: f64,
        seed: u64,
    ) -> Option<Self> {
        (0.0..=1.0).contains(&accuracy).then(|| SimulatedExpert {
            name: name.into(),
            domain: domain.into(),
            accuracy,
            cost_per_task,
            rng: StdRng::seed_from_u64(seed),
            answered: 0,
        })
    }

    /// Probability an answer is correct, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Answer a yes/no task whose true answer is `truth`.
    pub fn answer(&mut self, truth: bool) -> bool {
        self.answered += 1;
        if self.rng.random_bool(self.accuracy) {
            truth
        } else {
            !truth
        }
    }

    /// Confidence weight for vote aggregation (log-odds of accuracy,
    /// clamped; a coin-flip expert weighs nothing).
    pub fn vote_weight(&self) -> f64 {
        let a = self.accuracy.clamp(0.01, 0.99);
        (a / (1.0 - a)).ln().max(0.0)
    }

    /// Tasks answered so far.
    pub fn answered(&self) -> u64 {
        self.answered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_expert_always_right() {
        let mut e = SimulatedExpert::new("alice", "schema", 1.0, 2.0, 1).unwrap();
        for truth in [true, false, true] {
            assert_eq!(e.answer(truth), truth);
        }
        assert_eq!(e.answered(), 3);
    }

    #[test]
    fn adversarial_expert_always_wrong() {
        let mut e = SimulatedExpert::new("mallory", "dedup", 0.0, 1.0, 2).unwrap();
        assert!(!e.answer(true));
        assert!(e.answer(false));
    }

    #[test]
    fn noisy_expert_error_rate_converges() {
        let mut e = SimulatedExpert::new("bob", "schema", 0.8, 1.0, 3).unwrap();
        let n = 5_000;
        let correct = (0..n).filter(|_| e.answer(true)).count();
        let rate = correct as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.03, "observed accuracy {rate}");
    }

    #[test]
    fn vote_weights_order_by_accuracy() {
        let strong = SimulatedExpert::new("s", "d", 0.95, 1.0, 4).unwrap().vote_weight();
        let weak = SimulatedExpert::new("w", "d", 0.6, 1.0, 5).unwrap().vote_weight();
        let coin = SimulatedExpert::new("c", "d", 0.5, 1.0, 6).unwrap().vote_weight();
        assert!(strong > weak);
        assert!(weak > coin);
        assert_eq!(coin, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimulatedExpert::new("a", "d", 0.7, 1.0, 9).unwrap();
        let mut b = SimulatedExpert::new("b", "d", 0.7, 1.0, 9).unwrap();
        let va: Vec<bool> = (0..50).map(|_| a.answer(true)).collect();
        let vb: Vec<bool> = (0..50).map(|_| b.answer(true)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn only_probabilities_make_an_expert_and_its_bounds_answer() {
        for bad in [f64::NAN, -0.01, 1.01] {
            assert!(SimulatedExpert::new("x", "d", bad, 1.0, 0).is_none(), "accuracy {bad}");
        }
        for (accuracy, right) in [(0.0, false), (1.0, true)] {
            let mut e = SimulatedExpert::new("x", "d", accuracy, 1.0, 11).unwrap();
            assert_eq!(e.accuracy(), accuracy);
            for k in 0..200 {
                let truth = k % 3 == 0;
                assert_eq!(e.answer(truth), if right { truth } else { !truth });
            }
        }
    }

    // An accuracy outside `[0, 1]` yields `None`; `expect` turns it into
    // the panic the test expects.
    #[test]
    #[should_panic(expected = "probability")]
    fn bad_accuracy_panics() {
        SimulatedExpert::new("x", "d", 1.5, 1.0, 0).expect("accuracy must be a probability");
    }
}
