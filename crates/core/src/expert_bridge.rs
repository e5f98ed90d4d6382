//! Bridging expert sourcing into schema integration.
//!
//! Escalated schema matches become [`datatamer_expert`] tasks; a panel of
//! simulated experts votes; the weighted majority decides the mapping. The
//! truth oracle is supplied by the caller (in experiments, the corpus
//! generator's ground truth).

use datatamer_expert::{resolve_votes, ExpertQueue, SimulatedExpert, TaskKind, Vote};
use datatamer_model::AttributeDef;
use datatamer_schema::integrate::EscalationResolver;
use datatamer_schema::{Decision, MatchCandidate};

/// Tells the panel what the *true* answer to a schema-match question is.
pub type TruthFn = Box<dyn Fn(&str, &str) -> bool>;

/// Statistics of panel activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PanelStats {
    /// Escalations handled.
    pub escalations: u64,
    /// Individual expert answers collected.
    pub answers: u64,
    /// Total expert cost incurred.
    pub cost: f64,
    /// Escalations where the panel accepted a candidate.
    pub accepted: u64,
}

/// An expert panel acting as the integration escalation resolver.
pub struct ExpertPanelResolver {
    experts: Vec<SimulatedExpert>,
    queue: ExpertQueue,
    truth: TruthFn,
    stats: PanelStats,
}

impl ExpertPanelResolver {
    /// Build a panel. `truth(source_attr, candidate_name)` must return
    /// whether the mapping is correct.
    pub fn new(experts: Vec<SimulatedExpert>, truth: TruthFn) -> Self {
        assert!(!experts.is_empty(), "panel needs at least one expert");
        ExpertPanelResolver { experts, queue: ExpertQueue::new(), truth, stats: PanelStats::default() }
    }

    /// A panel of `n` homogeneous experts.
    pub fn homogeneous(n: usize, accuracy: f64, cost: f64, seed: u64, truth: TruthFn) -> Self {
        let experts = (0..n)
            .map(|i| {
                SimulatedExpert::new(
                    format!("expert{i}"),
                    "schema",
                    accuracy,
                    cost,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Self::new(experts, truth)
    }

    /// Activity statistics so far.
    pub fn stats(&self) -> PanelStats {
        self.stats
    }

    fn panel_answer(&mut self, source_attr: &str, candidate: &str, score: f64) -> bool {
        // Queue then immediately serve the task: the simulated experts are
        // always available. Priority: most ambiguous (closest to 0.5) first.
        let priority = (1000.0 * (1.0 - (score - 0.5).abs())) as u32;
        self.queue.submit(
            TaskKind::SchemaMatch {
                source_attr: source_attr.to_owned(),
                candidate: candidate.to_owned(),
                score,
            },
            priority,
        );
        let _ = self.queue.pop();
        let truth = (self.truth)(source_attr, candidate);
        let votes: Vec<Vote> = self
            .experts
            .iter_mut()
            .map(|e| {
                let answer = e.answer(truth);
                Vote { answer, weight: e.vote_weight() }
            })
            .collect();
        self.stats.answers += votes.len() as u64;
        self.stats.cost += self.experts.iter().map(|e| e.cost_per_task).sum::<f64>();
        let (decision, _confidence) = resolve_votes(&votes);
        decision
    }
}

impl EscalationResolver for ExpertPanelResolver {
    fn resolve(&mut self, source_attr: &AttributeDef, candidates: &[MatchCandidate]) -> Decision {
        self.stats.escalations += 1;
        for c in candidates {
            if self.panel_answer(&source_attr.name, &c.name, c.score) {
                self.stats.accepted += 1;
                return Decision::ExpertAccept { attr: c.attr, score: c.score };
            }
        }
        Decision::ExpertNewAttribute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{AttrId, AttributeProfile};

    fn attr(name: &str) -> AttributeDef {
        AttributeDef { name: name.into(), profile: AttributeProfile::default() }
    }

    fn candidates() -> Vec<MatchCandidate> {
        vec![
            MatchCandidate { attr: AttrId(0), name: "cheapest_price".into(), score: 0.6 },
            MatchCandidate { attr: AttrId(1), name: "theater".into(), score: 0.5 },
        ]
    }

    fn truth_price_only() -> TruthFn {
        Box::new(|source_attr, candidate| source_attr == "cost" && candidate == "cheapest_price")
    }

    #[test]
    fn perfect_panel_accepts_true_candidate() {
        let mut panel = ExpertPanelResolver::homogeneous(3, 1.0, 2.0, 1, truth_price_only());
        let d = panel.resolve(&attr("cost"), &candidates());
        assert_eq!(d, Decision::ExpertAccept { attr: AttrId(0), score: 0.6 });
        let stats = panel.stats();
        assert_eq!(stats.escalations, 1);
        assert_eq!(stats.answers, 3);
        assert_eq!(stats.cost, 6.0);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn perfect_panel_rejects_all_wrong_candidates() {
        let mut panel = ExpertPanelResolver::homogeneous(3, 1.0, 1.0, 2, truth_price_only());
        let d = panel.resolve(&attr("venue"), &candidates());
        assert_eq!(d, Decision::ExpertNewAttribute);
        // Both candidates were asked about.
        assert_eq!(panel.stats().answers, 6);
        assert_eq!(panel.stats().accepted, 0);
    }

    #[test]
    fn zero_accuracy_panel_carries_no_weight() {
        // An always-wrong expert gets vote weight 0 (log-odds clamp), so the
        // panel can never accept anything — curation refuses by default.
        let mut panel = ExpertPanelResolver::homogeneous(3, 0.0, 1.0, 3, truth_price_only());
        let d = panel.resolve(&attr("cost"), &candidates());
        assert_eq!(d, Decision::ExpertNewAttribute);
    }

    #[test]
    fn majority_overrides_minority_noise() {
        // 5 experts at 95%: wrong answers are outvoted almost surely.
        let mut panel = ExpertPanelResolver::homogeneous(5, 0.95, 1.0, 4, truth_price_only());
        let mut accepted = 0;
        for _ in 0..50 {
            if panel.resolve(&attr("cost"), &candidates())
                == (Decision::ExpertAccept { attr: AttrId(0), score: 0.6 })
            {
                accepted += 1;
            }
        }
        assert!(accepted >= 48, "panel accuracy too low: {accepted}/50");
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn empty_panel_panics() {
        ExpertPanelResolver::new(vec![], truth_price_only());
    }
}
