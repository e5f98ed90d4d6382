//! Weighted-majority resolution of expert responses.

/// One expert's response with its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vote {
    /// The yes/no answer.
    pub answer: bool,
    /// Vote weight (≥ 0; typically the expert's log-odds accuracy).
    pub weight: f64,
}

/// Resolve votes by weighted majority.
///
/// Returns `(decision, confidence)` where confidence is the winning side's
/// share of total weight (0.5 = dead heat, 1.0 = unanimous). Ties and empty
/// vote sets resolve to `false` at confidence 0.5 — refusing a mapping is
/// the safe default in curation.
pub fn resolve_votes(votes: &[Vote]) -> (bool, f64) {
    let mut yes = 0.0;
    let mut no = 0.0;
    for v in votes {
        debug_assert!(v.weight >= 0.0, "weights must be non-negative");
        if v.answer {
            yes += v.weight;
        } else {
            no += v.weight;
        }
    }
    let total = yes + no;
    if total == 0.0 || yes == no {
        return (false, 0.5);
    }
    if yes > no {
        (true, yes / total)
    } else {
        (false, no / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(answer: bool, weight: f64) -> Vote {
        Vote { answer, weight }
    }

    #[test]
    fn unanimous_and_split() {
        assert_eq!(resolve_votes(&[v(true, 1.0), v(true, 1.0)]), (true, 1.0));
        let (d, c) = resolve_votes(&[v(true, 3.0), v(false, 1.0)]);
        assert!(d);
        assert!((c - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weights_can_flip_majorities() {
        // Two weak yeses vs one strong no.
        let (d, _) = resolve_votes(&[v(true, 0.4), v(true, 0.4), v(false, 1.0)]);
        assert!(!d, "weighted no outvotes two weak yeses");
    }

    #[test]
    fn ties_and_empty_refuse() {
        assert_eq!(resolve_votes(&[]), (false, 0.5));
        assert_eq!(resolve_votes(&[v(true, 1.0), v(false, 1.0)]), (false, 0.5));
        assert_eq!(resolve_votes(&[v(true, 0.0)]), (false, 0.5), "zero-weight only");
    }
}
