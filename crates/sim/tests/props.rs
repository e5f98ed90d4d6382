//! Property tests for the similarity measures: bounds, symmetry, identity,
//! and cross-implementation agreement.

use proptest::prelude::*;

use datatamer_sim::{
    jaccard, jaccard_sorted, jaro, jaro_winkler, levenshtein, levenshtein_similarity,
    ngram_similarity, soundex, tokenize, TokenInterner,
};

fn word() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9' ]{0,20}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        let dab = levenshtein(&a, &b);
        let dba = levenshtein(&b, &a);
        prop_assert_eq!(dab, dba, "symmetry");
        prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
        // Triangle inequality.
        let dac = levenshtein(&a, &c);
        let dcb = levenshtein(&c, &b);
        prop_assert!(dab <= dac + dcb, "triangle: {} > {} + {}", dab, dac, dcb);
    }

    #[test]
    fn similarity_scores_are_bounded_and_symmetric(a in word(), b in word()) {
        for (name, s_ab, s_ba) in [
            ("jaro", jaro(&a, &b), jaro(&b, &a)),
            ("jaro_winkler", jaro_winkler(&a, &b), jaro_winkler(&b, &a)),
            ("lev_sim", levenshtein_similarity(&a, &b), levenshtein_similarity(&b, &a)),
            ("ngram2", ngram_similarity(&a, &b, 2), ngram_similarity(&b, &a, 2)),
        ] {
            prop_assert!((0.0..=1.0).contains(&s_ab), "{name} out of bounds: {s_ab}");
            prop_assert!((s_ab - s_ba).abs() < 1e-9, "{name} asymmetric: {s_ab} vs {s_ba}");
        }
    }

    #[test]
    fn identity_scores_one(a in "[a-zA-Z0-9]{1,20}") {
        prop_assert_eq!(jaro(&a, &a), 1.0);
        prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        prop_assert_eq!(levenshtein_similarity(&a, &a), 1.0);
        prop_assert_eq!(ngram_similarity(&a, &a, 2), 1.0);
    }

    #[test]
    fn jaccard_bounds_and_identity(
        xs in prop::collection::hash_set("[a-z]{1,5}", 0..10),
        ys in prop::collection::hash_set("[a-z]{1,5}", 0..10),
    ) {
        let j = jaccard(&xs, &ys);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((jaccard(&xs, &xs) - 1.0).abs() < 1e-12);
        prop_assert!((j - jaccard(&ys, &xs)).abs() < 1e-12);
        if xs.is_disjoint(&ys) && !(xs.is_empty() && ys.is_empty()) {
            prop_assert_eq!(j, 0.0);
        }
    }

    #[test]
    fn soundex_shape(word in "[a-zA-Z]{1,16}") {
        let code = soundex(&word).expect("alphabetic input");
        prop_assert_eq!(code.len(), 4);
        let mut chars = code.chars();
        prop_assert!(chars.next().unwrap().is_ascii_uppercase());
        prop_assert!(chars.all(|c| c.is_ascii_digit()));
        // Case-insensitive.
        prop_assert_eq!(soundex(&word.to_lowercase()), soundex(&word.to_uppercase()));
    }

    #[test]
    fn interner_growth_preserves_ids(
        // A narrow alphabet so the two batches collide heavily — the
        // interesting case is batch B re-interning batch A's tokens.
        batch_a in prop::collection::vec("[a-c]{1,3}", 0..20),
        batch_b in prop::collection::vec("[a-c]{1,3}", 0..20),
    ) {
        // Incremental ER's resident state depends on interning being
        // append-only: interning A then growing with B must assign exactly
        // the ids a single pass over A∥B would, so features prepared
        // before a growth step stay bit-identical after it.
        let mut grown = TokenInterner::new();
        let ids_a: Vec<u32> = batch_a.iter().map(|t| grown.intern_str(t)).collect();
        let ids_b: Vec<u32> = batch_b.iter().map(|t| grown.intern_str(t)).collect();

        let mut oneshot = TokenInterner::new();
        let all_ids: Vec<u32> =
            batch_a.iter().chain(&batch_b).map(|t| oneshot.intern_str(t)).collect();

        let grown_ids: Vec<u32> = ids_a.iter().chain(&ids_b).copied().collect();
        prop_assert_eq!(&grown_ids, &all_ids, "two-phase interning reassigned an id");
        prop_assert_eq!(grown.len(), oneshot.len());
        for t in batch_a.iter().chain(&batch_b) {
            prop_assert_eq!(grown.get(t), oneshot.get(t), "lookup diverged for {}", t);
        }

        // Downstream set similarity over the interned ids is therefore
        // unchanged by *when* the interner grew.
        let as_set = |ids: &[u32]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let j_grown = jaccard_sorted(&as_set(&ids_a), &as_set(&ids_b));
        let j_oneshot = jaccard_sorted(
            &as_set(&all_ids[..batch_a.len()]),
            &as_set(&all_ids[batch_a.len()..]),
        );
        prop_assert_eq!(j_grown.to_bits(), j_oneshot.to_bits());
    }

    #[test]
    fn tokenize_produces_lowercase_alnum(text in ".{0,60}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            // Lowercasing is idempotent on tokens. (Some uppercase-category
            // characters, e.g. 𝐀 U+1D400, have no lowercase mapping; they
            // are their own canonical form.)
            prop_assert_eq!(tok.to_lowercase(), tok.clone(), "token not canonical: {}", tok);
            prop_assert!(tok.chars().any(char::is_alphanumeric));
        }
    }
}
