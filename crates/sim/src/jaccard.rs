//! Jaccard set similarity over token sets.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`; `1.0` when both sets are empty.
pub fn jaccard<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Weighted (multiset) Jaccard: `Σ min(fa, fb) / Σ max(fa, fb)` over the
/// union of keys, a key missing on one side weighing `0`. Robust when
/// token frequency matters (value-overlap matching between columns with
/// repeated values). `1.0` when both sides are empty or every weight is 0.
///
/// Both sides are `(key, weight)` entries **sorted by key with no repeated
/// key** (checked only in debug builds). The sums accumulate in key order,
/// since float addition is not associative.
pub fn weighted_jaccard<T: Ord>(a: &[(T, f64)], b: &[(T, f64)]) -> f64 {
    debug_assert!(a.is_sorted_by(|x, y| x.0 < y.0), "lhs not sorted/deduped");
    debug_assert!(b.is_sorted_by(|x, y| x.0 < y.0), "rhs not sorted/deduped");
    let (mut i, mut j) = (0usize, 0usize);
    let mut num = 0.0;
    let mut den = 0.0;
    loop {
        let order = match (a.get(i), b.get(j)) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        let fa = if order.is_le() { a[i].1 } else { 0.0 };
        let fb = if order.is_ge() { b[j].1 } else { 0.0 };
        i += usize::from(order.is_le());
        j += usize::from(order.is_ge());
        num += fa.min(fb);
        den += fa.max(fb);
    }
    if den == 0.0 {
        return 1.0;
    }
    num / den
}

/// Exact Jaccard over two **sorted, deduplicated** slices by merge
/// intersection — the allocation-free counterpart of [`jaccard`] for
/// interned token ids (`&[u32]`) prepared once per record.
///
/// Produces bit-identical results to [`jaccard`] over the equivalent sets:
/// the intersection and union counts are the same integers and the final
/// division is the same float expression, so a scorer can swap hash sets
/// for sorted id slices without moving a single score. `1.0` when both
/// slices are empty.
///
/// The caller owns the sorted/deduplicated invariant (it is checked only in
/// debug builds); violating it undercounts the intersection.
pub fn jaccard_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.is_sorted_by(|x, y| x < y), "lhs not sorted/deduped");
    debug_assert!(b.is_sorted_by(|x, y| x < y), "rhs not sorted/deduped");
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn basic_overlap() {
        let a = set(&["a", "b", "c"]);
        let b = set(&["b", "c", "d"]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_disjoint_empty() {
        let a = set(&["x"]);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &set(&["y"])), 0.0);
        assert_eq!(jaccard::<String>(&HashSet::new(), &HashSet::new()), 1.0);
        assert_eq!(jaccard(&a, &HashSet::new()), 0.0);
    }

    #[test]
    fn sorted_slices_match_hash_sets() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3], &[2, 3, 4]),
            (&[5], &[5]),
            (&[1], &[2]),
            (&[], &[]),
            (&[7, 9], &[]),
            (&[0, 1, 2, 3, 4], &[2]),
        ];
        for (a, b) in cases {
            let sa: HashSet<u32> = a.iter().copied().collect();
            let sb: HashSet<u32> = b.iter().copied().collect();
            assert_eq!(
                jaccard_sorted(a, b).to_bits(),
                jaccard(&sa, &sb).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn weighted_uses_frequencies() {
        let a = [("x", 2.0), ("y", 1.0)];
        let b = [("x", 1.0), ("z", 1.0)];
        // min sums: x->1; max sums: x->2, y->1, z->1 => 1/4
        assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_empty_and_zero() {
        let empty: [(&str, f64); 0] = [];
        assert_eq!(weighted_jaccard(&empty, &empty), 1.0);
        let z = [("x", 0.0)];
        assert_eq!(weighted_jaccard(&z, &z), 1.0);
        assert_eq!(weighted_jaccard(&[("x", 1.0)], &empty), 0.0);
    }
}
