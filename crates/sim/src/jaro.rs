//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the workhorse for short name-like strings (show titles,
//! person names, attribute names): it is tolerant of transpositions and
//! rewards common prefixes, which suits typo-style dirt. Entity
//! consolidation also runs it on whole text-feed values of a few hundred
//! characters, so the kernel has to stay fast on long inputs too.
//!
//! ## The matching rule and its cost
//!
//! Jaro matches greedily: walking `a` left to right, symbol `a[i]` takes the
//! **lowest** not-yet-used position `j` of `b` with `b[j] == a[i]` inside
//! the window `[i - w, i + w]`, `w = max(|a|, |b|) / 2 - 1`. Transpositions
//! are half the positions where the matched symbols of `a` (in `a` order)
//! and of `b` (in `b` order) disagree.
//!
//! [`jaro`] runs that rule bit-parallel. `b` becomes one position bitmask
//! per distinct symbol, `⌈|b|/64⌉` words each, plus a `used` bitset; the
//! match for `a[i]` is the lowest set bit of `mask[a[i]] & !used` inside the
//! window, found with one AND and one `trailing_zeros` per window word.
//! Transpositions come from walking the matched bits of both sides in order.
//! Total cost is `O(|a|·⌈|b|/64⌉)` word operations instead of the textbook
//! nested loop's `O(|a|·|b|)` symbol comparisons, and strings of up to 64
//! symbols run from stack scratch without allocating. The kernel picks
//! exactly the `j` the nested loop picks and evaluates the same float
//! expression, so scores are bit-identical to it (the nested loop is kept
//! as the test oracle).
//!
//! ASCII inputs index their bytes directly. Anything else is decoded to
//! `char`s once and mapped to dense symbol ids, so non-ASCII text pays one
//! decode, not a different algorithm.

/// Scratch words kept on the stack: masks of at most 64 distinct symbols
/// for a `b` of up to 64 symbols, plus both `used` sets for any `a` of up to
/// a few thousand. Larger inputs allocate their scratch once per call.
const STACK_WORDS: usize = 128;

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        // Dense ids in first-seen order over `b`; bytes absent from `b`
        // can never match and keep the sentinel.
        let mut ids = [u8::MAX; 128];
        let mut alphabet = 0usize;
        for &c in b {
            if ids[c as usize] == u8::MAX {
                ids[c as usize] = alphabet as u8;
                alphabet += 1;
            }
        }
        jaro_dense(a, b, alphabet, |c| match ids[c as usize] {
            u8::MAX => None,
            id => Some(id as usize),
        })
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut alphabet = b.clone();
        alphabet.sort_unstable();
        alphabet.dedup();
        jaro_dense(&a, &b, alphabet.len(), |c| alphabet.binary_search(&c).ok())
    }
}

/// The bit-parallel kernel over symbol slices. `id_of` maps a symbol to its
/// dense id in `0..alphabet` when it occurs in `b`, `None` otherwise.
fn jaro_dense<T: Copy + PartialEq>(
    a: &[T],
    b: &[T],
    alphabet: usize,
    id_of: impl Fn(T) -> Option<usize>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let words = b.len().div_ceil(64);
    let need = alphabet * words + words + a.len().div_ceil(64);
    let mut stack = [0u64; STACK_WORDS];
    let mut heap = Vec::new();
    let scratch: &mut [u64] = if need <= STACK_WORDS {
        &mut stack[..need]
    } else {
        heap.resize(need, 0);
        &mut heap
    };
    let (masks, used) = scratch.split_at_mut(alphabet * words);
    let (b_used, a_used) = used.split_at_mut(words);
    for (j, &c) in b.iter().enumerate() {
        if let Some(id) = id_of(c) {
            masks[id * words + j / 64] |= 1 << (j % 64);
        }
    }

    let mut matches = 0usize;
    for (i, &c) in a.iter().enumerate() {
        let Some(id) = id_of(c) else { continue };
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        let mask = &masks[id * words..(id + 1) * words];
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mut free = mask[w] & !b_used[w];
            if w == first {
                free &= !0u64 << (lo % 64);
            }
            if w == last {
                free &= !0u64 >> (63 - (hi - 1) % 64);
            }
            if free != 0 {
                b_used[w] |= free & free.wrapping_neg();
                a_used[i / 64] |= 1 << (i % 64);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let transpositions = set_bits(a_used)
        .zip(set_bits(b_used))
        .filter(|&(i, j)| a[i] != b[j])
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Positions of the set bits of a bitset, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Jaro-Winkler similarity with standard prefix scale 0.1 and prefix cap 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    winkler(jaro(a, b), a, b)
}

/// The Winkler prefix boost applied to a Jaro score `j` of `a` vs `b`.
fn winkler(j: f64, a: &str, b: &str) -> f64 {
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook nested loop: the semantic definition [`jaro`] is
    /// pinned against, bit for bit.
    fn oracle_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_matched: Vec<char> = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches += 1;
                    a_matched.push(*ca);
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let b_matched: Vec<char> = b
            .iter()
            .zip(b_used.iter())
            .filter_map(|(c, used)| used.then_some(*c))
            .collect();
        let transpositions = a_matched
            .iter()
            .zip(b_matched.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    /// Both argument orders of `jaro` and `jaro_winkler` equal the oracle
    /// bit for bit.
    fn assert_matches_oracle(a: &str, b: &str) {
        for (x, y) in [(a, b), (b, a)] {
            let expected = oracle_jaro(x, y);
            assert_eq!(jaro(x, y).to_bits(), expected.to_bits(), "jaro({x:?}, {y:?})");
            assert_eq!(
                jaro_winkler(x, y).to_bits(),
                winkler(expected, x, y).to_bits(),
                "jaro_winkler({x:?}, {y:?})"
            );
        }
    }

    /// 64 symbols; the non-ASCII ones sit at different offsets so that
    /// most alphabets drawn from a window of it are pure ASCII and some mix
    /// in 2-, 3- and 4-byte characters.
    const POOL: &str = "abé cdefghijklmnßopqrstuvwxyzABCDEFGHIJ😀KLMNOPQRSTUVWXYZ0123456中";

    /// One step of a small LCG.
    fn step(seed: &mut u64) -> usize {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*seed >> 33) as usize
    }

    /// A string of `len` symbols over the `k`-symbol window of [`POOL`]
    /// starting at `offset`.
    fn text(len: usize, k: usize, offset: usize, seed: &mut u64) -> String {
        let pool: Vec<char> = POOL.chars().collect();
        (0..len).map(|_| pool[(offset + step(seed) % k) % pool.len()]).collect()
    }

    /// `a` with most symbols copied from nearby positions and some fresh
    /// ones, so that matches are dense, windows overlap and transpositions
    /// are common — the regime where only the lowest-match rule gives the
    /// oracle's answer.
    fn perturb(a: &str, len: usize, k: usize, offset: usize, seed: &mut u64) -> String {
        let src: Vec<char> = a.chars().collect();
        let fresh: Vec<char> = text(len, k, offset, seed).chars().collect();
        (0..len)
            .map(|p| {
                let r = step(seed);
                if src.is_empty() || r.is_multiple_of(4) {
                    fresh[p]
                } else {
                    src[(p + r % 7) % src.len()]
                }
            })
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_jaro() {
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.767));
        assert!(close(jaro("JELLYFISH", "SMELLYFISH"), 0.896));
    }

    #[test]
    fn textbook_jaro_winkler() {
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.961));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.813));
    }

    #[test]
    fn identity_and_disjoint() {
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("", "é"), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro_winkler("abc", "abc"), 1.0);
    }

    #[test]
    fn symmetric() {
        let pairs = [("Matilda", "Mathilda"), ("Shubert", "Schubert"), ("a", "ab")];
        for (x, y) in pairs {
            assert!(close(jaro(x, y), jaro(y, x)));
            assert!(close(jaro_winkler(x, y), jaro_winkler(y, x)));
        }
    }

    #[test]
    fn winkler_rewards_prefix() {
        // Same Jaro, different shared prefix -> JW prefers the prefix match.
        let with_prefix = jaro_winkler("theater", "theatre");
        let plain = jaro("theater", "theatre");
        assert!(with_prefix >= plain);
        assert!(jaro_winkler("prefix_abc", "prefix_xyz") > jaro("prefix_abc", "prefix_xyz"));
    }

    #[test]
    fn bounded_in_unit_interval() {
        for (x, y) in [("Matilda", "The Wolverine"), ("", "x"), ("aa", "aaaa")] {
            let s = jaro_winkler(x, y);
            assert!((0.0..=1.0).contains(&s), "{x} {y} -> {s}");
        }
    }

    #[test]
    fn word_boundary_lengths_match_the_oracle() {
        let lengths = [0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 200, 600];
        let mut seed = 7u64;
        for &k in &[2, 3, 5, 60] {
            for &offset in &[0, 40] {
                for &la in &lengths {
                    for &lb in &lengths {
                        let a = text(la, k, offset, &mut seed);
                        let b = perturb(&a, lb, k, offset, &mut seed);
                        assert_matches_oracle(&a, &b);
                    }
                }
            }
        }
    }

    #[test]
    fn non_ascii_matches_the_oracle() {
        for (a, b) in [
            ("café", "cafe"),
            ("straße", "strasse"),
            ("😀a😀b", "a😀😀b"),
            ("é", "é"),
            ("ééé", "é"),
            ("", "ß"),
            ("中文中文", "文中文中"),
        ] {
            assert_matches_oracle(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn bit_parallel_jaro_is_bit_identical_to_the_nested_loop(
            k in 2usize..61,
            offset in 0usize..64,
            len_a in 0usize..600,
            len_b in 0usize..600,
            seed in any::<u64>(),
        ) {
            let mut seed = seed;
            let a = text(len_a, k, offset, &mut seed);
            let b = perturb(&a, len_b, k, offset, &mut seed);
            let unrelated = text(len_b, k, offset, &mut seed);
            assert_matches_oracle(&a, &b);
            assert_matches_oracle(&a, &unrelated);
        }
    }
}
