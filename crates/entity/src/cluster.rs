//! Union-find clustering of accepted duplicate pairs.

/// Disjoint-set forest with union by rank and path compression.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Compress.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets holding `a` and `b`. Returns true when they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// True when `a` and `b` share a set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Grow to `n` elements, appending fresh singletons and leaving every
    /// existing set untouched — the persistence primitive for incremental
    /// consolidation, where a delta batch extends the element universe
    /// without invalidating the unions accumulated over earlier batches.
    /// Shrinking is not supported; `n` at or below the current length is a
    /// no-op.
    pub fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.parent.push(self.parent.len());
            self.rank.push(0);
        }
    }

    /// Materialise clusters: index lists grouped by representative, each
    /// cluster's members sorted ascending, clusters ordered by smallest
    /// member.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..n {
            let r = self.find(i);
            by_root.entry(r).or_default().push(i);
        }
        // dtlint::allow(map-iter, reason = "members are sorted ascending and clusters sorted by smallest member below")
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort_by_key(|c| c.first().copied());
        out
    }
}

/// Cluster `n` items given accepted pairs.
pub fn cluster_pairs(n: usize, accepted: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(n);
    for (a, b) in accepted {
        uf.union(*a, *b);
    }
    uf.clusters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_without_unions() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.clusters(), vec![vec![0], vec![1], vec![2]]);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_and_transitivity() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.clusters(), vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn cluster_pairs_end_to_end() {
        let clusters = cluster_pairs(6, &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(clusters, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
    }

    #[test]
    fn empty_and_self_pairs() {
        assert!(cluster_pairs(0, &[]).is_empty());
        let mut uf = UnionFind::new(2);
        assert!(!uf.union(1, 1), "self-union is a no-op");
        assert!(!uf.is_empty() && uf.len() == 2);
    }

    #[test]
    fn grow_preserves_existing_sets() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        uf.grow(5);
        assert_eq!(uf.len(), 5);
        assert!(uf.connected(0, 1), "grow must not disturb existing unions");
        assert!(!uf.connected(2, 3));
        uf.union(3, 4);
        assert_eq!(uf.clusters(), vec![vec![0, 1], vec![2], vec![3, 4]]);
        uf.grow(2);
        assert_eq!(uf.len(), 5, "grow never shrinks");

        // Growing then unioning reproduces the from-scratch clusters.
        let mut scratch = UnionFind::new(5);
        scratch.union(0, 1);
        scratch.union(3, 4);
        assert_eq!(uf.clusters(), scratch.clusters());
    }

    #[test]
    fn chain_compresses_correctly() {
        let n = 1000;
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let clusters = cluster_pairs(n, &pairs);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), n);
    }
}
