//! [`Corpus`]: the records consolidation groups and fusion merges, read
//! where they live. The context's corpus has three segments: its
//! structured records, its text show records and the delta batches it
//! accepted. A run's stages and every delta read the same view, so one
//! member index names one record everywhere.

use datatamer_model::Record;

/// The corpus by member index: the context's structured records, then its
/// text show records, then the accepted delta batches. No stage copies it.
#[derive(Clone, Copy)]
pub(crate) struct Corpus<'a>(pub(crate) [&'a [Record]; 3]);

impl<'a> Corpus<'a> {
    /// The record at member index `i` (panics past the end, as slice
    /// indexing does).
    pub(crate) fn get(&self, mut i: usize) -> &'a Record {
        let [structured, text, accepted] = self.0;
        for part in [structured, text] {
            if i < part.len() {
                return &part[i];
            }
            i -= part.len();
        }
        &accepted[i]
    }

    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|part| part.len()).sum()
    }

    /// Every record in member-index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Record> + 'a {
        self.0.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId};

    fn recs(ids: std::ops::Range<u64>) -> Vec<Record> {
        ids.map(|i| Record::new(SourceId(0), RecordId(i))).collect()
    }

    #[test]
    fn get_and_iter_walk_the_segments_in_order() {
        let (structured, text, accepted) = (recs(0..2), recs(2..4), recs(4..5));
        let corpus = Corpus([&structured, &text, &accepted]);
        assert_eq!(corpus.len(), 5);
        let by_get: Vec<u64> = (0..corpus.len()).map(|i| corpus.get(i).id.0).collect();
        let by_iter: Vec<u64> = corpus.iter().map(|r| r.id.0).collect();
        assert_eq!(by_get, vec![0, 1, 2, 3, 4]);
        assert_eq!(by_iter, by_get);
        assert_eq!(corpus.iter().skip(3).map(|r| r.id.0).collect::<Vec<_>>(), vec![3, 4]);
    }
}
