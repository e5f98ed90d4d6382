//! Collection statistics in the shape of the paper's Tables I and II.

use std::fmt;

/// The `db.<collection>.stats()` report.
///
/// Field names mirror the paper's Table I/II output: `ns` (namespace),
/// `count` (total entries), `numExtents` (extents storing the collection),
/// `nindexes`, `lastExtentSize` (byte size of the last extent on disk), and
/// `totalIndexSize` (bytes across all indexes).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats {
    /// Namespace, e.g. `dt.instance`.
    pub ns: String,
    /// Total stored documents.
    pub count: u64,
    /// Number of allocated extents.
    pub num_extents: usize,
    /// Number of secondary indexes.
    pub nindexes: usize,
    /// Allocated byte size of the most recent extent.
    pub last_extent_size: usize,
    /// Total bytes across all indexes (measured from encoded keys).
    pub total_index_size: usize,
    /// Total encoded document bytes.
    pub data_size: usize,
    /// Mean encoded document size in bytes.
    pub avg_obj_size: f64,
}

impl fmt::Display for CollectionStats {
    /// Renders in the paper's `db.<coll>.stats()` JSON-ish style:
    ///
    /// ```text
    /// {
    /// "ns" : "dt.instance",
    /// "count" : 17731744,
    /// ...
    /// }
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        writeln!(f, "\"ns\" : \"{}\",", self.ns)?;
        writeln!(f, "\"count\" : {},", self.count)?;
        writeln!(f, "\"numExtents\" : {},", self.num_extents)?;
        writeln!(f, "\"nindexes\" : {},", self.nindexes)?;
        writeln!(f, "\"lastExtentSize\" : {},", self.last_extent_size)?;
        writeln!(f, "\"totalIndexSize\" : {},", self.total_index_size)?;
        writeln!(f, "\"dataSize\" : {},", self.data_size)?;
        writeln!(f, "\"avgObjSize\" : {:.1},", self.avg_obj_size)?;
        writeln!(f, "...")?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_style() {
        let s = CollectionStats {
            ns: "dt.instance".into(),
            count: 17_731_744,
            num_extents: 242,
            nindexes: 1,
            last_extent_size: 1_903_786_752,
            total_index_size: 733_651_904,
            data_size: 0,
            avg_obj_size: 0.0,
        };
        let shown = s.to_string();
        assert!(shown.contains("\"ns\" : \"dt.instance\""));
        assert!(shown.contains("\"count\" : 17731744"));
        assert!(shown.contains("\"numExtents\" : 242"));
        assert!(shown.contains("\"lastExtentSize\" : 1903786752"));
        assert!(shown.starts_with("{\n"));
        assert!(shown.ends_with('}'));
    }
}
