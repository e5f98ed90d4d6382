//! The bottom-up global schema.

use datatamer_model::{AttrId, AttributeDef, AttributeProfile, DtError, Result, SourceId};

/// One attribute of the global schema.
#[derive(Debug, Clone)]
pub struct GlobalAttribute {
    /// Stable id.
    pub id: AttrId,
    /// Canonical display name (the name of the first source attribute that
    /// created it — bottom-up, per the paper).
    pub name: String,
    /// Merged content profile across all mapped source attributes.
    pub profile: AttributeProfile,
    /// Provenance: which `(source, attribute)` pairs map here.
    pub provenance: Vec<(SourceId, String)>,
}

impl GlobalAttribute {
    /// Number of distinct sources mapped to this attribute.
    pub fn source_count(&self) -> usize {
        let mut sources: Vec<SourceId> = self.provenance.iter().map(|(s, _)| *s).collect();
        sources.sort_unstable();
        sources.dedup();
        sources.len()
    }
}

/// The global integrated schema, grown bottom-up from source metadata.
#[derive(Debug, Clone, Default)]
pub struct GlobalSchema {
    attributes: Vec<GlobalAttribute>,
}

impl GlobalSchema {
    /// An empty global schema (the paper's Fig 2 starting state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True when no attribute exists yet.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Iterate attributes in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &GlobalAttribute> {
        self.attributes.iter()
    }

    /// Attribute by id.
    pub fn get(&self, id: AttrId) -> Option<&GlobalAttribute> {
        self.attributes.iter().find(|a| a.id == id)
    }

    /// Attribute by canonical name (case-insensitive).
    pub fn by_name(&self, name: &str) -> Option<&GlobalAttribute> {
        self.attributes.iter().find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Add a brand-new global attribute seeded from a source attribute.
    /// Returns its id.
    pub fn add_attribute(&mut self, source: SourceId, attr: &AttributeDef) -> AttrId {
        let id = AttrId(self.attributes.len() as u32);
        self.attributes.push(GlobalAttribute {
            id,
            name: attr.name.clone(),
            profile: attr.profile.clone(),
            provenance: vec![(source, attr.name.clone())],
        });
        id
    }

    /// Map a source attribute onto an existing global attribute: profiles
    /// merge and provenance extends. An id this schema never handed out is
    /// a [`DtError::NotFound`], and nothing changes.
    pub fn map_attribute(
        &mut self,
        id: AttrId,
        source: SourceId,
        attr: &AttributeDef,
    ) -> Result<()> {
        let slot = self
            .attributes
            .iter_mut()
            .find(|a| a.id == id)
            .ok_or_else(|| DtError::NotFound(format!("global attribute {id}")))?;
        slot.profile.merge(&attr.profile);
        slot.provenance.push((source, attr.name.clone()));
        Ok(())
    }

    /// Canonical names in creation order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{Record, RecordId, SourceSchema, Value};

    fn schema_from(source: u32, rows: Vec<Vec<(&str, Value)>>) -> SourceSchema {
        let sid = SourceId(source);
        let records: Vec<Record> = rows
            .into_iter()
            .enumerate()
            .map(|(i, fields)| Record::from_pairs(sid, RecordId(i as u64), fields))
            .collect();
        SourceSchema::profile_records(sid, format!("src{source}"), &records)
    }

    #[test]
    fn add_and_lookup() {
        let mut g = GlobalSchema::new();
        assert!(g.is_empty());
        let s = schema_from(1, vec![vec![("show_name", Value::from("Matilda"))]]);
        let id = g.add_attribute(SourceId(1), &s.attributes[0]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(id).unwrap().name, "show_name");
        assert!(g.by_name("SHOW_NAME").is_some(), "case-insensitive lookup");
        assert!(g.by_name("missing").is_none());
    }

    #[test]
    fn map_merges_profiles_and_provenance() {
        let mut g = GlobalSchema::new();
        let s1 = schema_from(1, vec![vec![("price", Value::from("$27"))]]);
        let id = g.add_attribute(SourceId(1), &s1.attributes[0]);
        let s2 = schema_from(
            2,
            vec![vec![("cost", Value::from("$99"))], vec![("cost", Value::from("$45"))]],
        );
        g.map_attribute(id, SourceId(2), &s2.attributes[0]).unwrap();
        let attr = g.get(id).unwrap();
        assert_eq!(attr.profile.count, 3);
        assert_eq!(attr.source_count(), 2);
        assert_eq!(attr.provenance.len(), 2);
        assert_eq!(attr.name, "price", "name stays with the seeding source");
    }
}
