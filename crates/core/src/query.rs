//! Demo queries over the ingested and fused data.

use std::collections::{BTreeMap, HashMap};

use datatamer_model::{Result, Value};
use datatamer_storage::Collection;

/// Discussion statistics for one show derived from WEBINSTANCE.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscussedShow {
    /// Display title (most frequent surface form).
    pub title: String,
    /// Fragments mentioning the show.
    pub mentions: u64,
    /// Whether any fragment calls it award-winning.
    pub award_winning: bool,
}

/// Table IV's query: the top-`k` most discussed **award-winning**
/// movies/shows, mined purely from the text collection.
///
/// A show counts as award-winning when at least one fragment mentioning it
/// contains the phrase "award-winning" (the paper's own feed text carries
/// the phrase: "Matilda an award-winning import from London").
pub fn top_discussed_award_winning(
    instance: &Collection,
    k: usize,
) -> Result<Vec<DiscussedShow>> {
    let mut counts: BTreeMap<String, DiscussedShow> = BTreeMap::new();
    // Scan instances; each doc contributes one mention per distinct show.
    let rows: Vec<(Vec<(String, String)>, bool)> = instance.parallel_scan(|_, doc| {
        let fragment = doc.get("fragment").and_then(Value::as_str).unwrap_or("");
        let award = fragment.to_lowercase().contains("award-winning");
        let mut shows: Vec<(String, String)> = Vec::new();
        if let Some(Value::Array(entities)) = doc.get("entities") {
            for e in entities {
                let Some(ed) = e.as_doc() else { continue };
                if ed.get("type").and_then(Value::as_str) == Some("Movie") {
                    let canonical = ed
                        .get("canonical")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    let surface =
                        ed.get("name").and_then(Value::as_str).unwrap_or_default().to_owned();
                    if !canonical.is_empty() && !shows.iter().any(|(c, _)| *c == canonical) {
                        shows.push((canonical, surface));
                    }
                }
            }
        }
        (!shows.is_empty()).then_some((shows, award))
    })?;
    let mut surface_votes: HashMap<String, HashMap<String, u64>> = HashMap::new();
    for (shows, award) in rows {
        for (canonical, surface) in shows {
            let entry = counts.entry(canonical.clone()).or_insert_with(|| DiscussedShow {
                title: surface.clone(),
                mentions: 0,
                award_winning: false,
            });
            entry.mentions += 1;
            entry.award_winning |= award;
            *surface_votes
                .entry(canonical)
                .or_default()
                .entry(surface)
                .or_insert(0) += 1;
        }
    }
    // Display title = most frequent surface (ties to lexicographically first).
    for (canonical, show) in counts.iter_mut() {
        if let Some(votes) = surface_votes.get(canonical) {
            let mut best: Vec<(&String, &u64)> = votes.iter().collect();
            best.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            if let Some((surface, _)) = best.first() {
                show.title = (*surface).clone();
            }
        }
    }
    let mut ranked: Vec<DiscussedShow> = counts.into_values().filter(|s| s.award_winning).collect();
    ranked.sort_by(|a, b| b.mentions.cmp(&a.mentions).then_with(|| a.title.cmp(&b.title)));
    ranked.truncate(k);
    Ok(ranked)
}

/// Count entity documents per type (Table III), descending.
pub fn entity_type_histogram(entity: &Collection) -> Result<Vec<(String, u64)>> {
    let mut by_type = entity.count_by("type")?;
    by_type.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
    Ok(by_type
        .into_iter()
        .map(|(v, n)| (v.to_text(), n))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;
    use datatamer_storage::CollectionConfig;

    fn instance_with(frags: &[(&str, &[&str])]) -> Collection {
        // (fragment text, movie names)
        let c = Collection::new("instance", CollectionConfig { extent_size: 8192, shards: 2, ..Default::default() })
            .unwrap();
        for (text, movies) in frags {
            let entities: Vec<Value> = movies
                .iter()
                .map(|m| {
                    Value::Doc(doc! {
                        "type" => "Movie",
                        "name" => *m,
                        "canonical" => m.to_lowercase()
                    })
                })
                .collect();
            c.insert(&doc! {
                "fragment" => *text,
                "entities" => Value::Array(entities)
            })
            .unwrap();
        }
        c
    }

    #[test]
    fn counts_and_award_filter() {
        let c = instance_with(&[
            ("the award-winning Matilda wowed", &["Matilda"]),
            ("Matilda again tonight", &["Matilda"]),
            ("Wicked sells out", &["Wicked"]),
            ("award-winning Goodfellas retrospective", &["Goodfellas"]),
        ]);
        let top = top_discussed_award_winning(&c, 10).unwrap();
        assert_eq!(top.len(), 2, "Wicked is never called award-winning: {top:?}");
        assert_eq!(top[0].title, "Matilda");
        assert_eq!(top[0].mentions, 2);
        assert!(top[0].award_winning);
        assert_eq!(top[1].title, "Goodfellas");
    }

    #[test]
    fn one_mention_per_fragment_per_show() {
        let c = instance_with(&[(
            "award-winning Matilda and Matilda again",
            &["Matilda", "Matilda"],
        )]);
        let top = top_discussed_award_winning(&c, 10).unwrap();
        assert_eq!(top[0].mentions, 1, "duplicate mentions in one fragment count once");
    }

    #[test]
    fn k_truncates() {
        let c = instance_with(&[
            ("award-winning A", &["A"]),
            ("award-winning B", &["B"]),
            ("award-winning C", &["C"]),
        ]);
        assert_eq!(top_discussed_award_winning(&c, 2).unwrap().len(), 2);
        assert!(top_discussed_award_winning(&c, 0).unwrap().is_empty());
    }

    #[test]
    fn histogram_orders_descending() {
        let c = Collection::new("entity", CollectionConfig::default()).unwrap();
        for ty in ["Person", "Person", "Person", "City", "Movie", "Movie"] {
            c.insert(&doc! {"type" => ty}).unwrap();
        }
        let h = entity_type_histogram(&c).unwrap();
        assert_eq!(
            h,
            vec![
                ("Person".to_owned(), 3),
                ("Movie".to_owned(), 2),
                ("City".to_owned(), 1)
            ]
        );
    }
}
