//! Secondary indexes.
//!
//! Indexes are ordered (`BTreeMap`) so they serve equality lookups, range
//! scans (`BETWEEN`, `<`, `>`), and ordered iteration for `ORDER BY`
//! pushdown. Values use [`Value`]'s total order, which keeps NaN and NULL
//! handling consistent with the executor.

use crate::table::RowId;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// An ordered secondary index over one column.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Column offset within the table schema.
    pub column: usize,
    /// Enforce uniqueness of non-NULL keys.
    pub unique: bool,
    /// Key → row ids (sorted vec; typically tiny for unique indexes).
    map: BTreeMap<Value, Vec<RowId>>,
    /// Number of (key, row) entries.
    entries: usize,
}

impl Index {
    /// Create an empty index.
    pub fn new(name: impl Into<String>, column: usize, unique: bool) -> Self {
        Index {
            name: name.into(),
            column,
            unique,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct non-NULL keys (O(1); feeds scan selection).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Smallest indexed key, if any.
    pub fn min_key(&self) -> Option<&Value> {
        self.map.keys().next()
    }

    /// Largest indexed key, if any.
    pub fn max_key(&self) -> Option<&Value> {
        self.map.keys().next_back()
    }

    /// Add an entry. NULL keys are not indexed (SQL semantics: NULL never
    /// matches an equality or range predicate).
    pub fn insert(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        let ids = self.map.entry(key.clone()).or_default();
        match ids.binary_search(&id) {
            Ok(_) => {}
            Err(pos) => {
                ids.insert(pos, id);
                self.entries += 1;
            }
        }
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        if let Some(ids) = self.map.get_mut(key) {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
                self.entries -= 1;
            }
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &Value) -> Vec<RowId> {
        self.lookup(key).to_vec()
    }

    /// Row ids with exactly this key, ascending, without copying.
    pub fn lookup(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Row ids with keys in the given (inclusive/exclusive) bounds, in key
    /// order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        for (_, ids) in self.map.range::<Value, _>((low, high)) {
            out.extend_from_slice(ids);
        }
        out
    }

    /// All row ids in ascending key order.
    pub fn scan_asc(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.entries);
        for ids in self.map.values() {
            out.extend_from_slice(ids);
        }
        out
    }

    /// Distinct keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(5), 1);
        ix.insert(&Value::Int(5), 2);
        ix.insert(&Value::Int(7), 3);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.get(&Value::Int(5)), vec![1, 2]);
        ix.remove(&Value::Int(5), 1);
        assert_eq!(ix.get(&Value::Int(5)), vec![2]);
        ix.remove(&Value::Int(5), 2);
        assert!(ix.get(&Value::Int(5)).is_empty());
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(1), 9);
        ix.insert(&Value::Int(1), 9);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn null_keys_not_indexed() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Null, 1);
        assert!(ix.is_empty());
        ix.remove(&Value::Null, 1); // no-op, no panic
    }

    #[test]
    fn range_queries() {
        let mut ix = Index::new("ix", 0, false);
        for i in 0..10 {
            ix.insert(&Value::Int(i), i as RowId);
        }
        let got = ix.range(
            Bound::Included(&Value::Int(3)),
            Bound::Excluded(&Value::Int(7)),
        );
        assert_eq!(got, vec![3, 4, 5, 6]);
        let all = ix.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn cross_type_numeric_keys() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(2), 1);
        // 2.0 == 2 under total order → lands in the same bucket.
        ix.insert(&Value::Float(2.0), 2);
        assert_eq!(ix.get(&Value::Int(2)), vec![1, 2]);
        assert_eq!(ix.get(&Value::Float(2.0)), vec![1, 2]);
    }

    #[test]
    fn scan_order() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Text("b".into()), 1);
        ix.insert(&Value::Text("a".into()), 2);
        ix.insert(&Value::Text("c".into()), 0);
        assert_eq!(ix.scan_asc(), vec![2, 1, 0]);
        let keys: Vec<_> = ix.keys().cloned().collect();
        assert_eq!(
            keys,
            vec![
                Value::Text("a".into()),
                Value::Text("b".into()),
                Value::Text("c".into())
            ]
        );
    }
}
