//! Databases: interned predicates plus their relations.

use std::collections::BTreeSet;
use std::collections::HashMap;

use datalog_ast::{PredRef, Value};

use crate::facts::FactSet;
use crate::relation::Relation;

/// Dense predicate id within one [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// A database: one [`Relation`] per registered predicate.
///
/// Per the paper's §1.1, the EDB and the derived (IDB) predicates live in
/// the same store; evaluation starts from the EDB facts (plus any seeded
/// IDB facts when running *uniform*-equivalence tests) and monotonically
/// grows the IDB relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    by_ref: HashMap<PredRef, PredId>,
    refs: Vec<PredRef>,
    relations: Vec<Relation>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register (or look up) a predicate with the given arity.
    ///
    /// # Panics
    /// Panics if the predicate was already registered with another arity —
    /// programs are arity-validated before they reach the engine, and the
    /// loader checks every input batch against the program.
    pub fn register(&mut self, pred: &PredRef, arity: usize) -> PredId {
        if let Some(&id) = self.by_ref.get(pred) {
            assert_eq!(
                self.relations[id.0 as usize].arity(),
                arity,
                "predicate {pred} re-registered with different arity"
            );
            return id;
        }
        let id = PredId(self.refs.len() as u32);
        self.by_ref.insert(pred.clone(), id);
        self.refs.push(pred.clone());
        self.relations.push(Relation::new(arity));
        id
    }

    /// Look up a registered predicate.
    pub fn pred_id(&self, pred: &PredRef) -> Option<PredId> {
        self.by_ref.get(pred).copied()
    }

    /// The `PredRef` behind an id.
    pub fn pred_ref(&self, id: PredId) -> &PredRef {
        &self.refs[id.0 as usize]
    }

    /// Number of registered predicates.
    pub fn pred_count(&self) -> usize {
        self.refs.len()
    }

    /// Relation for a predicate id.
    pub fn relation(&self, id: PredId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Mutable relation for a predicate id.
    pub fn relation_mut(&mut self, id: PredId) -> &mut Relation {
        &mut self.relations[id.0 as usize]
    }

    /// Build the index over `cols` on a predicate's relation (see
    /// [`Relation::ensure_index`]). The evaluator calls this for every
    /// probe column set of a join order right before a variant walks it —
    /// after that the variant probes through `&Database`, so enumeration
    /// never mutates it.
    pub fn ensure_index(&mut self, id: PredId, cols: &[usize]) {
        self.relations[id.0 as usize].ensure_index(cols);
    }

    /// Export all facts as a [`FactSet`].
    pub fn dump(&self) -> FactSet {
        let mut fs = FactSet::new();
        for (i, rel) in self.relations.iter().enumerate() {
            let pred = &self.refs[i];
            for row in rel.iter() {
                fs.insert(pred.clone(), row.to_vec());
            }
        }
        fs
    }

    /// Export the facts of a single predicate.
    pub fn dump_pred(&self, id: PredId) -> Vec<Vec<Value>> {
        self.relation(id).iter().map(|r| r.to_vec()).collect()
    }

    /// All constants stored anywhere (active domain).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.relations
            .iter()
            .flat_map(|r| r.iter().flat_map(|row| row.iter().copied()))
            .collect()
    }

    /// Total stored tuples.
    pub fn total_facts(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Total sealed sorted runs across all relations.
    pub fn storage_runs(&self) -> usize {
        self.relations.iter().map(|r| r.run_count()).sum()
    }

    /// Estimated heap bytes of acceleration structures across relations.
    pub fn storage_overhead_bytes(&self) -> usize {
        self.relations
            .iter()
            .map(|r| r.overhead_bytes_estimate())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut db = Database::new();
        let p = PredRef::new("p");
        let a = db.register(&p, 2);
        let b = db.register(&p, 2);
        assert_eq!(a, b);
        assert_eq!(db.pred_count(), 1);
        assert_eq!(db.pred_ref(a), &p);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn register_arity_clash_panics() {
        let mut db = Database::new();
        let p = PredRef::new("p");
        db.register(&p, 2);
        db.register(&p, 3);
    }

    #[test]
    fn load_dump_roundtrip() {
        let mut fs = FactSet::new();
        fs.insert(PredRef::new("p"), vec![Value::int(1), Value::int(2)]);
        fs.insert(PredRef::new("q"), vec![Value::sym("a")]);
        let mut db = Database::new();
        crate::eval::load_input(&mut db, &Default::default(), (&fs).into()).unwrap();
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.dump(), fs);
        let id = db.pred_id(&PredRef::new("p")).unwrap();
        assert_eq!(db.dump_pred(id).len(), 1);
    }

    #[test]
    fn adorned_predicates_get_separate_relations() {
        let mut db = Database::new();
        let p_nn = db.register(&PredRef::adorned("p", "nn"), 2);
        let p_nd = db.register(&PredRef::adorned("p", "nd"), 1);
        assert_ne!(p_nn, p_nd);
        db.relation_mut(p_nn)
            .insert(&[Value::int(1), Value::int(2)]);
        db.relation_mut(p_nd).insert(&[Value::int(1)]);
        assert_eq!(db.relation(p_nn).len(), 1);
        assert_eq!(db.relation(p_nd).len(), 1);
    }
}
