//! Data requirements: what a back-end needs copied into its snapshot.
//!
//! The asynchronous execution method deep-copies the simulation's
//! published state (§4.3). Copying *everything* is correct but wasteful
//! when a back-end only reads a few arrays — the deep copy's memory
//! footprint and transfer time scale with what is copied, not with what
//! is used. [`DataRequirements`] lets a back-end declare the meshes,
//! associations, and array names it actually reads; the bridge takes the
//! union over the back-ends due this iteration and captures a snapshot
//! containing exactly that.

use std::collections::{BTreeMap, BTreeSet};

use svtk::FieldAssociation;

/// Which arrays of one association a back-end needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ArraySelection {
    /// Every array of the association.
    #[default]
    All,
    /// Only the named arrays.
    Named(BTreeSet<String>),
}

impl ArraySelection {
    /// True when `name` is selected.
    pub fn contains(&self, name: &str) -> bool {
        match self {
            ArraySelection::All => true,
            ArraySelection::Named(names) => names.contains(name),
        }
    }

    /// Widen `self` to also cover everything `other` selects.
    fn union_with(&mut self, other: &ArraySelection) {
        match (&mut *self, other) {
            (ArraySelection::All, _) => {}
            (_, ArraySelection::All) => *self = ArraySelection::All,
            (ArraySelection::Named(mine), ArraySelection::Named(theirs)) => {
                mine.extend(theirs.iter().cloned());
            }
        }
    }
}

/// Per-mesh requirements: an optional selection per association
/// (`None` = no arrays of that association are needed).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeshRequirements {
    point: Option<ArraySelection>,
    cell: Option<ArraySelection>,
    field: Option<ArraySelection>,
}

impl MeshRequirements {
    /// Everything on the mesh.
    pub fn all() -> Self {
        MeshRequirements {
            point: Some(ArraySelection::All),
            cell: Some(ArraySelection::All),
            field: Some(ArraySelection::All),
        }
    }

    /// The selection for `assoc`, if any arrays of it are needed at all.
    pub fn selection(&self, assoc: FieldAssociation) -> Option<&ArraySelection> {
        match assoc {
            FieldAssociation::Point => self.point.as_ref(),
            FieldAssociation::Cell => self.cell.as_ref(),
            FieldAssociation::Field => self.field.as_ref(),
        }
    }

    /// True when the array `name` with association `assoc` is needed.
    pub fn wants(&self, assoc: FieldAssociation, name: &str) -> bool {
        self.selection(assoc).is_some_and(|s| s.contains(name))
    }

    fn slot(&mut self, assoc: FieldAssociation) -> &mut Option<ArraySelection> {
        match assoc {
            FieldAssociation::Point => &mut self.point,
            FieldAssociation::Cell => &mut self.cell,
            FieldAssociation::Field => &mut self.field,
        }
    }

    fn add_named(&mut self, assoc: FieldAssociation, names: impl IntoIterator<Item = String>) {
        let addition = ArraySelection::Named(names.into_iter().collect());
        match self.slot(assoc) {
            Some(sel) => sel.union_with(&addition),
            slot @ None => *slot = Some(addition),
        }
    }

    fn union_with(&mut self, other: &MeshRequirements) {
        for assoc in [FieldAssociation::Point, FieldAssociation::Cell, FieldAssociation::Field] {
            if let Some(theirs) = other.selection(assoc) {
                match self.slot(assoc) {
                    Some(mine) => mine.union_with(theirs),
                    slot @ None => *slot = Some(theirs.clone()),
                }
            }
        }
    }
}

/// What a back-end needs from the simulation's published state:
/// everything (the safe default), or a subset keyed by mesh name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DataRequirements {
    /// Every array of every mesh — the behaviour of a plain deep copy.
    #[default]
    All,
    /// Only the listed meshes/arrays. Meshes absent from the map are not
    /// captured at all; an empty map means no data is needed.
    Subset(BTreeMap<String, MeshRequirements>),
}

impl DataRequirements {
    /// Everything (a full deep copy).
    pub fn all() -> Self {
        DataRequirements::All
    }

    /// Nothing — build the subset up with [`with_arrays`](Self::with_arrays)
    /// / [`with_mesh`](Self::with_mesh).
    pub fn none() -> Self {
        DataRequirements::Subset(BTreeMap::new())
    }

    /// Also require the named `arrays` with association `assoc` on `mesh`.
    /// No-op on [`All`](Self::All), which already covers them.
    pub fn with_arrays<S: Into<String>>(
        mut self,
        mesh: &str,
        assoc: FieldAssociation,
        arrays: impl IntoIterator<Item = S>,
    ) -> Self {
        if let DataRequirements::Subset(meshes) = &mut self {
            meshes
                .entry(mesh.to_string())
                .or_default()
                .add_named(assoc, arrays.into_iter().map(Into::into));
        }
        self
    }

    /// Also require every array of `mesh`.
    pub fn with_mesh(mut self, mesh: &str) -> Self {
        if let DataRequirements::Subset(meshes) = &mut self {
            meshes.insert(mesh.to_string(), MeshRequirements::all());
        }
        self
    }

    /// The requirements for the mesh named `name`; `None` when the mesh
    /// is not needed.
    pub fn mesh_requirements(&self, name: &str) -> Option<MeshRequirements> {
        match self {
            DataRequirements::All => Some(MeshRequirements::all()),
            DataRequirements::Subset(meshes) => meshes.get(name).cloned(),
        }
    }

    /// Widen `self` to also cover everything `other` requires. The bridge
    /// uses this to capture one snapshot serving every due back-end.
    pub fn union_with(&mut self, other: &DataRequirements) {
        match (&mut *self, other) {
            (DataRequirements::All, _) => {}
            (_, DataRequirements::All) => *self = DataRequirements::All,
            (DataRequirements::Subset(mine), DataRequirements::Subset(theirs)) => {
                for (mesh, req) in theirs {
                    match mine.get_mut(mesh) {
                        Some(m) => m.union_with(req),
                        None => {
                            mine.insert(mesh.clone(), req.clone());
                        }
                    }
                }
            }
        }
    }

    /// The mesh's name when exactly one mesh is required.
    pub fn single_mesh(&self) -> Option<&str> {
        match self {
            DataRequirements::Subset(meshes) if meshes.len() == 1 => {
                meshes.keys().next().map(String::as_str)
            }
            _ => None,
        }
    }

    /// True when nothing at all is required (no snapshot needed).
    pub fn is_empty(&self) -> bool {
        matches!(self, DataRequirements::Subset(m) if m.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_requires_everything() {
        let req = DataRequirements::default();
        let m = req.mesh_requirements("anything").unwrap();
        assert!(m.wants(FieldAssociation::Point, "x"));
        assert!(m.wants(FieldAssociation::Cell, "density"));
        assert!(!req.is_empty());
    }

    #[test]
    fn subset_selects_exactly_the_named_arrays() {
        let req =
            DataRequirements::none().with_arrays("bodies", FieldAssociation::Point, ["x", "y"]);
        let m = req.mesh_requirements("bodies").unwrap();
        assert!(m.wants(FieldAssociation::Point, "x"));
        assert!(!m.wants(FieldAssociation::Point, "mass"));
        assert!(!m.wants(FieldAssociation::Cell, "x"), "cell data not requested");
        assert!(req.mesh_requirements("grid").is_none(), "unlisted mesh skipped");
    }

    #[test]
    fn union_widens_and_all_absorbs() {
        let mut a = DataRequirements::none().with_arrays("m", FieldAssociation::Point, ["x"]);
        let b = DataRequirements::none().with_arrays("m", FieldAssociation::Point, ["y"]);
        a.union_with(&b);
        let m = a.mesh_requirements("m").unwrap();
        assert!(m.wants(FieldAssociation::Point, "x") && m.wants(FieldAssociation::Point, "y"));

        a.union_with(&DataRequirements::All);
        assert_eq!(a, DataRequirements::All);

        let mut c = DataRequirements::All;
        c.union_with(&DataRequirements::none());
        assert_eq!(c, DataRequirements::All);
    }

    #[test]
    fn whole_mesh_requirement_covers_every_association() {
        let req = DataRequirements::none().with_mesh("grid");
        let m = req.mesh_requirements("grid").unwrap();
        assert!(m.wants(FieldAssociation::Point, "anything"));
        assert!(m.wants(FieldAssociation::Cell, "anything"));
        assert!(req.mesh_requirements("other").is_none());
    }

    #[test]
    fn none_is_empty_until_something_is_added() {
        assert!(DataRequirements::none().is_empty());
        assert!(!DataRequirements::none().with_mesh("m").is_empty());
    }
}
