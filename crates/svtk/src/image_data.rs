//! Uniform Cartesian meshes (VTK's `vtkImageData`).
//!
//! Data binning "specifies a subset of the variables to use as the
//! coordinate axes of a uniform Cartesian mesh" (§4.2); the binned result
//! is cell data on such a mesh. We support 1-, 2-, and 3-dimensional
//! meshes (trailing dimensions of extent 1).

use crate::attributes::{FieldAssociation, FieldData};

/// A uniform Cartesian mesh with point and cell data.
#[derive(Clone, Debug)]
pub struct ImageData {
    /// Points per axis (cells per axis + 1).
    dims: [usize; 3],
    /// Coordinate of point (0,0,0).
    origin: [f64; 3],
    /// Grid spacing per axis.
    spacing: [f64; 3],
    point_data: FieldData,
    cell_data: FieldData,
}

impl ImageData {
    /// A mesh with `cells` cells per axis spanning `[lo, hi]` per axis.
    ///
    /// # Panics
    /// Panics if any axis has zero cells or an inverted/degenerate range.
    pub fn from_bounds(cells: [usize; 3], lo: [f64; 3], hi: [f64; 3]) -> Self {
        let mut spacing = [0.0; 3];
        for a in 0..3 {
            assert!(cells[a] > 0, "axis {a} must have at least one cell");
            assert!(hi[a] > lo[a], "axis {a} range [{}, {}] is degenerate", lo[a], hi[a]);
            spacing[a] = (hi[a] - lo[a]) / cells[a] as f64;
        }
        ImageData {
            dims: [cells[0] + 1, cells[1] + 1, cells[2] + 1],
            origin: lo,
            spacing,
            point_data: FieldData::new(),
            cell_data: FieldData::new(),
        }
    }

    /// Points per axis.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Cells per axis.
    pub fn cell_dims(&self) -> [usize; 3] {
        [self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1]
    }

    /// Coordinate origin (point 0,0,0).
    pub fn origin(&self) -> [f64; 3] {
        self.origin
    }

    /// Grid spacing per axis.
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }

    /// Axis-aligned bounds as `(lo, hi)`.
    pub fn bounds(&self) -> ([f64; 3], [f64; 3]) {
        let cd = self.cell_dims();
        let hi = [
            self.origin[0] + self.spacing[0] * cd[0] as f64,
            self.origin[1] + self.spacing[1] * cd[1] as f64,
            self.origin[2] + self.spacing[2] * cd[2] as f64,
        ];
        (self.origin, hi)
    }

    /// Total number of points.
    pub fn num_points(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        let cd = self.cell_dims();
        cd[0] * cd[1] * cd[2]
    }

    /// Flat cell index from per-axis cell coordinates (x fastest).
    pub fn cell_index(&self, ijk: [usize; 3]) -> usize {
        let cd = self.cell_dims();
        debug_assert!(ijk[0] < cd[0] && ijk[1] < cd[1] && ijk[2] < cd[2]);
        (ijk[2] * cd[1] + ijk[1]) * cd[0] + ijk[0]
    }

    /// Cell coordinates containing a physical point; `None` outside the
    /// mesh. Points exactly on the upper boundary land in the last cell,
    /// matching the binning convention.
    pub fn locate(&self, p: [f64; 3]) -> Option<[usize; 3]> {
        let cd = self.cell_dims();
        let mut ijk = [0usize; 3];
        for a in 0..3 {
            let t = (p[a] - self.origin[a]) / self.spacing[a];
            if t < 0.0 {
                return None;
            }
            let mut i = t.floor() as usize;
            if i >= cd[a] {
                // Upper-boundary inclusion.
                let hi = self.origin[a] + self.spacing[a] * cd[a] as f64;
                if p[a] <= hi {
                    i = cd[a] - 1;
                } else {
                    return None;
                }
            }
            ijk[a] = i;
        }
        Some(ijk)
    }

    /// A copy of the mesh geometry with no attached data arrays.
    pub fn clone_structure(&self) -> ImageData {
        ImageData {
            dims: self.dims,
            origin: self.origin,
            spacing: self.spacing,
            point_data: FieldData::new(),
            cell_data: FieldData::new(),
        }
    }

    /// Data centered on the given association.
    pub fn data(&self, assoc: FieldAssociation) -> &FieldData {
        match assoc {
            FieldAssociation::Point => &self.point_data,
            FieldAssociation::Cell | FieldAssociation::Field => &self.cell_data,
        }
    }

    /// Mutable data for the given association.
    pub fn data_mut(&mut self, assoc: FieldAssociation) -> &mut FieldData {
        match assoc {
            FieldAssociation::Point => &mut self.point_data,
            FieldAssociation::Cell | FieldAssociation::Field => &mut self.cell_data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2d() -> ImageData {
        ImageData::from_bounds([4, 2, 1], [0.0, 0.0, 0.0], [4.0, 1.0, 1.0])
    }

    #[test]
    fn dimensions_and_counts() {
        let g = grid2d();
        assert_eq!(g.dims(), [5, 3, 2]);
        assert_eq!(g.cell_dims(), [4, 2, 1]);
        assert_eq!(g.num_points(), 30);
        assert_eq!(g.num_cells(), 8);
        assert_eq!(g.spacing(), [1.0, 0.5, 1.0]);
    }

    #[test]
    fn bounds_roundtrip() {
        let g = grid2d();
        let (lo, hi) = g.bounds();
        assert_eq!(lo, [0.0, 0.0, 0.0]);
        assert_eq!(hi, [4.0, 1.0, 1.0]);
    }

    #[test]
    fn cell_index_is_x_fastest() {
        let g = grid2d();
        assert_eq!(g.cell_index([0, 0, 0]), 0);
        assert_eq!(g.cell_index([1, 0, 0]), 1);
        assert_eq!(g.cell_index([0, 1, 0]), 4);
        assert_eq!(g.cell_index([3, 1, 0]), 7);
    }

    #[test]
    fn locate_interior_boundary_and_outside() {
        let g = grid2d();
        assert_eq!(g.locate([0.5, 0.25, 0.5]), Some([0, 0, 0]));
        assert_eq!(g.locate([3.99, 0.99, 0.5]), Some([3, 1, 0]));
        // Upper boundary inclusive.
        assert_eq!(g.locate([4.0, 1.0, 1.0]), Some([3, 1, 0]));
        // Outside.
        assert_eq!(g.locate([-0.1, 0.5, 0.5]), None);
        assert_eq!(g.locate([4.1, 0.5, 0.5]), None);
        assert_eq!(g.locate([1.0, 1.5, 0.5]), None);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_bounds_rejected() {
        ImageData::from_bounds([2, 2, 1], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        ImageData::from_bounds([0, 2, 1], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
    }
}
