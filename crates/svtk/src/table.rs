//! Tabular data: columns of co-occurring values.
//!
//! The data-binning analysis (§4.2) consumes "tabular data where columns
//! represent different variables and rows represent co-occurring
//! measurements or realizations of these variables". Newton++ publishes
//! its bodies this way: one row per body, columns `x, y, z, vx, vy, vz,
//! mass, ...`, each column a heterogeneous array that may live on a
//! device.

use crate::attributes::FieldData;
use crate::data_array::ArrayRef;

/// A table of equally long columns.
#[derive(Default, Clone, Debug)]
pub struct TableData {
    columns: FieldData,
    rows: usize,
}

impl TableData {
    /// An empty table.
    pub fn new() -> Self {
        TableData::default()
    }

    /// Add (or replace) a column.
    ///
    /// # Panics
    /// Panics if the column's tuple count differs from existing columns;
    /// a table's columns are co-occurring rows by definition.
    pub fn set_column(&mut self, array: ArrayRef) {
        let tuples = array.num_tuples();
        if self.columns.is_empty()
            || (self.columns.len() == 1 && self.columns.array(array.name()).is_some())
        {
            self.rows = tuples;
        } else {
            assert_eq!(
                tuples,
                self.rows,
                "column '{}' has {} rows, table has {}",
                array.name(),
                tuples,
                self.rows
            );
        }
        self.columns.set_array(array);
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&ArrayRef> {
        self.columns.array(name)
    }

    /// Column names in insertion order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.names().collect()
    }

    /// All columns.
    pub fn columns(&self) -> &[ArrayRef] {
        self.columns.arrays()
    }

    /// Number of rows (0 for an empty table).
    pub fn num_rows(&self) -> usize {
        if self.columns.is_empty() {
            0
        } else {
            self.rows
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamr_array::HamrDataArray;
    use crate::{Allocator, HamrStream, StreamMode};
    use devsim::{NodeConfig, SimNode};
    use std::sync::Arc;

    fn arr(node: &Arc<SimNode>, name: &str, v: &[f64]) -> ArrayRef {
        HamrDataArray::from_slice(
            name,
            node.clone(),
            v,
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap()
    }

    #[test]
    fn builds_a_consistent_table() {
        let n = SimNode::new(NodeConfig::fast_test(1));
        let mut t = TableData::new();
        assert_eq!(t.num_rows(), 0);
        t.set_column(arr(&n, "x", &[1.0, 2.0, 3.0]));
        t.set_column(arr(&n, "mass", &[0.1, 0.2, 0.3]));
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_names(), vec!["x", "mass"]);
        assert!(t.column("mass").is_some());
    }

    #[test]
    #[should_panic(expected = "has 2 rows, table has 3")]
    fn rejects_mismatched_column_lengths() {
        let n = SimNode::new(NodeConfig::fast_test(1));
        let mut t = TableData::new();
        t.set_column(arr(&n, "x", &[1.0, 2.0, 3.0]));
        t.set_column(arr(&n, "y", &[1.0, 2.0]));
    }

    #[test]
    fn replacing_the_only_column_may_resize() {
        let n = SimNode::new(NodeConfig::fast_test(1));
        let mut t = TableData::new();
        t.set_column(arr(&n, "x", &[1.0, 2.0]));
        t.set_column(arr(&n, "x", &[1.0, 2.0, 3.0]));
        assert_eq!(t.num_rows(), 3);
    }
}
