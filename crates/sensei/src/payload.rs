//! Step-result serialization: the host representation of one step's
//! tabular data, as the live serving layer ([`crate::serve`]) ships it
//! out of the bridge — the published mesh flattened to named double
//! columns plus the step/time stamp.

use svtk::DataObject;

use crate::adaptor::DataAdaptor;
use crate::error::{Error, Result};

/// A serialized step result: one mesh's double columns on the host.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepPayload {
    /// Simulation step the data belongs to.
    pub step: u64,
    /// Simulation time at that step.
    pub time: f64,
    /// Named columns, in publication order.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl StepPayload {
    /// Serialize `mesh` out of a data adaptor (downloads to host).
    pub fn from_data(data: &dyn DataAdaptor, mesh: &str) -> Result<StepPayload> {
        let obj = data.mesh(mesh)?;
        Self::from_object(&obj, data.time_step(), data.time())
    }

    /// Serialize an already-fetched data object.
    pub fn from_object(obj: &DataObject, step: u64, time: f64) -> Result<StepPayload> {
        let mut columns = Vec::new();
        collect_columns(obj, &mut columns)?;
        Ok(StepPayload { step, time, columns })
    }

    /// Payload size in bytes (the cost of one *copy* of this step).
    pub fn bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|(name, values)| name.len() + values.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

/// Flatten a data object's double columns into `out` (tables directly,
/// multi-blocks recursively, anything else is an error — serialized
/// step results are tabular by contract).
pub fn collect_columns(obj: &DataObject, out: &mut Vec<(String, Vec<f64>)>) -> Result<()> {
    match obj {
        DataObject::Table(t) => {
            for col in t.columns() {
                let typed = svtk::downcast::<f64>(col).ok_or_else(|| {
                    Error::Analysis(format!(
                        "step payloads support double columns; '{}' is {}",
                        col.name(),
                        col.type_name()
                    ))
                })?;
                out.push((col.name().to_string(), typed.to_vec()?));
            }
        }
        DataObject::Multi(mb) => {
            for (_, block) in mb.local_blocks() {
                collect_columns(block, out)?;
            }
        }
        other => {
            return Err(Error::Analysis(format!(
                "step payloads carry tabular data, got {}",
                other.class_name()
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use devsim::{NodeConfig, SimNode};
    use svtk::TableData;

    fn node() -> Arc<SimNode> {
        SimNode::new(NodeConfig::default())
    }

    fn table(node: &Arc<SimNode>, cols: &[(&str, &[f64])]) -> TableData {
        let mut t = TableData::new();
        for (name, values) in cols {
            let arr = svtk::HamrDataArray::<f64>::from_slice(
                (*name).to_string(),
                node.clone(),
                values,
                1,
                svtk::Allocator::Malloc,
                None,
                svtk::HamrStream::default_stream(),
                svtk::StreamMode::Sync,
            )
            .expect("host array");
            t.set_column(arr.as_array_ref());
        }
        t
    }

    #[test]
    fn payload_carries_the_stamp_and_every_column() {
        let node = node();
        let src = table(&node, &[("x", &[1.0, 2.0, 3.0]), ("m", &[0.5, 0.25, 0.125])]);
        let p = StepPayload::from_object(&DataObject::Table(src), 7, 0.5).expect("serialize");
        assert_eq!(p.step, 7);
        assert_eq!(p.time, 0.5);
        assert_eq!(p.bytes(), (1 + 3 * 8) * 2, "name bytes + 3 doubles, per column");
        assert_eq!(
            p.columns,
            [("x".to_string(), vec![1.0, 2.0, 3.0]), ("m".to_string(), vec![0.5, 0.25, 0.125])]
        );
    }

    #[test]
    fn multi_block_columns_flatten_in_block_order() {
        let node = node();
        let mut mb = svtk::MultiBlock::new(2);
        mb.set_block(0, DataObject::Table(table(&node, &[("a", &[1.0])])));
        mb.set_block(1, DataObject::Table(table(&node, &[("b", &[2.0]), ("c", &[3.0])])));
        let p = StepPayload::from_object(&DataObject::Multi(mb), 0, 0.0).expect("serialize");
        let names: Vec<&str> = p.columns.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn non_tabular_objects_are_rejected() {
        let img = svtk::ImageData::from_bounds([1, 1, 1], [0.0; 3], [1.0; 3]);
        let err = StepPayload::from_object(&DataObject::Image(img), 0, 0.0).unwrap_err();
        assert!(err.to_string().contains("tabular"), "unexpected error: {err}");
    }
}
