//! Simulation snapshots for asynchronous execution: deep-copied or
//! copy-on-write.
//!
//! The asynchronous execution method (§3/§4.3) "deep copies the relevant
//! data, launches a thread for in situ processing, and returns
//! immediately to the simulation". [`SnapshotAdaptor::capture`] is that
//! deep copy. The [`SnapshotPipeline`] selects between two strategies
//! per bridge:
//!
//! * **deep** — the paper's method: every selected array is deep-copied
//!   every capture and the capture synchronizes before returning.
//! * **cow** — nothing is copied at capture: every array is shared
//!   zero-copy behind a CoW pin, and only the arrays the producer
//!   actually overwrites while the snapshot is alive pay a fault copy.
//!
//! Both strategies capture the same stream-ordered contents (shares
//! drain the producer stream before pinning), so the analysis results
//! are bit-identical across modes; only the bytes moved and where the
//! waiting happens differ.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use devsim::{SimNode, Stream};
use hamr::HamrStream;
use svtk::{ArrayRef, DataArray, DataObject, FieldAssociation, MultiBlock, TableData};

use crate::adaptor::{ArrayMetadata, DataAdaptor, MeshMetadata};
use crate::counters::SnapshotCounters;
use crate::error::Result;
use crate::requirements::{DataRequirements, MeshRequirements};

/// How a bridge's snapshot layer captures the simulation's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Deep-copy every selected array on every capture (the baseline).
    #[default]
    Deep,
    /// Share every array zero-copy behind a CoW pin; copies happen
    /// lazily, only when the producer overwrites a pinned array.
    Cow,
}

impl SnapshotMode {
    /// The XML attribute value for this mode.
    pub fn name(&self) -> &'static str {
        match self {
            SnapshotMode::Deep => "deep",
            SnapshotMode::Cow => "cow",
        }
    }

    /// Parse an XML attribute value (`deep` or `cow`).
    pub fn parse(s: &str) -> Option<SnapshotMode> {
        match s {
            "deep" => Some(SnapshotMode::Deep),
            "cow" => Some(SnapshotMode::Cow),
            _ => None,
        }
    }
}

/// The bridge-owned snapshot strategy: mode, counters, the generation
/// table the write-rate observation diffs against, and the dedicated
/// per-device copy streams CoW-share fetches ride.
pub struct SnapshotPipeline {
    mode: SnapshotMode,
    counters: Arc<SnapshotCounters>,
    /// Last captured `(allocation_id, write_generation)` per array key
    /// (`mesh/block-path/association/name`), sampled under both modes
    /// purely as a write-rate observation, so the adaptive controller
    /// can read the workload's write rate regardless of the active mode.
    last: HashMap<String, (u64, u64)>,
    /// Arrays written / arrays seen at the capture in progress.
    cap_written: u64,
    cap_seen: u64,
    /// Arrays written / arrays seen at the last completed capture.
    last_written: (u64, u64),
    /// One dedicated copy stream per device, created lazily. Keeping
    /// the consumers' share fetches off the producer's streams is what
    /// lets them overlap the next solver step.
    copy_streams: HashMap<usize, Arc<Stream>>,
}

impl SnapshotPipeline {
    /// A pipeline capturing with `mode`.
    pub fn new(mode: SnapshotMode) -> Self {
        SnapshotPipeline {
            mode,
            counters: SnapshotCounters::new(),
            last: HashMap::new(),
            cap_written: 0,
            cap_seen: 0,
            last_written: (0, 0),
            copy_streams: HashMap::new(),
        }
    }

    /// The active capture mode.
    pub fn mode(&self) -> SnapshotMode {
        self.mode
    }

    /// Switch capture modes. The generation table is cleared, so the
    /// first capture under the new mode observes every array as written.
    pub fn set_mode(&mut self, mode: SnapshotMode) {
        if mode != self.mode {
            self.last.clear();
        }
        self.mode = mode;
    }

    /// The pipeline's snapshot counters (shared with every capture).
    pub fn counters(&self) -> &Arc<SnapshotCounters> {
        &self.counters
    }

    /// The share of arrays whose write generation advanced at the last
    /// capture, observed from the per-array generations the pipeline
    /// samples under both modes. `1.0` when nothing has been captured
    /// yet or no generations were visible (conservative: assume every
    /// array is rewritten every step). The first capture after a
    /// [`SnapshotPipeline::set_mode`] also reads `1.0` — the generation
    /// table is cleared on a mode switch.
    pub fn written_fraction(&self) -> f64 {
        let (w, n) = self.last_written;
        if n == 0 {
            1.0
        } else {
            w as f64 / n as f64
        }
    }

    /// Diff `identity` against the generation table, updating it, and
    /// count the array into the capture's write-rate observation.
    /// Untracked arrays (no generation) are conservatively "written".
    ///
    /// The sample is a pure observation: no drain first, so an enqueued
    /// producer kernel may read one step stale — acceptable for a
    /// write-rate signal, free for the capture.
    fn note_generation(&mut self, key: String, identity: Option<(u64, u64)>) {
        let changed = match identity {
            Some(id) => self.last.get(&key) != Some(&id),
            None => true,
        };
        if let Some(id) = identity {
            self.last.insert(key, id);
        }
        self.cap_seen += 1;
        self.cap_written += changed as u64;
    }

    fn copy_stream(&mut self, node: &Arc<SimNode>, device: usize) -> Result<Arc<Stream>> {
        if let Some(s) = self.copy_streams.get(&device) {
            return Ok(s.clone());
        }
        let s = node.device(device)?.create_stream();
        self.copy_streams.insert(device, s.clone());
        Ok(s)
    }

    /// Capture the state `requirements` selects from `src` under the
    /// active mode. Deep captures synchronize before returning; cow
    /// captures move no data.
    pub fn capture(
        &mut self,
        src: &dyn DataAdaptor,
        requirements: &DataRequirements,
        node: &Arc<SimNode>,
    ) -> Result<SnapshotAdaptor> {
        self.cap_written = 0;
        self.cap_seen = 0;
        let snapshot = match self.mode {
            SnapshotMode::Deep => SnapshotAdaptor::deep(src, requirements, &mut |key, arr| {
                self.note_generation(key, arr.generation_erased());
                self.counters.add_copied(1, (arr.len() * 8) as u64);
            })?,
            SnapshotMode::Cow => {
                let mut shared = Vec::new();
                let meshes = capture_meshes(src, requirements, &mut |key, arr| {
                    self.note_generation(key, arr.generation_erased());
                    self.share_or_copy(arr, node, &mut shared)
                })?;
                SnapshotAdaptor::over(src, meshes, shared)
            }
        };
        self.last_written = (self.cap_written, self.cap_seen);
        Ok(snapshot)
    }

    fn share_or_copy(
        &mut self,
        arr: &ArrayRef,
        node: &Arc<SimNode>,
        shared: &mut Vec<ArrayRef>,
    ) -> Result<ArrayRef> {
        // The pin freezes the array's current cells, so in-flight
        // producer kernel writes must land first for the share to hold
        // the same stream-ordered contents a deep copy would capture.
        arr.synchronize_erased()?;
        let stream = match arr.device() {
            Some(d) => HamrStream::new(self.copy_stream(node, d)?),
            None => HamrStream::default_stream(),
        };
        match arr.cow_share_erased(self.counters.pin_stats(), stream) {
            Some(share) => {
                self.counters.add_shared(1);
                shared.push(share.clone());
                Ok(share)
            }
            None => {
                // Array type without CoW support: fall back to an eager
                // stream-ordered deep copy (already synchronized above).
                self.counters.add_copied(1, (arr.len() * 8) as u64);
                Ok(arr.deep_copy_erased()?)
            }
        }
    }
}

/// A [`DataAdaptor`] over a captured copy (deep or CoW-shared) of
/// another adaptor's state, safe to hand to an in situ thread while the
/// simulation overwrites its own arrays.
pub struct SnapshotAdaptor {
    meshes: Vec<(String, DataObject)>,
    time: f64,
    step: u64,
    /// CoW-shared arrays; unpinned by the last consumer's
    /// [`SnapshotAdaptor::consumer_finished`] (or by a sole consumer's
    /// early [`DataAdaptor::release_shared`] hint), so later producer
    /// writes skip the fault copy.
    shared: Vec<ArrayRef>,
    /// Number of consumers (engines) still expected to read this
    /// snapshot; see [`SnapshotAdaptor::expect_consumers`]. Zero means
    /// no registration: a lone `release_shared` call unpins directly.
    consumers: AtomicUsize,
}

impl SnapshotAdaptor {
    /// Deep-copy the state published by `src`.
    ///
    /// All array copies are enqueued stream-ordered and synchronized once
    /// at the end — one wait instead of one per array, which is what
    /// keeps the apparent per-iteration cost of asynchronous execution
    /// in the few-millisecond range the paper reports.
    pub fn capture(src: &dyn DataAdaptor) -> Result<Self> {
        Self::capture_with(src, &DataRequirements::All)
    }

    /// Deep-copy only the state `requirements` asks for: meshes absent
    /// from the requirements are skipped entirely, and within a copied
    /// mesh only the selected arrays are duplicated. The snapshot's
    /// memory footprint and copy time scale with what the due back-ends
    /// declared, not with everything the simulation publishes.
    pub fn capture_with(src: &dyn DataAdaptor, requirements: &DataRequirements) -> Result<Self> {
        Self::deep(src, requirements, &mut |_, _| {})
    }

    /// The deep strategy; `observe` sees each selected array (with its
    /// generation-table key) before it is copied.
    fn deep(
        src: &dyn DataAdaptor,
        requirements: &DataRequirements,
        observe: &mut dyn FnMut(String, &ArrayRef),
    ) -> Result<Self> {
        let meshes = capture_meshes(src, requirements, &mut |key, arr| {
            observe(key, arr);
            Ok(arr.deep_copy_erased()?)
        })?;
        for (_, obj) in &meshes {
            synchronize_object(obj)?;
        }
        Ok(Self::over(src, meshes, Vec::new()))
    }

    fn over(
        src: &dyn DataAdaptor,
        meshes: Vec<(String, DataObject)>,
        shared: Vec<ArrayRef>,
    ) -> Self {
        SnapshotAdaptor {
            meshes,
            time: src.time(),
            step: src.time_step(),
            shared,
            consumers: AtomicUsize::new(0),
        }
    }

    /// Number of arrays this capture holds as CoW shares.
    pub fn num_shared(&self) -> usize {
        self.shared.len()
    }

    /// Declare that `n` consumers (engines) will read this snapshot.
    /// The bridge calls this with the number of due snapshot-consuming
    /// engines before handing the snapshot out; each engine then calls
    /// [`SnapshotAdaptor::consumer_finished`] exactly once when it is
    /// done, and the *last* one drops the CoW pins. While more than one
    /// registered consumer remains, [`DataAdaptor::release_shared`] is
    /// ignored — an engine that materializes its fetches early must not
    /// expose the other engines sharing this snapshot to post-capture
    /// producer writes.
    pub fn expect_consumers(&self, n: usize) {
        self.consumers.store(n, Ordering::Release);
    }

    /// One registered consumer is done with this snapshot (its analysis
    /// ran, retries included, or failed terminally). The last consumer
    /// to finish releases the CoW pins so later producer writes skip
    /// the fault copy.
    pub fn consumer_finished(&self) {
        let mut remaining = self.consumers.load(Ordering::Acquire);
        while remaining > 0 {
            match self.consumers.compare_exchange_weak(
                remaining,
                remaining - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if remaining == 1 {
                        self.release_pins();
                    }
                    return;
                }
                Err(seen) => remaining = seen,
            }
        }
    }

    fn release_pins(&self) {
        for arr in &self.shared {
            arr.release_cow_erased();
        }
    }

    fn metadata_of(&self, name: &str, obj: &DataObject) -> MeshMetadata {
        let mut arrays = Vec::new();
        match obj {
            DataObject::Table(t) => {
                for col in t.columns() {
                    arrays.push(array_md(col.as_ref(), FieldAssociation::Point));
                }
            }
            DataObject::Image(img) => {
                for assoc in [FieldAssociation::Point, FieldAssociation::Cell] {
                    for a in img.data(assoc).arrays() {
                        arrays.push(array_md(a.as_ref(), assoc));
                    }
                }
            }
            DataObject::Multi(mb) => {
                if let Some((_, first)) = mb.local_blocks().next() {
                    return self.metadata_of(name, first);
                }
            }
        }
        MeshMetadata { name: name.to_string(), arrays }
    }
}

fn assoc_key(assoc: FieldAssociation) -> &'static str {
    match assoc {
        FieldAssociation::Point => "point",
        FieldAssociation::Cell => "cell",
        FieldAssociation::Field => "field",
    }
}

/// Walk the meshes of `src` that `requirements` selects, capturing each
/// selected array with `capture` (see [`partial_copy`]).
fn capture_meshes(
    src: &dyn DataAdaptor,
    requirements: &DataRequirements,
    capture: &mut dyn FnMut(String, &ArrayRef) -> Result<ArrayRef>,
) -> Result<Vec<(String, DataObject)>> {
    let mut meshes = Vec::with_capacity(src.num_meshes());
    for i in 0..src.num_meshes() {
        let md = src.mesh_metadata(i)?;
        let Some(mesh_req) = requirements.mesh_requirements(&md.name) else {
            continue;
        };
        let obj = src.mesh(&md.name)?;
        let copied = partial_copy(&obj, &mesh_req, &md.name, capture)?;
        meshes.push((md.name, copied));
    }
    Ok(meshes)
}

/// Capture the arrays of `obj` that `req` selects, preserving the
/// dataset structure. Each selected array is passed to `capture` along
/// with a stable key (`mesh/block-path/association/name`) the
/// pipeline's generation table is indexed by. Table columns count as
/// point data.
fn partial_copy(
    obj: &DataObject,
    req: &MeshRequirements,
    path: &str,
    capture: &mut dyn FnMut(String, &ArrayRef) -> Result<ArrayRef>,
) -> Result<DataObject> {
    match obj {
        DataObject::Table(t) => {
            let mut copy = TableData::new();
            for col in t.columns() {
                if req.wants(FieldAssociation::Point, col.name()) {
                    copy.set_column(capture(format!("{path}/point/{}", col.name()), col)?);
                }
            }
            Ok(DataObject::Table(copy))
        }
        DataObject::Image(img) => {
            let mut copy = img.clone_structure();
            for assoc in [FieldAssociation::Point, FieldAssociation::Cell] {
                for arr in img.data(assoc).arrays() {
                    if req.wants(assoc, arr.name()) {
                        let key = format!("{path}/{}/{}", assoc_key(assoc), arr.name());
                        copy.data_mut(assoc).set_array(capture(key, arr)?);
                    }
                }
            }
            Ok(DataObject::Image(copy))
        }
        DataObject::Multi(mb) => {
            let mut copy = MultiBlock::new(mb.num_blocks());
            for (i, block) in mb.local_blocks() {
                copy.set_block(i, partial_copy(block, req, &format!("{path}/{i}"), capture)?);
            }
            Ok(DataObject::Multi(copy))
        }
    }
}

/// Wait for every in-flight copy feeding `obj`'s arrays. Streams that
/// are already idle return immediately, so after the first wait the rest
/// are free.
fn synchronize_object(obj: &DataObject) -> Result<()> {
    match obj {
        DataObject::Table(t) => {
            for col in t.columns() {
                col.synchronize_erased()?;
            }
        }
        DataObject::Image(img) => {
            for assoc in [FieldAssociation::Point, FieldAssociation::Cell] {
                for a in img.data(assoc).arrays() {
                    a.synchronize_erased()?;
                }
            }
        }
        DataObject::Multi(mb) => {
            for (_, block) in mb.local_blocks() {
                synchronize_object(block)?;
            }
        }
    }
    Ok(())
}

fn array_md(a: &dyn DataArray, association: FieldAssociation) -> ArrayMetadata {
    ArrayMetadata {
        name: a.name().to_string(),
        association,
        components: a.num_components(),
        type_name: a.type_name(),
        device: a.device(),
    }
}

impl DataAdaptor for SnapshotAdaptor {
    fn num_meshes(&self) -> usize {
        self.meshes.len()
    }

    fn mesh_metadata(&self, i: usize) -> Result<MeshMetadata> {
        let (name, obj) = &self.meshes[i];
        Ok(self.metadata_of(name, obj))
    }

    fn mesh(&self, name: &str) -> Result<DataObject> {
        self.meshes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, o)| o.clone())
            .ok_or_else(|| crate::Error::NoSuchMesh { name: name.to_string() })
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn time_step(&self) -> u64 {
        self.step
    }

    fn release_shared(&self) {
        // An early-release *hint* from an analysis that has materialized
        // all of its reads. Honored only when this consumer is the
        // snapshot's sole remaining reader (or the snapshot was never
        // registered with the bridge): with other consumers outstanding,
        // unpinning here would silently route their still-pending reads
        // to the live, possibly overwritten cells. Ignored hints cost
        // nothing — the pins drop with the last `consumer_finished`.
        if self.consumers.load(Ordering::Acquire) <= 1 {
            self.release_pins();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::{NodeConfig, SimNode};
    use std::sync::Arc;
    use svtk::{Allocator, HamrDataArray, HamrStream, StreamMode, TableData};

    /// A toy simulation-side adaptor for tests.
    struct ToySim {
        table: TableData,
        step: u64,
    }

    impl ToySim {
        fn new(node: Arc<SimNode>) -> Self {
            Self::on(node, Some(0))
        }

        /// `device: None` places the column on the host (writable from
        /// the test thread via host views); `Some(d)` on device `d`.
        fn on(node: Arc<SimNode>, device: Option<usize>) -> Self {
            let mut table = TableData::new();
            let x = HamrDataArray::<f64>::from_slice(
                "x",
                node.clone(),
                &[1.0, 2.0, 3.0],
                1,
                if device.is_some() { Allocator::Cuda } else { Allocator::Malloc },
                device,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(x.as_array_ref());
            ToySim { table, step: 7 }
        }

        fn column(&self) -> ArrayRef {
            self.table.column("x").unwrap().clone()
        }

        /// Overwrite every element of the (host-resident) column.
        fn write_all(&self, v: f64) {
            let cells = svtk::downcast::<f64>(self.table.column("x").unwrap()).unwrap().data();
            let view = cells.host_f64().unwrap();
            for i in 0..view.len() {
                view.set(i, v);
            }
        }
    }

    fn values(arr: &ArrayRef) -> Vec<f64> {
        svtk::downcast::<f64>(arr).unwrap().to_vec().unwrap()
    }

    fn cells(arr: &ArrayRef) -> devsim::CellBuffer {
        svtk::downcast::<f64>(arr).unwrap().data()
    }

    fn snapshot_column(snap: &SnapshotAdaptor) -> ArrayRef {
        snap.mesh("bodies").unwrap().as_table().unwrap().column("x").unwrap().clone()
    }

    impl DataAdaptor for ToySim {
        fn num_meshes(&self) -> usize {
            1
        }
        fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
            Ok(MeshMetadata {
                name: "bodies".into(),
                arrays: self
                    .table
                    .columns()
                    .iter()
                    .map(|c| array_md(c.as_ref(), FieldAssociation::Point))
                    .collect(),
            })
        }
        fn mesh(&self, name: &str) -> Result<DataObject> {
            if name == "bodies" {
                Ok(DataObject::Table(self.table.clone()))
            } else {
                Err(crate::Error::NoSuchMesh { name: name.into() })
            }
        }
        fn time(&self) -> f64 {
            0.5
        }
        fn time_step(&self) -> u64 {
            self.step
        }
    }

    #[test]
    fn capture_deep_copies_every_array() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::new(node);
        let snap = SnapshotAdaptor::capture(&sim).unwrap();
        assert_eq!(snap.num_meshes(), 1);
        assert_eq!(snap.time(), 0.5);
        assert_eq!(snap.time_step(), 7);

        let oh = sim.column();
        let ch = snapshot_column(&snap);
        assert!(!cells(&oh).same_allocation(&cells(&ch)), "snapshot must not alias");
        assert_eq!(values(&ch), vec![1.0, 2.0, 3.0]);
        // Placement preserved: copy stays on the same device.
        assert_eq!(ch.device(), Some(0));
    }

    #[test]
    fn snapshot_metadata_describes_the_copy() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::new(node);
        let snap = SnapshotAdaptor::capture(&sim).unwrap();
        let md = snap.mesh_metadata(0).unwrap();
        assert_eq!(md.name, "bodies");
        assert_eq!(md.arrays.len(), 1);
        assert_eq!(md.arrays[0].name, "x");
        assert_eq!(md.arrays[0].type_name, "double");
        assert_eq!(md.arrays[0].device, Some(0));
    }

    #[test]
    fn capture_with_skips_unrequested_meshes_and_arrays() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::new(node);

        // Mesh not in the requirements: skipped entirely.
        let none = DataRequirements::none();
        let snap = SnapshotAdaptor::capture_with(&sim, &none).unwrap();
        assert_eq!(snap.num_meshes(), 0);
        assert_eq!(snap.time_step(), 7, "time/step still captured");

        // Mesh requested but with a different column name: structure
        // copied, array left out.
        let other =
            DataRequirements::none().with_arrays("bodies", FieldAssociation::Point, ["nope"]);
        let snap = SnapshotAdaptor::capture_with(&sim, &other).unwrap();
        assert_eq!(snap.num_meshes(), 1);
        assert_eq!(snap.mesh_metadata(0).unwrap().arrays.len(), 0);

        // The requested column is a real deep copy.
        let x_only = DataRequirements::none().with_arrays("bodies", FieldAssociation::Point, ["x"]);
        let snap = SnapshotAdaptor::capture_with(&sim, &x_only).unwrap();
        assert_eq!(values(&snapshot_column(&snap)), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn unknown_mesh_is_an_error() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let snap = SnapshotAdaptor::capture(&ToySim::new(node)).unwrap();
        assert!(matches!(snap.mesh("nope"), Err(crate::Error::NoSuchMesh { .. })));
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [SnapshotMode::Deep, SnapshotMode::Cow] {
            assert_eq!(SnapshotMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(SnapshotMode::parse("shallow"), None);
        assert_eq!(SnapshotMode::parse("delta"), None, "the removed third mode");
        assert_eq!(SnapshotMode::default(), SnapshotMode::Deep);
    }

    #[test]
    fn cow_capture_shares_then_faults_on_producer_write() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();

        let oh = sim.column();
        let ch = snapshot_column(&snap);
        assert!(cells(&oh).same_allocation(&cells(&ch)), "cow share must alias");
        assert_eq!(snap.num_shared(), 1);
        let c = pipeline.counters().snapshot();
        assert_eq!((c.arrays_shared, c.arrays_copied, c.cow_faults), (1, 0, 0));
        assert_eq!(c.bytes_copied, 0, "a cow capture moves no bytes");

        // Producer overwrites the pinned array: lazy fault copy, the
        // snapshot keeps reading the pinned contents.
        sim.write_all(9.0);
        assert_eq!(values(&ch), vec![1.0, 2.0, 3.0]);
        assert_eq!(values(&oh), vec![9.0, 9.0, 9.0]);
        let c = pipeline.counters().snapshot();
        assert_eq!(c.cow_faults, 1);
        assert_eq!(c.bytes_copied, 24, "the fault copied one 3-element array");
    }

    #[test]
    fn shared_snapshot_stays_pinned_until_last_consumer_releases() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        snap.expect_consumers(2);
        let ch = snapshot_column(&snap);

        // The first consumer's early-release hint must be ignored and
        // its finish must keep the pins: a producer write still takes
        // the fault copy, and the second consumer keeps reading the
        // pinned (pre-write) contents.
        snap.release_shared();
        snap.consumer_finished();
        sim.write_all(9.0);
        assert_eq!(values(&ch), vec![1.0, 2.0, 3.0], "second consumer sees the pinned state");
        assert_eq!(pipeline.counters().snapshot().cow_faults, 1);
    }

    #[test]
    fn shared_snapshot_unpins_after_every_consumer_finishes() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        snap.expect_consumers(2);
        snap.consumer_finished();
        snap.consumer_finished();
        sim.write_all(9.0);
        assert_eq!(pipeline.counters().snapshot().cow_faults, 0, "fully released: no fault");
    }

    #[test]
    fn sole_consumer_early_release_still_skips_the_fault() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        snap.expect_consumers(1);
        // With a single registered consumer the hint is safe and keeps
        // the benchmark's steady-state fault set small.
        snap.release_shared();
        sim.write_all(9.0);
        assert_eq!(pipeline.counters().snapshot().cow_faults, 0);
        snap.consumer_finished();
    }

    #[test]
    fn released_cow_share_skips_the_fault_copy() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        snap.release_shared();
        sim.write_all(9.0);
        assert_eq!(pipeline.counters().snapshot().cow_faults, 0);
    }

    #[test]
    fn deep_pipeline_counts_every_copy() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::new(node.clone());
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Deep);
        for _ in 0..3 {
            let snap = pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
            assert_eq!(values(&snapshot_column(&snap)), vec![1.0, 2.0, 3.0]);
        }
        let c = pipeline.counters().snapshot();
        assert_eq!((c.arrays_shared, c.arrays_copied), (0, 3));
        assert_eq!(c.bytes_copied, 72);
    }

    #[test]
    fn set_mode_clears_the_generation_table() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = ToySim::on(node.clone(), None);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        assert_eq!(pipeline.written_fraction(), 1.0, "nothing captured yet");
        pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        assert_eq!(pipeline.written_fraction(), 1.0, "first sight of the allocation");
        pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        assert_eq!(pipeline.written_fraction(), 0.0, "generation unchanged");
        pipeline.set_mode(SnapshotMode::Cow);
        pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        assert_eq!(pipeline.written_fraction(), 0.0, "same mode: table kept");
        // After a real switch the next capture reads every array as
        // written again.
        pipeline.set_mode(SnapshotMode::Deep);
        pipeline.capture(&sim, &DataRequirements::All, &node).unwrap();
        assert_eq!(pipeline.written_fraction(), 1.0);
    }
}
