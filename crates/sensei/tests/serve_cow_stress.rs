//! CoW pin refcount stress for the serving layer: hundreds of sessions
//! attach and detach across steps while the hub holds each step's
//! snapshot pinned through [`StepPin`]s attached to delivered frames.
//!
//! Three invariants are pinned down:
//!
//! * a frame held across the producer's next write keeps reading the
//!   step it was published for (the pin forces the fault copy);
//! * when the last holder of a step's pin lets go, the pin refcount
//!   reaches zero and the CoW pins are released;
//! * after release, a late producer write never observes a shared view
//!   — it faults no copy, because nothing is pinned any more.

use std::cell::Cell;
use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use sensei::{
    ArrayMetadata, DataAdaptor, DataRequirements, Frame, MeshMetadata, OverflowPolicy, Result,
    ServeHub, SessionConfig, SnapshotMode, SnapshotPipeline, StepPayload, StepPin, Topic,
};
use svtk::{
    downcast, Allocator, DataObject, FieldAssociation, HamrDataArray, HamrStream, StreamMode,
    TableData,
};

const LEN: usize = 16;
const STEPS: u64 = 12;
/// Sessions alive at any moment ("hundreds").
const SESSIONS: usize = 240;
/// Sessions replaced (detach + attach) every step.
const CHURN: usize = 40;

/// A solver stand-in publishing one host column it overwrites in place.
struct ToySolver {
    table: TableData,
    step: Cell<u64>,
}

impl ToySolver {
    fn new(node: &Arc<SimNode>) -> Self {
        let col = HamrDataArray::<f64>::from_slice(
            "x",
            node.clone(),
            &expected(0),
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let mut table = TableData::new();
        table.set_column(col.as_array_ref());
        ToySolver { table, step: Cell::new(0) }
    }

    /// Advance to `step`: overwrite every cell through a write-intent
    /// host view (the path that faults any unresolved CoW pin).
    fn fill(&self, step: u64) {
        self.step.set(step);
        let cells = downcast::<f64>(self.table.column("x").unwrap()).unwrap().data();
        let view = cells.host_f64().unwrap();
        for (j, v) in expected(step).into_iter().enumerate() {
            view.set(j, v);
        }
    }
}

impl DataAdaptor for ToySolver {
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
                .map(|c| ArrayMetadata {
                    name: c.name().to_string(),
                    association: FieldAssociation::Point,
                    components: c.num_components(),
                    type_name: c.type_name(),
                    device: c.device(),
                })
                .collect(),
        })
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        if name == "bodies" {
            Ok(DataObject::Table(self.table.clone()))
        } else {
            Err(sensei::Error::NoSuchMesh { name: name.into() })
        }
    }
    fn time(&self) -> f64 {
        self.step.get() as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step.get()
    }
}

/// The column contents at `step`.
fn expected(step: u64) -> Vec<f64> {
    (0..LEN).map(|j| (step * 100 + j as u64) as f64).collect()
}

/// Read the column back through a frame's pinned snapshot.
fn pinned_values(pin: &StepPin) -> Vec<f64> {
    let table = pin.adaptor().mesh("bodies").unwrap();
    let col = table.as_table().unwrap().column("x").unwrap().clone();
    downcast::<f64>(&col).unwrap().to_vec().unwrap()
}

#[test]
fn hundreds_of_churning_sessions_release_every_pin() {
    let node = SimNode::new(NodeConfig::fast_test(1));
    let solver = ToySolver::new(&node);
    let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
    let hub = ServeHub::new(false);
    let config = SessionConfig { queue_depth: 2, overflow: OverflowPolicy::DropOldest };

    let mut handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            // Mix exact-variable and wildcard topics; both match.
            let topic = if i % 2 == 0 { Topic::new("x", "x:y") } else { Topic::new("*", "x:y") };
            hub.subscribe(topic, config)
        })
        .collect();

    // Frames held from the previous step, across the producer's write.
    let mut held: Vec<Frame> = Vec::new();

    for step in 0..STEPS {
        solver.fill(step);

        // The write above landed while the previous step's frames still
        // pin its snapshot: every held view must keep reading the step
        // it was published for, never the overwritten cells.
        if step > 0 {
            let want = expected(step - 1);
            for frame in &held {
                assert_eq!(frame.step(), step - 1);
                let pin = frame.pin.as_ref().expect("frames carry the step's pin");
                assert_eq!(pinned_values(pin), want, "pinned view isolated from late write");
                let (name, values) = &frame.payload.columns[0];
                assert_eq!(name, "x");
                assert_eq!(values, &want, "payload serialized the pinned step");
            }
        }
        // Drop the previous step's frames; the hub still holds its pin
        // until `offer_snapshot` below replaces it.
        held.clear();

        let cow = pipeline.capture(&solver, &DataRequirements::All, &node).unwrap();
        // The session pool is the snapshot's sole registered consumer;
        // its one `consumer_finished` is paid by the last pin drop.
        cow.expect_consumers(1);
        let snap = Arc::new(cow);
        hub.offer_snapshot(&snap);

        // Churn: a batch of sessions detaches, a fresh batch attaches.
        if step > 0 {
            handles.drain(..CHURN);
            handles.extend((0..CHURN).map(|_| hub.subscribe(Topic::new("*", "x:y"), config)));
        }

        let payload = StepPayload::from_data(snap.as_ref(), "bodies").unwrap();
        let stats = hub.publish("x:y", payload);
        assert_eq!(stats.delivered, handles.len() as u64, "every session matched at step {step}");
        assert_eq!(stats.dropped, 0, "queues drained every step");
        assert_eq!(stats.payload_bytes, 1 + (LEN as u64) * 8, "one serialization per step");

        for h in &mut handles {
            held.push(h.try_recv().expect("one frame per session per step"));
        }
    }

    // Captures shared, never copied eagerly.
    let c = pipeline.counters().snapshot();
    assert_eq!(c.arrays_copied, 0, "cow captures copy nothing eagerly");
    assert_eq!(c.arrays_shared, STEPS, "one shared column per step");

    // Teardown in client order: frames, sessions, then the hub's own
    // pin on the final step. After this every StepPin refcount has hit
    // zero, which paid every snapshot's `consumer_finished`.
    held.clear();
    handles.clear();
    hub.shutdown();
    assert_eq!(hub.session_count(), 0);

    // A late writer must not observe any shared view: with all pins
    // released, the overwrite faults no copy.
    let faults_before = pipeline.counters().snapshot().cow_faults;
    solver.fill(STEPS + 1000);
    let faults_after = pipeline.counters().snapshot().cow_faults;
    assert_eq!(faults_after, faults_before, "late write hit a still-pinned snapshot");

    let s = hub.counter_snapshot();
    assert_eq!(s.subscribed, (SESSIONS + CHURN * (STEPS as usize - 1)) as u64);
    assert_eq!(s.unsubscribed, s.subscribed, "every attach was matched by a detach");
    assert_eq!(s.delivered, (SESSIONS as u64) * STEPS);
    assert_eq!(s.dropped, 0);
}
