//! Property tests on the memory resource: any data, any allocator, any
//! access path — the bytes always survive.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use hamr::{Allocator, HamrBuffer, HamrStream, Pm, StreamMode};
use proptest::prelude::*;

fn node() -> Arc<SimNode> {
    SimNode::new(NodeConfig::fast_test(2))
}

fn allocator_strategy() -> impl Strategy<Value = Allocator> {
    proptest::sample::select(Allocator::ALL.to_vec())
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Any bit pattern except NaN (NaN breaks equality comparison, not the
    // storage; NaN round-tripping is covered by unit tests).
    proptest::num::f64::ANY.prop_filter("finite or inf", |v| !v.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// from_slice -> to_vec is the identity for every allocator.
    #[test]
    fn roundtrip_through_any_allocator(
        data in proptest::collection::vec(finite_f64(), 0..64),
        alloc in allocator_strategy(),
    ) {
        let n = node();
        let device = if alloc.is_device() { Some(0) } else { None };
        let stream = if alloc.is_stream_ordered() {
            HamrStream::new(n.device(0).unwrap().create_stream())
        } else {
            HamrStream::default_stream()
        };
        let buf = HamrBuffer::<f64>::from_slice(n, &data, alloc, device, stream, StreamMode::Sync)
            .unwrap();
        prop_assert_eq!(buf.to_vec().unwrap(), data);
    }

    /// The data read through *any* access path equals the managed data.
    #[test]
    fn every_access_path_sees_the_same_bytes(
        data in proptest::collection::vec(finite_f64(), 1..48),
        target_dev in 0usize..2,
        pm in proptest::sample::select(vec![Pm::Cuda, Pm::Hip, Pm::OpenMp, Pm::Sycl, Pm::Kokkos]),
    ) {
        let n = node();
        let buf = HamrBuffer::<f64>::from_slice(
            n.clone(), &data, Allocator::OpenMp, Some(0),
            HamrStream::default_stream(), StreamMode::Sync,
        ).unwrap();

        // Host path.
        let hv = buf.host_accessible().unwrap();
        buf.synchronize().unwrap();
        prop_assert_eq!(hv.to_vec().unwrap(), data.clone());

        // Device path: move (or not) to `target_dev` under any PM, then
        // read back through a stream copy.
        let dv = buf.device_accessible(target_dev, pm).unwrap();
        buf.synchronize().unwrap();
        prop_assert_eq!(dv.is_direct(), target_dev == 0);
        let host = n.host_alloc_f64(data.len());
        let stream = n.device(target_dev).unwrap().default_stream();
        stream.copy(dv.cells(), &host).unwrap();
        stream.synchronize().unwrap();
        prop_assert_eq!(host.host_f64().unwrap().to_vec(), data);
    }

    /// Zero-copy invariant: same-device access never allocates or copies,
    /// regardless of the requesting PM.
    #[test]
    fn same_device_access_is_always_free(
        len in 1usize..64,
        pm in proptest::sample::select(vec![Pm::Cuda, Pm::Hip, Pm::OpenMp, Pm::Sycl, Pm::Kokkos]),
    ) {
        let n = node();
        let buf = HamrBuffer::<f64>::new_init(
            n.clone(), len, 1.5, Allocator::Cuda, Some(1),
            HamrStream::default_stream(), StreamMode::Sync,
        ).unwrap();
        let copies_before = n.stats().total_copies();
        let used_before = n.device(1).unwrap().used_bytes();
        let view = buf.device_accessible(1, pm).unwrap();
        prop_assert!(view.is_direct());
        prop_assert_eq!(n.stats().total_copies(), copies_before);
        prop_assert_eq!(n.device(1).unwrap().used_bytes(), used_before);
    }

    /// A second identical cross-space access is a replica hit: the block
    /// the first one filled outlives its view, so nothing is copied and
    /// the pool is not asked for anything.
    #[test]
    fn repeat_access_is_a_replica_hit_without_copy_or_pool_request(
        data in proptest::collection::vec(finite_f64(), 1..96),
        pm in proptest::sample::select(vec![Pm::Cuda, Pm::Hip, Pm::OpenMp]),
    ) {
        let n = node();
        let buf = HamrBuffer::<f64>::from_slice(
            n.clone(), &data, Allocator::Malloc, None,
            HamrStream::default_stream(), StreamMode::Sync,
        ).unwrap();

        // First cross-space access materializes a device replica.
        let dev = n.device(0).unwrap();
        let used_baseline = dev.used_bytes();
        let view = buf.device_accessible(0, pm).unwrap();
        prop_assert!(!view.is_direct());
        let used_replica = dev.used_bytes();
        prop_assert!(used_replica > used_baseline);

        drop(view);
        prop_assert_eq!(dev.used_bytes(), used_replica, "the replica stays with the allocation");
        let (pool, stats) = (dev.pool_stats(), n.stats());

        // The next identical access moves nothing and allocates nothing.
        let view2 = buf.device_accessible(0, pm).unwrap();
        prop_assert!(!view2.is_direct());
        let s = dev.pool_stats();
        prop_assert_eq!((s.raw_allocs, s.hits, s.misses), (pool.raw_allocs, pool.hits, pool.misses));
        prop_assert_eq!(n.stats().total_copies(), stats.total_copies());
        prop_assert_eq!(n.stats().replica_hits, stats.replica_hits + 1);
        drop(view2);

        drop(buf);
        prop_assert_eq!(dev.used_bytes(), used_baseline, "and dies with it");
    }

    /// move_to round trips preserve content through arbitrary residency
    /// sequences.
    #[test]
    fn residency_walks_preserve_content(
        data in proptest::collection::vec(finite_f64(), 1..32),
        walk in proptest::collection::vec(proptest::option::of(0usize..2), 1..5),
    ) {
        let n = node();
        let buf = HamrBuffer::<f64>::from_slice(
            n, &data, Allocator::Malloc, None,
            HamrStream::default_stream(), StreamMode::Sync,
        ).unwrap();
        for target in walk {
            buf.move_to(target).unwrap();
            prop_assert_eq!(buf.device(), target);
            prop_assert_eq!(buf.to_vec().unwrap(), data.clone());
        }
    }
}

/// Where an access request of the model test comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Place {
    Host,
    Device(usize),
}

/// One step of the model test.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The producer rewrites the array (a host write view, or a kernel
    /// write view that has executed when the next op starts).
    Write,
    /// A kernel write queued on the buffer's stream behind a closed gate:
    /// it has *not* executed when the next access is requested. Host
    /// data has no stream of its own; there it is a plain write.
    QueuedWrite,
    Access {
        from: Place,
        hold: bool,
        readopt: bool,
        /// Through the newest CoW pin, if one is held.
        pinned: bool,
    },
    DropViews,
    /// Take a CoW share of the array, pinned to its current contents
    /// (after any queued write, as a snapshot capture drains first).
    Pin,
    /// Release the oldest share's pin and drop it, with its views.
    Unpin,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..10, 0usize..3, proptest::num::f64::ANY).prop_map(|(kind, place, bits)| {
        let from = if place == 0 { Place::Host } else { Place::Device(place - 1) };
        let bits = bits.to_bits();
        match kind {
            0 => Op::Write,
            1 => Op::QueuedWrite,
            2 => Op::DropViews,
            3 => Op::Pin,
            4 => Op::Unpin,
            _ => Op::Access {
                from,
                hold: bits & 1 == 1,
                readopt: bits & 2 == 2,
                pinned: bits & 4 == 4,
            },
        }
    })
}

/// What the model says a request was granted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Grant {
    /// The table's block, already holding the generation asked for.
    Hit,
    /// The table's block for the space, moved or refreshed.
    Kept,
    /// A block of its own: the table holds a newer generation.
    Unkept,
}

/// The model of one allocation's version table: per other space, the
/// write generation its replica was filled at, and the generations CoW
/// pins are held at.
#[derive(Default)]
struct Model {
    generation: u64,
    replicas: std::collections::HashMap<usize, u64>,
    pins: Vec<u64>,
    moves: u64,
    refreshes: u64,
    hits: u64,
    faults: u64,
    /// Copies the test itself makes (set-up upload, device read-backs).
    other_copies: u64,
}

impl Model {
    fn request(&mut self, space: usize, want: u64) -> Grant {
        match self.replicas.get(&space).copied() {
            Some(at) if at == want => {
                self.hits += 1;
                Grant::Hit
            }
            Some(at) if at > want => {
                self.moves += 1;
                Grant::Unkept
            }
            at => {
                if at.is_some() {
                    self.refreshes += 1;
                } else {
                    self.moves += 1;
                }
                self.replicas.insert(space, want);
                Grant::Kept
            }
        }
    }

    /// A write: the pins of the generation it ends share one fault.
    fn write(&mut self) {
        self.faults += self.pins.contains(&self.generation) as u64;
        self.generation += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of producer writes (executed or still queued on
    /// the buffer's stream), access requests from every place — live or
    /// through a CoW pin — views held or dropped, pins taken and released,
    /// and per-request re-adoption: every view reads bit for bit the
    /// contents at its request's place in stream order — also long after,
    /// while newer generations are requested — the node copied exactly
    /// once per modeled move and refresh, every pinned generation a write
    /// ended faulted once, and a request for a (space, generation) the
    /// table holds was granted the one block that holds it.
    #[test]
    fn replicas_follow_the_model_under_any_interleaving(
        len in 1usize..40,
        on_device in proptest::sample::select(vec![false, true]),
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let n = node();
        let dev0 = n.device(0).unwrap();
        let stream = dev0.create_stream();
        let readback = dev0.create_stream();
        let mut model = Model::default();
        let home = if on_device { Place::Device(0) } else { Place::Host };
        let cells = if on_device {
            model.other_copies += 1; // from_slice stages through the host
            HamrBuffer::<f64>::from_slice(
                n.clone(), &vec![0.0; len], Allocator::Cuda, Some(0),
                HamrStream::new(stream.clone()), StreamMode::Sync,
            ).unwrap().data()
        } else {
            n.host_alloc_f64(len)
        };
        let adopt = || if on_device {
            HamrBuffer::<f64>::adopt(
                n.clone(), cells.clone(), Allocator::Cuda,
                HamrStream::new(stream.clone()), StreamMode::Async,
            ).unwrap()
        } else {
            HamrBuffer::<f64>::adopt(
                n.clone(), cells.clone(), Allocator::Malloc,
                HamrStream::default_stream(), StreamMode::Async,
            ).unwrap()
        };
        let persistent = adopt();
        let write = |value: f64| {
            if on_device {
                let c = cells.clone();
                stream.launch("write", devsim::KernelCost::ZERO, move |scope| {
                    c.f64_view(scope)?.fill(value);
                    Ok(())
                }).unwrap();
            } else {
                cells.host_f64().unwrap().fill(value);
            }
        };
        let read = |view: &hamr::AccessView<f64>, model: &mut Model| -> Vec<f64> {
            if view.space().host_accessible() {
                return view.to_vec().unwrap();
            }
            model.other_copies += 1;
            let out = n.host_alloc_f64(len);
            readback.copy(view.cells(), &out).unwrap();
            readback.synchronize().unwrap();
            out.host_f64_ro().unwrap().to_vec()
        };

        let pin_stats = devsim::PinStats::new_shared();
        let share_stream = || if on_device {
            HamrStream::new(stream.clone())
        } else {
            HamrStream::default_stream()
        };
        let mut value = 0.0;
        let mut gate: Option<devsim::Event> = None;
        // Views held, with the value they must read and the pin (its
        // model generation) a view through one was taken from.
        let mut held: Vec<(hamr::AccessView<f64>, f64, Option<u64>)> = Vec::new();
        // Live CoW shares, oldest first: the share, its value, its generation.
        let mut pins: Vec<(HamrBuffer<f64>, f64, u64)> = Vec::new();
        // The allocation id of the table's block per space.
        let mut entries = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Write | Op::QueuedWrite => {
                    if on_device && matches!(op, Op::QueuedWrite) && gate.is_none() {
                        let g = devsim::Event::new();
                        stream.wait_event(&g).unwrap();
                        gate = Some(g);
                    }
                    value += 1.0;
                    model.write();
                    write(value);
                    if gate.is_none() {
                        stream.synchronize().unwrap();
                    }
                }
                Op::Access { from, hold, readopt, pinned } => {
                    let fresh;
                    let pin = pins.last().filter(|_| pinned);
                    let buf = match pin {
                        Some((share, _, _)) => share,
                        None if readopt => { fresh = adopt(); &fresh }
                        None => &persistent,
                    };
                    let (expected, want) = pin.map_or((value, model.generation), |p| (p.1, p.2));
                    let request = || match from {
                        Place::Host => buf.host_accessible().unwrap(),
                        Place::Device(d) => buf.cuda_accessible(d).unwrap(),
                    };
                    let view = match gate.take() {
                        None => request(),
                        // The write is queued, not executed. A request
                        // that must wait for its place on the stream
                        // blocks until the gate opens, so it runs beside
                        // this thread, which opens the gate as soon as
                        // the request has put its command on the stream.
                        Some(g) => std::thread::scope(|scope| {
                            let submitted = stream.submitted();
                            let worker = scope.spawn(request);
                            while !worker.is_finished() && stream.submitted() == submitted {
                                std::thread::yield_now();
                            }
                            g.signal();
                            worker.join().unwrap()
                        }),
                    };
                    buf.synchronize().unwrap();
                    prop_assert_eq!(view.is_direct(), from == home);
                    if from != home {
                        let space = match from { Place::Host => 0, Place::Device(d) => d + 1 };
                        let block = view.cells().alloc_id();
                        match model.request(space, want) {
                            Grant::Hit => prop_assert_eq!(entries.get(&space), Some(&block)),
                            Grant::Kept => drop(entries.insert(space, block)),
                            Grant::Unkept => prop_assert_ne!(entries.get(&space), Some(&block)),
                        }
                    }
                    prop_assert_eq!(read(&view, &mut model), vec![expected; len]);
                    if hold {
                        held.push((view, expected, pin.map(|p| p.2)));
                    }
                }
                Op::DropViews => {
                    for (view, expected, pin) in held.drain(..) {
                        // An in-place grant reads the live cells, or its pin's.
                        let expected = if view.is_direct() && pin.is_none() { value } else { expected };
                        if gate.is_none() {
                            prop_assert_eq!(read(&view, &mut model), vec![expected; len]);
                        }
                    }
                }
                Op::Pin | Op::Unpin => {
                    if let Some(g) = gate.take() {
                        g.signal();
                        stream.synchronize().unwrap();
                    }
                    if matches!(op, Op::Pin) {
                        let share = persistent.cow_share(&pin_stats, share_stream());
                        pins.push((share, value, model.generation));
                        model.pins.push(model.generation);
                    } else if !pins.is_empty() {
                        let (share, _, generation) = pins.remove(0);
                        model.pins.remove(0);
                        for (view, expected, _) in held.extract_if(.., |h| h.2 == Some(generation)) {
                            prop_assert_eq!(read(&view, &mut model), vec![expected; len]);
                        }
                        share.release_cow();
                    }
                }
            }
        }
        if let Some(g) = gate.take() {
            g.signal();
        }
        stream.synchronize().unwrap();
        for (view, expected, pin) in &held {
            let expected = if view.is_direct() && pin.is_none() { value } else { *expected };
            prop_assert_eq!(read(view, &mut model), vec![expected; len]);
        }
        let stats = n.stats();
        prop_assert_eq!(stats.total_copies(), model.moves + model.refreshes + model.other_copies);
        prop_assert_eq!(stats.replica_refreshes, model.refreshes);
        prop_assert_eq!(stats.replica_hits, model.hits);
        prop_assert_eq!(pin_stats.faults(), model.faults);
    }
}
