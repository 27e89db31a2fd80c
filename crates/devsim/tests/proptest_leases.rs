//! Read leases raced against every kind of writer: whatever a random
//! program of write views, stream copies, replica fills and CoW pins does
//! on one thread, every slice a second thread reads holds one whole
//! generation's contents.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use devsim::{CellBuffer, Error, KernelCost, NodeConfig, PinStats, SimNode, Stream};
use parking_lot::Mutex;
use proptest::prelude::*;

const CELLS: usize = 512;

/// One step of the writing thread; every write stores one value in every
/// cell, so a generation's contents are uniform.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Fill the host allocation through a write view.
    Write(u8),
    /// Copy a uniform host buffer into it on the stream.
    Copy(u8),
    /// Pin its current contents for the reader.
    Pin,
    /// Fill the device allocation in a kernel.
    DeviceWrite(u8),
    /// Ask for the device allocation's host replica for the reader.
    Fill,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..5, 1u8..200).prop_map(|(kind, v)| match kind {
        0 => Op::Write(v),
        1 => Op::Copy(v),
        2 => Op::Pin,
        3 => Op::DeviceWrite(v),
        _ => Op::Fill,
    })
}

/// The one value `cells` holds, or `None` when they are torn.
fn uniform(cells: &[f64]) -> Option<f64> {
    let first = *cells.first()?;
    cells.iter().all(|v| v.to_bits() == first.to_bits()).then_some(first)
}

fn refused(e: &Error, b: &CellBuffer) -> bool {
    *e == Error::Aliased { alloc_id: b.alloc_id() }
}

/// What the writer publishes for the reader: a pinned clone with the
/// value it must read, and the latest host replica with the value of the
/// device generation it was filled from.
#[derive(Default)]
struct Published {
    pin: Option<(CellBuffer, f64)>,
    replica: Option<(CellBuffer, f64)>,
}

fn run_writer(
    ops: &[Op],
    node: &Arc<SimNode>,
    stream: &Stream,
    host: &CellBuffer,
    device: &CellBuffer,
    published: &Mutex<Published>,
) -> (u32, u32) {
    let (mut value, mut device_value) = (0.0, 0.0);
    let (mut stored, mut refusals) = (0, 0);
    let stats = PinStats::new_shared();
    for &op in ops {
        match op {
            Op::Write(v) => match host.host_f64() {
                Ok(w) => {
                    w.fill(v as f64);
                    value = v as f64;
                    stored += 1;
                }
                Err(e) => {
                    assert!(refused(&e, host), "{e}");
                    refusals += 1;
                }
            },
            Op::Copy(v) => {
                let src = node.host_alloc_f64(CELLS);
                src.host_f64().unwrap().fill(v as f64);
                stream.copy(&src, host).unwrap();
                match stream.synchronize() {
                    Ok(()) => {
                        value = v as f64;
                        stored += 1;
                    }
                    Err(e) => {
                        assert!(refused(&e, host), "{e}");
                        refusals += 1;
                    }
                }
            }
            Op::Pin => published.lock().pin = Some((host.cow_pinned(&stats), value)),
            Op::DeviceWrite(v) => {
                let d = device.clone();
                stream
                    .launch("fill", KernelCost::ZERO, move |scope| {
                        d.f64_view(scope)?.fill(v as f64);
                        Ok(())
                    })
                    .unwrap();
                device_value = v as f64;
            }
            Op::Fill => {
                let replica = node.replica(device, None, stream).unwrap();
                stream
                    .synchronize()
                    .expect("a fill never meets a reader: held blocks are replaced");
                device.sync_replicas();
                published.lock().replica = Some((replica, device_value));
            }
        }
    }
    (stored, refusals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_slice_read_is_one_whole_generation(ops in proptest::collection::vec(op(), 1..40)) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let host = node.host_alloc_f64(CELLS);
        let device = node.device(0).unwrap().alloc_f64(CELLS).unwrap();
        let published = Mutex::new(Published::default());
        let mut values: Vec<f64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(v) | Op::Copy(v) => Some(*v as f64),
                _ => None,
            })
            .collect();
        values.push(0.0);
        let (done, start) = (AtomicBool::new(false), Barrier::new(2));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                let counts = run_writer(&ops, &node, &stream, &host, &device, &published);
                done.store(true, Ordering::Release);
                counts
            });
            start.wait();
            let mut reads = 0;
            while !done.load(Ordering::Acquire) || reads < 3 {
                reads += 1;
                match host.host_f64_ro() {
                    Ok(view) => {
                        let v = uniform(&view);
                        assert!(v.is_some_and(|v| values.contains(&v)), "torn read {v:?}");
                    }
                    Err(e) => assert!(refused(&e, &host), "{e}"),
                }
                let (pin, replica) = {
                    let p = published.lock();
                    (p.pin.clone(), p.replica.clone())
                };
                if let Some((pinned, want)) = pin {
                    let view = pinned.host_f64_ro().expect("a pin taken between writes reads");
                    assert_eq!(uniform(&view), Some(want), "pinned read");
                }
                if let Some((replica, want)) = replica {
                    assert_eq!(uniform(&replica.host_f64_ro().unwrap()), Some(want), "replica read");
                }
            }
            let (stored, refusals) = writer.join().unwrap();
            prop_assert_eq!(stored + refusals, values.len() as u32 - 1);
        });
    }
}
