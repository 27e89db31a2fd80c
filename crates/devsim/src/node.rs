//! The simulated node: devices + host + shared counters.

use std::sync::Arc;

use crate::device::Device;
use crate::error::{Error, Result};
use crate::fault::FaultInjector;
use crate::host::HostExec;
use crate::memory::{CellBuffer, MemSpace};
use crate::pool::{MemoryPool, PoolConfig, PoolStats};
use crate::stats::{NodeStats, StatsSnapshot};
use crate::stream::Stream;
use crate::timemodel::{DeviceParams, HostParams, LinkParams};

/// Configuration of a simulated heterogeneous node.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Number of accelerators (Perlmutter GPU nodes have 4).
    pub num_devices: usize,
    /// Modeled parameters shared by all devices.
    pub device: DeviceParams,
    /// Modeled host CPU parameters.
    pub host: HostParams,
    /// Modeled interconnect parameters.
    pub link: LinkParams,
    /// Global multiplier on all modeled durations. `0.0` disables the time
    /// model entirely (tests); benchmarks use a value that makes modeled
    /// time dominate real closure time.
    pub time_scale: f64,
    /// Caching memory-pool configuration (enabled by default).
    pub pool: PoolConfig,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            num_devices: 4,
            device: DeviceParams::default(),
            host: HostParams::default(),
            link: LinkParams::default(),
            time_scale: 1.0,
            pool: PoolConfig::default(),
        }
    }
}

impl NodeConfig {
    /// A configuration for fast unit tests: `n` devices, no modeled time.
    pub fn fast_test(n: usize) -> Self {
        NodeConfig { num_devices: n, time_scale: 0.0, ..NodeConfig::default() }
    }
}

/// A simulated heterogeneous compute node.
///
/// Shared by every rank that "runs on" the node — in this reproduction,
/// MPI ranks are threads and a node is an `Arc<SimNode>` they all hold.
pub struct SimNode {
    devices: Vec<Device>,
    host: HostExec,
    stats: Arc<NodeStats>,
    pool: Arc<MemoryPool>,
    fault: Arc<FaultInjector>,
    config: NodeConfig,
}

impl SimNode {
    /// Build a node from `config`.
    ///
    /// # Panics
    /// Panics if `config.num_devices == 0`; the paper's placements always
    /// assume at least one accelerator.
    pub fn new(config: NodeConfig) -> Arc<SimNode> {
        assert!(config.num_devices > 0, "a heterogeneous node needs at least one device");
        let stats = Arc::new(NodeStats::default());
        let fault = FaultInjector::new();
        let pool = MemoryPool::new(config.pool, fault.clone());
        let devices = (0..config.num_devices)
            .map(|id| {
                Device::new(
                    id,
                    config.device,
                    stats.clone(),
                    pool.clone(),
                    fault.clone(),
                    config.link,
                    config.time_scale,
                )
            })
            .collect();
        let host = HostExec::new(config.host, stats.clone(), config.time_scale);
        Arc::new(SimNode { devices, host, stats, pool, fault, config })
    }

    /// Number of devices on the node (the paper's `n_a`).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Access device `id`.
    pub fn device(&self, id: usize) -> Result<&Device> {
        self.devices
            .get(id)
            .ok_or(Error::NoSuchDevice { device: id, available: self.devices.len() })
    }

    /// The host executor.
    pub fn host(&self) -> &HostExec {
        &self.host
    }

    /// Allocate `len` `f64` elements in host memory (pooled, uncapped).
    ///
    /// # Panics
    /// Host memory is uncapped, so this only fails — and then panics —
    /// when fault injection fires on an armed thread. Paths that run
    /// under injection (the in situ engines) use
    /// [`SimNode::try_host_alloc_f64`] and propagate the error.
    pub fn host_alloc_f64(&self, len: usize) -> CellBuffer {
        self.try_host_alloc_f64(len).expect("host allocation failed (injected fault?)")
    }

    /// Fallible host allocation: host memory is uncapped, but the
    /// [`fault::POOL_ALLOC`](crate::fault::site::POOL_ALLOC) injection
    /// site can fail it on armed threads.
    pub fn try_host_alloc_f64(&self, len: usize) -> Result<CellBuffer> {
        let (buf, _raw) = self.pool.alloc(MemSpace::Host, len, None)?;
        Ok(buf)
    }

    /// The answer to a cross-space access request: the cells of `src`'s
    /// replica on `device` (`None` = host memory), which — once the work
    /// this enqueues on `stream` has run — hold the contents `src` reads
    /// at the request's place in `stream`'s order. A replica that is
    /// already current is handed out again (no allocation, no copy); a
    /// stale one is re-copied; a missing one is allocated, filled and
    /// kept with the allocation. See [`StatsSnapshot::replica_hits`].
    ///
    /// The cells are ready once `stream` has been synchronized and
    /// [`CellBuffer::sync_replicas`] has returned.
    pub fn replica(
        &self,
        src: &CellBuffer,
        device: Option<usize>,
        stream: &Stream,
    ) -> Result<CellBuffer> {
        let space = device.map_or(MemSpace::Host, MemSpace::Device);
        src.replica(
            space,
            stream,
            &self.stats,
            |owner| self.pool.track_replicas(owner),
            || match device {
                None => self.try_host_alloc_f64(src.len()),
                // Allocated on the stream that fills it, so the pool can
                // recycle a same-stream block without waiting.
                Some(d) => self.device(d)?.alloc_cells_on_stream(src.len(), stream),
            },
        )
    }

    /// Drop every replica no view holds (they otherwise live as long as
    /// the allocation they copy): called when a run finalizes, and what
    /// the pool does by itself before it reports a device out of memory.
    pub fn drop_replicas(&self) {
        self.pool.evict_replicas(None);
    }

    /// The node's fault injector (disabled unless configured).
    pub fn fault(&self) -> &Arc<FaultInjector> {
        &self.fault
    }

    /// The node-wide caching memory pool (stats, trim, reconfigure).
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Pool counters summed over every memory space on the node.
    pub fn pool_stats_total(&self) -> PoolStats {
        self.pool.stats_total()
    }

    /// Pool counters of one memory space.
    pub fn pool_stats(&self, space: MemSpace) -> PoolStats {
        self.pool.stats(space)
    }

    /// Snapshot the node-wide operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The configuration the node was built with.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::timemodel::KernelCost;
    use std::time::{Duration, Instant};

    fn test_node(n: usize) -> Arc<SimNode> {
        SimNode::new(NodeConfig::fast_test(n))
    }

    #[test]
    fn node_exposes_devices() {
        let node = test_node(3);
        assert_eq!(node.num_devices(), 3);
        assert_eq!(node.device(2).unwrap().id(), 2);
        assert!(matches!(node.device(3), Err(Error::NoSuchDevice { device: 3, available: 3 })));
    }

    #[test]
    fn kernel_reads_and_writes_device_memory() {
        let node = test_node(1);
        let dev = node.device(0).unwrap();
        let buf = dev.alloc_f64(8).unwrap();
        let stream = dev.create_stream();
        let b = buf.clone();
        stream
            .launch("square", KernelCost::ZERO, move |scope| {
                let v = b.f64_view(scope)?;
                for i in 0..v.len() {
                    v.set(i, (i * i) as f64);
                }
                Ok(())
            })
            .unwrap();
        stream.synchronize().unwrap();
        let host = node.host_alloc_f64(8);
        stream.copy(&buf, &host).unwrap();
        stream.synchronize().unwrap();
        assert_eq!(host.host_f64().unwrap().to_vec(), vec![0., 1., 4., 9., 16., 25., 36., 49.]);
    }

    #[test]
    fn stream_commands_execute_in_order() {
        let node = test_node(1);
        let dev = node.device(0).unwrap();
        let buf = dev.alloc_f64(1).unwrap();
        let stream = dev.create_stream();
        for i in 1..=50u32 {
            let b = buf.clone();
            stream
                .launch("chain", KernelCost::ZERO, move |scope| {
                    let v = b.f64_view(scope)?;
                    // Each kernel depends on its predecessor's value: any
                    // reordering breaks the arithmetic chain.
                    v.set(0, v.get(0) * 2.0 + i as f64);
                    Ok(())
                })
                .unwrap();
        }
        stream.synchronize().unwrap();
        let mut expect = 0.0f64;
        for i in 1..=50u32 {
            expect = expect * 2.0 + i as f64;
        }
        let host = node.host_alloc_f64(1);
        stream.copy(&buf, &host).unwrap();
        stream.synchronize().unwrap();
        assert_eq!(host.host_f64().unwrap().get(0), expect);
    }

    #[test]
    fn kernel_error_surfaces_at_synchronize() {
        let node = test_node(2);
        let d0 = node.device(0).unwrap();
        let buf_on_1 = node.device(1).unwrap().alloc_f64(4).unwrap();
        let stream = d0.create_stream();
        let b = buf_on_1.clone();
        stream
            .launch("bad", KernelCost::ZERO, move |scope| {
                b.f64_view(scope)?; // wrong device -> error
                Ok(())
            })
            .unwrap();
        let err = stream.synchronize().unwrap_err();
        assert!(matches!(err, Error::CrossDeviceAccess { stream_device: 0, .. }));
        // Error is cleared after being observed.
        stream.synchronize().unwrap();
    }

    #[test]
    fn device_oom_and_release() {
        let cfg = NodeConfig {
            num_devices: 1,
            device: DeviceParams { memory_bytes: 1024, ..DeviceParams::default() },
            time_scale: 0.0,
            ..NodeConfig::default()
        };
        let node = SimNode::new(cfg);
        let dev = node.device(0).unwrap();
        let a = dev.alloc_f64(64).unwrap(); // 512 bytes
        let b = dev.alloc_f64(64).unwrap(); // 512 bytes -> full
        assert!(matches!(dev.alloc_f64(1), Err(Error::OutOfMemory { .. })));
        assert_eq!(dev.used_bytes(), 1024);
        drop(a);
        assert_eq!(dev.used_bytes(), 512);
        let _c = dev.alloc_f64(64).unwrap(); // fits again
        drop(b);
    }

    #[test]
    fn events_order_across_streams() {
        let node = test_node(2);
        let d0 = node.device(0).unwrap();
        let d1 = node.device(1).unwrap();
        let src = d0.alloc_f64(1).unwrap();
        let dst = d1.alloc_f64(1).unwrap();
        let s0 = d0.create_stream();
        let s1 = d1.create_stream();
        let produced = Event::new();

        let b = src.clone();
        s0.launch("produce", KernelCost::ZERO, move |scope| {
            std::thread::sleep(Duration::from_millis(20));
            b.f64_view(scope)?.set(0, 42.0);
            Ok(())
        })
        .unwrap();
        s0.record(&produced).unwrap();

        // Consumer on another device waits on the event before copying.
        s1.wait_event(&produced).unwrap();
        s1.copy(&src, &dst).unwrap();
        let host = node.host_alloc_f64(1);
        s1.copy(&dst, &host).unwrap();
        s1.synchronize().unwrap();
        assert_eq!(host.host_f64().unwrap().get(0), 42.0);
    }

    #[test]
    fn stats_count_operations() {
        let node = test_node(2);
        let dev = node.device(0).unwrap();
        let buf = dev.alloc_f64(16).unwrap();
        let host = node.host_alloc_f64(16);
        let d1 = node.device(1).unwrap().alloc_f64(16).unwrap();
        let stream = dev.create_stream();
        stream.launch("noop", KernelCost::ZERO, |_| Ok(())).unwrap();
        stream.copy(&host, &buf).unwrap(); // h2d
        stream.copy(&buf, &d1).unwrap(); // d2d
        stream.copy(&d1, &host).unwrap(); // d2h
        stream.synchronize().unwrap();
        let s = node.stats();
        assert_eq!(s.kernels_launched, 1);
        assert_eq!(s.copies_h2d, 1);
        assert_eq!(s.copies_d2d, 1);
        assert_eq!(s.copies_d2h, 1);
        assert_eq!(s.bytes_h2d, 128);
        assert_eq!(s.device_allocs, 2);
    }

    #[test]
    fn each_synchronize_is_counted() {
        let node = test_node(1);
        let stream = node.device(0).unwrap().create_stream();
        stream.launch("noop", KernelCost::ZERO, |_| Ok(())).unwrap();
        let before = node.stats().stream_syncs;
        stream.synchronize().unwrap();
        assert_eq!(node.stats().stream_syncs, before + 1);
    }

    #[test]
    fn modeled_time_serializes_one_slot_device() {
        // Two 30ms kernels on one slots=1 device must take >= 60ms even on
        // different streams; the same kernels on two devices overlap.
        let cfg = NodeConfig {
            num_devices: 2,
            device: DeviceParams {
                slots: 1,
                flops_per_sec: 1e9,
                launch_overhead: Duration::ZERO,
                ..DeviceParams::default()
            },
            time_scale: 1.0,
            ..NodeConfig::default()
        };
        let node = SimNode::new(cfg);
        let cost = KernelCost::flops(30e6); // 30 ms at 1 GF/s

        // Same device, two streams.
        let d0 = node.device(0).unwrap();
        let s_a = d0.create_stream();
        let s_b = d0.create_stream();
        let t0 = Instant::now();
        s_a.launch("k", cost, |_| Ok(())).unwrap();
        s_b.launch("k", cost, |_| Ok(())).unwrap();
        s_a.synchronize().unwrap();
        s_b.synchronize().unwrap();
        let serial = t0.elapsed();
        assert!(serial >= Duration::from_millis(55), "got {serial:?}");

        // Different devices overlap.
        let d1 = node.device(1).unwrap();
        let s_c = d0.create_stream();
        let s_d = d1.create_stream();
        let t0 = Instant::now();
        s_c.launch("k", cost, |_| Ok(())).unwrap();
        s_d.launch("k", cost, |_| Ok(())).unwrap();
        s_c.synchronize().unwrap();
        s_d.synchronize().unwrap();
        let overlap = t0.elapsed();
        assert!(overlap < Duration::from_millis(55), "got {overlap:?}");
    }

    #[test]
    fn host_exec_bounds_concurrency_and_models_time() {
        let cfg = NodeConfig {
            num_devices: 1,
            host: HostParams {
                slots: 1,
                flops_per_sec: 1e9,
                bytes_per_sec: 1e12,
                ..HostParams::default()
            },
            time_scale: 1.0,
            ..NodeConfig::default()
        };
        let node = SimNode::new(cfg);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    node.host().run("t", KernelCost::flops(20e6), || {});
                });
            }
        });
        // Two 20ms tasks on one host slot serialize.
        assert!(t0.elapsed() >= Duration::from_millis(35));
        assert_eq!(node.stats().host_tasks, 2);
    }

    #[test]
    fn default_stream_is_cached() {
        let node = test_node(1);
        let dev = node.device(0).unwrap();
        let a = dev.default_stream();
        let b = dev.default_stream();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn copy_length_mismatch_rejected_at_submission() {
        let node = test_node(1);
        let dev = node.device(0).unwrap();
        let a = dev.alloc_f64(4).unwrap();
        let h = node.host_alloc_f64(8);
        let s = dev.create_stream();
        assert!(matches!(s.copy(&a, &h), Err(Error::CopyLengthMismatch { src: 4, dst: 8 })));
    }

    #[test]
    fn is_idle_tracks_outstanding_work() {
        let node = test_node(1);
        let s = node.device(0).unwrap().create_stream();
        assert!(s.is_idle());
        s.launch("sleepy", KernelCost::ZERO, |_| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(())
        })
        .unwrap();
        assert!(!s.is_idle());
        s.synchronize().unwrap();
        assert!(s.is_idle());
    }
}
