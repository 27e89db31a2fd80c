//! The distributed, device-offloaded simulation.
//!
//! Each MPI rank owns the bodies inside its slab of the volume and keeps
//! their state resident on its assigned device (the offload model of the
//! original OpenMP-target Newton++). One step is kick-drift-kick with a
//! single force evaluation:
//!
//! 1. half kick with the cached accelerations,
//! 2. drift,
//! 3. exchange: positions/masses of *all* bodies are allgathered (direct
//!    n-body needs every source) and uploaded to the device,
//! 4. force kernel: `n_local × n_global` softened interactions,
//! 5. half kick with the fresh accelerations (cached for the next step).
//!
//! Optionally, every `repartition_every` steps bodies that drifted out of
//! their slab migrate to the owning rank (disabled in the paper's runs,
//! and by default here).

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::{CellBuffer, KernelCost, SimNode, Stream};
use minimpi::Comm;
use sensei::{Error, Result};

use crate::body::BodySet;
use crate::domain::Domain;
use crate::forces::{self, Gravity};
use crate::ic::{self, DiskIc, UniformIc};
use crate::repartition::repartition;

/// Which initial condition to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IcKind {
    /// Uniform random positions/masses/velocities with a massive central
    /// body (the paper's evaluation IC).
    Uniform(UniformIc),
    /// Exponential disk galaxy (the MAGI stand-in).
    Disk(DiskIc),
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonConfig {
    /// Initial condition.
    pub ic: IcKind,
    /// Time step.
    pub dt: f64,
    /// Gravity parameters.
    pub grav: Gravity,
    /// Extent of the decomposed axis (slab decomposition along x).
    pub x_extent: (f64, f64),
    /// Migrate bodies every this many steps (`None` = disabled, as in the
    /// paper's runs).
    pub repartition_every: Option<u64>,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        NewtonConfig {
            ic: IcKind::Uniform(UniformIc::default()),
            dt: 1e-3,
            grav: Gravity::default(),
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        }
    }
}

/// Device-resident per-rank body state.
struct DeviceState {
    x: CellBuffer,
    y: CellBuffer,
    z: CellBuffer,
    vx: CellBuffer,
    vy: CellBuffer,
    vz: CellBuffer,
    m: CellBuffer,
    ax: CellBuffer,
    ay: CellBuffer,
    az: CellBuffer,
    /// Derived per-body quantities (momenta, kinetic energy, speed),
    /// refreshed by [`Newton::update_derived`] at the end of every step so
    /// the SENSEI adaptor can publish them zero-copy.
    px: CellBuffer,
    py: CellBuffer,
    pz: CellBuffer,
    ke: CellBuffer,
    speed: CellBuffer,
}

/// The exchange's buffers, kept from step to step: the host landing of
/// the four local columns (x, y, z, m) a step downloads, the message they
/// are bundled into and the buffer the allgather lands every rank's in,
/// and the host and device columns the gathered bodies are scattered into
/// and uploaded to. The columns are re-made only when the body counts
/// change (a repartition); the message buffers only grow.
#[derive(Default)]
struct Exchange {
    local: Vec<CellBuffer>,
    /// This rank's (x, y, z, m), one column after another: its message.
    bundle: Vec<f64>,
    /// Every rank's bundle in rank order, and each one's length.
    received: (Vec<f64>, Vec<usize>),
    gathered: Vec<CellBuffer>,
    sources: Vec<CellBuffer>,
}

/// `bufs`, re-made as four columns of `len` when they are not already.
fn four_columns(
    bufs: &mut Vec<CellBuffer>,
    len: usize,
    alloc: impl Fn() -> Result<CellBuffer>,
) -> Result<&[CellBuffer]> {
    if bufs.first().is_none_or(|b| b.len() != len) {
        *bufs = (0..4).map(|_| alloc()).collect::<Result<_>>()?;
    }
    Ok(bufs)
}

/// Enqueue the O(n_local x n_global) force kernel on `stream`: `acc`
/// receives the accelerations of the bodies at `targets` (x, y, z) due to
/// every body in `sources` (x, y, z, m), computed by
/// [`forces::accelerations`] over the columns' read views.
fn launch_forces(
    stream: &Stream,
    targets: [CellBuffer; 3],
    sources: [CellBuffer; 4],
    acc: [CellBuffer; 3],
    grav: Gravity,
) -> Result<()> {
    let (n, n_global) = (targets[0].len(), sources[0].len());
    let cost = KernelCost {
        flops: 20.0 * n as f64 * n_global as f64,
        bytes: 32.0 * (n + n_global) as f64,
    };
    stream
        .launch("nbody_forces", cost, move |scope| {
            let [x, y, z] = &targets;
            let (x, y, z) = (x.f64_view_ro(scope)?, y.f64_view_ro(scope)?, z.f64_view_ro(scope)?);
            let [sx, sy, sz, sm] = &sources;
            let (sx, sy, sz, sm) = (
                sx.f64_view_ro(scope)?,
                sy.f64_view_ro(scope)?,
                sz.f64_view_ro(scope)?,
                sm.f64_view_ro(scope)?,
            );
            let [ax, ay, az] = &acc;
            let (ax, ay, az) = (ax.f64_view(scope)?, ay.f64_view(scope)?, az.f64_view(scope)?);
            forces::accelerations([&x, &y, &z], [&sx, &sy, &sz, &sm], &grav, |i, a| {
                ax.set(i, a[0]);
                ay.set(i, a[1]);
                az.set(i, a[2]);
            });
            Ok(())
        })
        .map_err(Error::Device)
}

/// The Newton++ simulation on one rank.
pub struct Newton {
    node: Arc<SimNode>,
    device: usize,
    stream: Arc<Stream>,
    cfg: NewtonConfig,
    domain: Domain,
    state: DeviceState,
    exchange: Exchange,
    n_local: usize,
    n_global: usize,
    needs_force_refresh: bool,
    step: u64,
    time: f64,
}

impl Newton {
    /// Initialize the simulation: generate the IC (identically on every
    /// rank from the shared seed), keep this rank's slab, and upload it
    /// to `device`. Collective.
    pub fn new(
        node: Arc<SimNode>,
        comm: &Comm,
        device: usize,
        cfg: NewtonConfig,
    ) -> Result<Newton> {
        let all = match &cfg.ic {
            IcKind::Uniform(p) => ic::uniform_random(p),
            IcKind::Disk(p) => ic::disk_galaxy(p),
        };
        let domain = Domain::new(cfg.x_extent.0, cfg.x_extent.1, comm.size());
        let mine = domain.select_owned(&all, comm.rank());
        let n_global = all.len();
        let stream = node.device(device)?.create_stream();
        let state = Self::upload(&node, device, &stream, &mine)?;
        let sim = Newton {
            node,
            device,
            stream,
            cfg,
            domain,
            state,
            exchange: Exchange::default(),
            n_local: mine.len(),
            n_global,
            needs_force_refresh: true,
            step: 0,
            time: 0.0,
        };
        sim.update_derived()?;
        sim.stream.synchronize().map_err(Error::Device)?;
        Ok(sim)
    }

    /// Allocate device buffers for `set` and copy it up.
    fn upload(
        node: &Arc<SimNode>,
        device: usize,
        stream: &Arc<Stream>,
        set: &BodySet,
    ) -> Result<DeviceState> {
        let n = set.len();
        let dev = node.device(device)?;
        let up = |data: &[f64]| -> Result<CellBuffer> {
            let host = node.host_alloc_f64(n);
            host.host_f64().map_err(Error::Device)?.copy_from_slice(data);
            let buf = dev.alloc_f64(n)?;
            stream.copy(&host, &buf).map_err(Error::Device)?;
            Ok(buf)
        };
        let state = DeviceState {
            x: up(&set.x)?,
            y: up(&set.y)?,
            z: up(&set.z)?,
            vx: up(&set.vx)?,
            vy: up(&set.vy)?,
            vz: up(&set.vz)?,
            m: up(&set.m)?,
            ax: dev.alloc_f64(n)?,
            ay: dev.alloc_f64(n)?,
            az: dev.alloc_f64(n)?,
            px: dev.alloc_f64(n)?,
            py: dev.alloc_f64(n)?,
            pz: dev.alloc_f64(n)?,
            ke: dev.alloc_f64(n)?,
            speed: dev.alloc_f64(n)?,
        };
        stream.synchronize().map_err(Error::Device)?;
        Ok(state)
    }

    /// Copy the local body state back to the host.
    pub fn download(&self) -> Result<BodySet> {
        let down = |buf: &CellBuffer| -> Result<Vec<f64>> {
            let host = self.node.host_alloc_f64(buf.len());
            self.stream.copy(buf, &host).map_err(Error::Device)?;
            self.stream.synchronize().map_err(Error::Device)?;
            Ok(host.host_f64_ro().map_err(Error::Device)?.to_vec())
        };
        Ok(BodySet {
            x: down(&self.state.x)?,
            y: down(&self.state.y)?,
            z: down(&self.state.z)?,
            vx: down(&self.state.vx)?,
            vy: down(&self.state.vy)?,
            vz: down(&self.state.vz)?,
            m: down(&self.state.m)?,
        })
    }

    /// Half-kick kernel: `v += a * dt/2`.
    fn kick(&self, half_dt: f64) -> Result<()> {
        let n = self.n_local;
        let (vx, vy, vz) = (self.state.vx.clone(), self.state.vy.clone(), self.state.vz.clone());
        let (ax, ay, az) = (self.state.ax.clone(), self.state.ay.clone(), self.state.az.clone());
        self.stream
            .launch(
                "nbody_kick",
                KernelCost { flops: 6.0 * n as f64, bytes: 96.0 * n as f64 },
                move |scope| {
                    let (vx, vy, vz) =
                        (vx.f64_view(scope)?, vy.f64_view(scope)?, vz.f64_view(scope)?);
                    let (ax, ay, az) =
                        (ax.f64_view_ro(scope)?, ay.f64_view_ro(scope)?, az.f64_view_ro(scope)?);
                    for (i, ((&ax, &ay), &az)) in ax.iter().zip(&*ay).zip(&*az).enumerate() {
                        vx.set(i, vx.get(i) + ax * half_dt);
                        vy.set(i, vy.get(i) + ay * half_dt);
                        vz.set(i, vz.get(i) + az * half_dt);
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Drift kernel: `x += v * dt`.
    fn drift(&self, dt: f64) -> Result<()> {
        let n = self.n_local;
        let (x, y, z) = (self.state.x.clone(), self.state.y.clone(), self.state.z.clone());
        let (vx, vy, vz) = (self.state.vx.clone(), self.state.vy.clone(), self.state.vz.clone());
        self.stream
            .launch(
                "nbody_drift",
                KernelCost { flops: 6.0 * n as f64, bytes: 96.0 * n as f64 },
                move |scope| {
                    let (x, y, z) = (x.f64_view(scope)?, y.f64_view(scope)?, z.f64_view(scope)?);
                    let (vx, vy, vz) =
                        (vx.f64_view_ro(scope)?, vy.f64_view_ro(scope)?, vz.f64_view_ro(scope)?);
                    for (i, ((&vx, &vy), &vz)) in vx.iter().zip(&*vy).zip(&*vz).enumerate() {
                        x.set(i, x.get(i) + vx * dt);
                        y.set(i, y.get(i) + vy * dt);
                        z.set(i, z.get(i) + vz * dt);
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Exchange all bodies' positions/masses and recompute accelerations.
    ///
    /// The exchange is host-side work (download, allgather, upload) and is
    /// charged to the host executor; the O(n_local × n_global) force
    /// evaluation runs as a device kernel. Every buffer on the way is the
    /// rank's resident [`Exchange`].
    fn compute_forces(&mut self, comm: &Comm) -> Result<()> {
        // Download local (x, y, z, m) — four copies, one wait — and
        // bundle them into one message.
        let n = self.n_local;
        let node = &self.node;
        let local = four_columns(&mut self.exchange.local, n, || Ok(node.host_alloc_f64(n)))?;
        let state = [&self.state.x, &self.state.y, &self.state.z, &self.state.m];
        for (buf, host) in state.into_iter().zip(local) {
            self.stream.copy(buf, host).map_err(Error::Device)?;
        }
        self.stream.synchronize().map_err(Error::Device)?;
        let bundle = &mut self.exchange.bundle;
        bundle.clear();
        for host in local {
            bundle.extend_from_slice(&host.host_f64_ro().map_err(Error::Device)?);
        }

        // Allgather across ranks; charged as host work (this is the
        // MPI/staging phase of the solver that competes with host-placed
        // in situ processing). The urgent lane keeps the blocking
        // collective from queueing behind asynchronous in situ kernels —
        // a rank stuck behind analysis work would hold every other rank
        // inside the allgather.
        let (received, lens) = &mut self.exchange.received;
        self.node.host().run_urgent(
            "nbody_exchange",
            KernelCost::bytes((self.n_global * 4 * 8) as f64),
            || comm.allgather_into(bundle, received, lens),
        );
        let n_global = received.len() / 4;
        self.n_global = n_global;

        // Concatenate per variable and upload to the device.
        let host = four_columns(&mut self.exchange.gathered, n_global, || {
            Ok(node.host_alloc_f64(n_global))
        })?;
        {
            let (vx, vy, vz, vm) = (
                host[0].host_f64().map_err(Error::Device)?,
                host[1].host_f64().map_err(Error::Device)?,
                host[2].host_f64().map_err(Error::Device)?,
                host[3].host_f64().map_err(Error::Device)?,
            );
            let (mut off, mut parts) = (0, &received[..]);
            for &len in lens.iter() {
                let (part, rest) = parts.split_at(len);
                parts = rest;
                let pn = len / 4;
                for i in 0..pn {
                    vx.set(off + i, part[i]);
                    vy.set(off + i, part[pn + i]);
                    vz.set(off + i, part[2 * pn + i]);
                    vm.set(off + i, part[3 * pn + i]);
                }
                off += pn;
            }
        }
        let dev = node.device(self.device)?;
        let sources =
            four_columns(&mut self.exchange.sources, n_global, || Ok(dev.alloc_f64(n_global)?))?;
        for (h, d) in host.iter().zip(sources) {
            self.stream.copy(h, d).map_err(Error::Device)?;
        }

        let s = &self.state;
        launch_forces(
            &self.stream,
            [s.x.clone(), s.y.clone(), s.z.clone()],
            std::array::from_fn(|k| sources[k].clone()),
            [s.ax.clone(), s.ay.clone(), s.az.clone()],
            self.cfg.grav,
        )
    }

    /// Advance one time step. Collective. Returns the solver wall time of
    /// this step (what Figure 3's cyan bars measure).
    pub fn step(&mut self, comm: &Comm) -> Result<Duration> {
        let t0 = Instant::now();
        if self.needs_force_refresh {
            self.compute_forces(comm)?;
            self.needs_force_refresh = false;
        }
        let half = 0.5 * self.cfg.dt;
        self.kick(half)?;
        self.drift(self.cfg.dt)?;
        self.compute_forces(comm)?;
        self.kick(half)?;
        self.update_derived()?;
        self.stream.synchronize().map_err(Error::Device)?;
        self.step += 1;
        self.time += self.cfg.dt;

        if let Some(every) = self.cfg.repartition_every {
            if every > 0 && self.step.is_multiple_of(every) {
                self.repartition(comm)?;
            }
        }
        Ok(t0.elapsed())
    }

    /// Migrate bodies to the ranks owning their current positions.
    /// Collective.
    pub fn repartition(&mut self, comm: &Comm) -> Result<()> {
        let mine = self.download()?;
        let mine = repartition(comm, &self.domain, mine);
        self.state = Self::upload(&self.node, self.device, &self.stream, &mine)?;
        self.n_local = mine.len();
        self.needs_force_refresh = true;
        self.update_derived()?;
        self.stream.synchronize().map_err(Error::Device)?;
        Ok(())
    }

    /// Bodies owned by this rank (local count).
    pub fn num_local(&self) -> usize {
        self.n_local
    }

    /// Total bodies across all ranks (as of the last exchange).
    pub fn num_global(&self) -> usize {
        self.n_global
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The device this rank's simulation runs on.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The node.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// The simulation's stream.
    pub fn stream(&self) -> &Arc<Stream> {
        &self.stream
    }

    /// The configuration.
    pub fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    /// The domain decomposition.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// One kernel refreshing the derived per-body quantities
    /// (`px py pz ke speed`) from the current state. Stream-ordered; runs
    /// at the end of every step so in situ consumers see values
    /// consistent with the positions/velocities of the same iteration.
    fn update_derived(&self) -> Result<()> {
        let n = self.n_local;
        let (vx, vy, vz, m) = (
            self.state.vx.clone(),
            self.state.vy.clone(),
            self.state.vz.clone(),
            self.state.m.clone(),
        );
        let (px, py, pz, ke, speed) = (
            self.state.px.clone(),
            self.state.py.clone(),
            self.state.pz.clone(),
            self.state.ke.clone(),
            self.state.speed.clone(),
        );
        self.stream
            .launch(
                "nbody_derived",
                KernelCost { flops: 10.0 * n as f64, bytes: 72.0 * n as f64 },
                move |scope| {
                    let (vx, vy, vz, m) = (
                        vx.f64_view_ro(scope)?,
                        vy.f64_view_ro(scope)?,
                        vz.f64_view_ro(scope)?,
                        m.f64_view_ro(scope)?,
                    );
                    let (px, py, pz, ke, speed) = (
                        px.f64_view(scope)?,
                        py.f64_view(scope)?,
                        pz.f64_view(scope)?,
                        ke.f64_view(scope)?,
                        speed.f64_view(scope)?,
                    );
                    let velocities = vx.iter().zip(&*vy).zip(&*vz).zip(&*m);
                    for (i, (((&vxi, &vyi), &vzi), &mi)) in velocities.enumerate() {
                        let v2 = vxi * vxi + vyi * vyi + vzi * vzi;
                        px.set(i, mi * vxi);
                        py.set(i, mi * vyi);
                        pz.set(i, mi * vzi);
                        ke.set(i, 0.5 * mi * v2);
                        speed.set(i, v2.sqrt());
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Zero-copy handles to the derived-quantity buffers, in the order
    /// `px, py, pz, ke, speed`.
    pub fn derived_buffers(&self) -> [(&'static str, CellBuffer); 5] {
        [
            ("px", self.state.px.clone()),
            ("py", self.state.py.clone()),
            ("pz", self.state.pz.clone()),
            ("ke", self.state.ke.clone()),
            ("speed", self.state.speed.clone()),
        ]
    }

    /// Zero-copy handles to the device-resident state, in the order
    /// `x, y, z, vx, vy, vz, m` — what the SENSEI adaptor adopts.
    pub fn state_buffers(&self) -> [(&'static str, CellBuffer); 7] {
        [
            ("x", self.state.x.clone()),
            ("y", self.state.y.clone()),
            ("z", self.state.z.clone()),
            ("vx", self.state.vx.clone()),
            ("vy", self.state.vy.clone()),
            ("vz", self.state.vz.clone()),
            ("mass", self.state.m.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{kinetic_energy, potential_energy};
    use crate::integrator::Leapfrog;
    use devsim::NodeConfig;
    use minimpi::World;

    fn small_cfg(n: usize, seed: u64) -> NewtonConfig {
        NewtonConfig {
            ic: IcKind::Uniform(UniformIc {
                n,
                seed,
                half_width: 1.0,
                mass_range: (0.5, 1.5),
                velocity_scale: 0.2,
                central_mass: 100.0,
            }),
            dt: 1e-3,
            grav: Gravity { g: 1.0, eps: 0.05 },
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        }
    }

    /// Gather the full body set, sorted by mass for stable comparison.
    fn gather_all(comm: &Comm, sim: &Newton) -> BodySet {
        let mine = sim.download().unwrap();
        let parts = comm.allgather((mine.x, mine.y, mine.z, mine.vx, mine.vy, mine.vz, mine.m));
        let mut all = BodySet::new();
        for (x, y, z, vx, vy, vz, m) in parts {
            all.extend(&BodySet { x, y, z, vx, vy, vz, m });
        }
        all
    }

    #[test]
    fn distributed_run_matches_host_reference() {
        // 2-rank device simulation vs the single-threaded host leapfrog.
        let cfg = small_cfg(24, 3);
        let reference = {
            let mut bodies = match &cfg.ic {
                IcKind::Uniform(p) => ic::uniform_random(p),
                _ => unreachable!(),
            };
            let mut lf = Leapfrog::new(cfg.dt, cfg.grav);
            for _ in 0..5 {
                lf.step(&mut bodies);
            }
            bodies
        };
        let got = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node, &comm, comm.rank() % 2, cfg).unwrap();
            for _ in 0..5 {
                sim.step(&comm).unwrap();
            }
            gather_all(&comm, &sim)
        });
        for all in got {
            assert_eq!(all.len(), reference.len());
            // Compare as mass-sorted sets (rank ordering differs).
            let mut got_sorted: Vec<(f64, f64, f64)> =
                (0..all.len()).map(|i| (all.m[i], all.x[i], all.vy[i])).collect();
            let mut ref_sorted: Vec<(f64, f64, f64)> = (0..reference.len())
                .map(|i| (reference.m[i], reference.x[i], reference.vy[i]))
                .collect();
            got_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ref_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for ((gm, gx, gvy), (rm, rx, rvy)) in got_sorted.iter().zip(&ref_sorted) {
                assert!((gm - rm).abs() < 1e-12, "masses align");
                assert!((gx - rx).abs() < 1e-9, "positions match: {gx} vs {rx}");
                assert!((gvy - rvy).abs() < 1e-9, "velocities match");
            }
        }
    }

    #[test]
    fn energy_is_conserved_in_the_distributed_run() {
        // A gentler configuration than the default: close encounters with
        // a heavy central body need dt << eps/v to stay well resolved.
        let mut cfg = small_cfg(16, 11);
        cfg.grav = Gravity { g: 1.0, eps: 0.2 };
        cfg.dt = 5e-4;
        if let IcKind::Uniform(p) = &mut cfg.ic {
            p.central_mass = 10.0;
        }
        let drifts = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
            let all0 = gather_all(&comm, &sim);
            let e0 = kinetic_energy(&all0) + potential_energy(&all0, &cfg.grav);
            for _ in 0..50 {
                sim.step(&comm).unwrap();
            }
            let all1 = gather_all(&comm, &sim);
            let e1 = kinetic_energy(&all1) + potential_energy(&all1, &cfg.grav);
            ((e1 - e0) / e0.abs()).abs()
        });
        for d in drifts {
            assert!(d < 1e-3, "relative energy drift {d}");
        }
    }

    #[test]
    fn repartitioning_preserves_the_body_count_and_physics() {
        let mut cfg = small_cfg(20, 5);
        cfg.repartition_every = Some(2);
        let got = World::new(3).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(3));
            let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
            for _ in 0..6 {
                sim.step(&comm).unwrap();
            }
            let local = sim.download().unwrap();
            // After a repartition step, every local body is in our slab.
            let owned = local.x.iter().all(|&x| sim.domain().owner_of(x) == comm.rank());
            let total = comm.allreduce(local.len(), |a, b| a + b);
            (owned, total)
        });
        for (owned, total) in got {
            assert!(owned);
            assert_eq!(total, 20);
        }
    }

    #[test]
    fn step_advances_time_and_counters() {
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let cfg = small_cfg(8, 1);
            let mut sim = Newton::new(node, &comm, 0, cfg).unwrap();
            assert_eq!(sim.step_count(), 0);
            assert_eq!(sim.num_global(), 8);
            sim.step(&comm).unwrap();
            sim.step(&comm).unwrap();
            assert_eq!(sim.step_count(), 2);
            assert!((sim.time() - 2e-3).abs() < 1e-15);
            assert_eq!(sim.num_local(), 8);
        });
    }

    #[test]
    fn state_buffers_are_zero_copy_views_of_the_simulation() {
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let mut sim = Newton::new(node.clone(), &comm, 0, small_cfg(8, 2)).unwrap();
            let before = sim.download().unwrap();
            let bufs = sim.state_buffers();
            assert_eq!(bufs[0].0, "x");
            // The handle aliases live state: after a step it sees new data.
            sim.step(&comm).unwrap();
            let after = sim.download().unwrap();
            let x_view = {
                let host = node.host_alloc_f64(bufs[0].1.len());
                sim.stream().copy(&bufs[0].1, &host).unwrap();
                sim.stream().synchronize().unwrap();
                host.host_f64_ro().unwrap().to_vec()
            };
            assert_eq!(x_view, after.x);
            assert_ne!(before.x, after.x, "bodies moved");
        });
    }

    /// FNV-1a over the bits of every local body's position, velocity and
    /// acceleration, buffer by buffer.
    fn state_digest(sim: &Newton) -> u64 {
        let s = &sim.state;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for buf in [&s.x, &s.y, &s.z, &s.vx, &s.vy, &s.vz, &s.ax, &s.ay, &s.az] {
            let host = sim.node.host_alloc_f64(buf.len());
            sim.stream.copy(buf, &host).unwrap();
            sim.stream.synchronize().unwrap();
            for v in host.host_f64_ro().unwrap().to_vec() {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn every_step_is_bit_identical_to_the_recorded_trajectory() {
        // Digests of the state after each of six steps, recorded with the
        // one-target force loop over atomic cells that `launch_forces`
        // replaced. 23 bodies on two ranks split 11 / 12 and swap sides at
        // the repartitions, so blocks with a short tail run, and the
        // exchange is re-made, along the way.
        const RECORDED: [[u64; 6]; 2] = [
            [
                0x8bc1_708f_c6b2_2364,
                0x4735_f28d_3be9_8bac,
                0x7760_8819_1ab9_61e4,
                0xe948_4bf1_ef88_21b6,
                0x1d71_fb2e_6479_83f9,
                0xc620_15d6_d473_4b32,
            ],
            [
                0xd1da_8d4f_2a73_9da9,
                0xf392_1329_870d_607f,
                0x4542_e87c_055a_1031,
                0x3b2f_11ad_51dc_0ace,
                0x4c8a_fb01_154d_8488,
                0x84b7_6f4e_4f54_9500,
            ],
        ];
        let mut cfg = small_cfg(23, 7);
        cfg.repartition_every = Some(3);
        let got = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
            (0..6)
                .map(|_| {
                    sim.step(&comm).unwrap();
                    state_digest(&sim)
                })
                .collect::<Vec<_>>()
        });
        for (rank, digests) in got.iter().enumerate() {
            for (step, (got, want)) in digests.iter().zip(&RECORDED[rank]).enumerate() {
                assert_eq!(got, want, "rank {rank} after step {}", step + 1);
            }
        }
    }

    #[test]
    fn a_warm_step_requests_no_memory_and_waits_twice() {
        World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node.clone(), &comm, comm.rank(), small_cfg(24, 4)).unwrap();
            sim.step(&comm).unwrap();
            let (pool, before) = (node.pool_stats_total(), node.stats());
            sim.step(&comm).unwrap();
            let (after, stats) = (node.pool_stats_total(), node.stats());
            assert_eq!(after.hits + after.misses, pool.hits + pool.misses, "no pool request");
            assert_eq!(stats.stream_syncs - before.stream_syncs, 2, "one download, one step");
            let moved =
                |s: &devsim::StatsSnapshot| (s.copies_d2h, s.copies_h2d, s.total_link_bytes());
            let n = (sim.num_local() * 8) as u64;
            let global = (sim.num_global() * 8) as u64;
            let (d2h, h2d, bytes) = moved(&stats);
            let (d2h0, h2d0, bytes0) = moved(&before);
            assert_eq!((d2h - d2h0, h2d - h2d0, bytes - bytes0), (4, 4, 4 * (n + global)));
        });
    }

    /// Upload `data` to a fresh device column.
    fn device_column(node: &Arc<SimNode>, stream: &Stream, data: &[f64]) -> CellBuffer {
        let host = node.host_alloc_f64(data.len());
        host.host_f64().unwrap().copy_from_slice(data);
        let dev = node.device(0).unwrap().alloc_f64(data.len()).unwrap();
        stream.copy(&host, &dev).unwrap();
        dev
    }

    /// A value's bits, every NaN as one: Rust leaves the sign and payload
    /// of a NaN an operation produces unspecified, so which of two NaN
    /// operands a sum returns may differ between compiled loops.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Bodies at `positions`, with `masses`.
    fn bodies(positions: &[[f64; 3]], masses: &[f64]) -> BodySet {
        let mut set = BodySet::new();
        for (&pos, &m) in positions.iter().zip(masses) {
            set.push(pos, [0.0; 3], m);
        }
        set
    }

    #[test]
    fn the_force_kernel_matches_the_host_reference_bit_for_bit() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let kernel = |targets: &BodySet, sources: &BodySet, grav: Gravity| -> Vec<[u64; 3]> {
            let column = |c: &Vec<f64>| device_column(&node, &stream, c);
            let acc: [CellBuffer; 3] =
                std::array::from_fn(|_| node.device(0).unwrap().alloc_f64(targets.len()).unwrap());
            launch_forces(
                &stream,
                [column(&targets.x), column(&targets.y), column(&targets.z)],
                [column(&sources.x), column(&sources.y), column(&sources.z), column(&sources.m)],
                acc.clone(),
                grav,
            )
            .unwrap();
            let axes: Vec<Vec<f64>> = acc
                .iter()
                .map(|a| {
                    let host = node.host_alloc_f64(a.len());
                    stream.copy(a, &host).unwrap();
                    stream.synchronize().unwrap();
                    host.host_f64_ro().unwrap().to_vec()
                })
                .collect();
            (0..targets.len()).map(|i| [0, 1, 2].map(|k| bits(axes[k][i]))).collect()
        };
        // Finite bodies, coincident pairs and zeros of both signs: with
        // `eps = 0` the pairs at distance zero take the `r2 == 0` path.
        // The signed zero comes first, so target [0, 0, 0] adds its -0.0
        // terms to an accumulator still at +0.0.
        let sources = bodies(
            &[
                [-0.0, 0.0, -0.0],
                [0.5, -0.25, 1.0],
                [0.5, -0.25, 1.0],
                [1e-300, -2.0, 7.0],
                [0.125, 0.75, -3.5],
                [9.0, -8.0, 0.0625],
            ],
            &[1.0, 2.0, 0.0, 3.0, 2.5, 1e-3],
        );
        // Seven targets: one full block of four and a tail of three.
        let targets = bodies(
            &[
                [0.5, -0.25, 1.0],
                [0.0, 0.0, 0.0],
                [1e-300, -2.0, 7.0],
                [-0.0, -0.0, -0.0],
                [0.125, 0.75, -3.5],
                [2.0, -1.0, 3.0],
                [1.0, 1.0, 1.0],
            ],
            &[1.0; 7],
        );
        // Infinite and NaN coordinates, on either side.
        let special = bodies(
            &[
                [3.0, f64::INFINITY, 0.0],
                [f64::NAN, 1.0, 2.0],
                [-2.0, 4.0, f64::NEG_INFINITY],
                [1.0, 1.0, 1.0],
            ],
            &[3.0, 0.5, 4.0, 1.0],
        );
        let cases = [
            (&targets, &sources, Gravity { g: 1.0, eps: 0.0 }),
            (&targets, &sources, Gravity { g: 0.5, eps: 0.05 }),
            (&targets, &special, Gravity { g: 1.0, eps: 0.0 }),
            (&special, &sources, Gravity { g: 1.0, eps: 0.05 }),
        ];
        for (case, (targets, sources, grav)) in cases.into_iter().enumerate() {
            let want = crate::forces::accelerations_host(targets, sources, &grav);
            let got = kernel(targets, sources, grav);
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(*got, want.map(bits), "case {case} target {i}");
            }
        }
    }
}
