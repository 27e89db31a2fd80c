//! The kick-drift-kick leapfrog: second order, symplectic, and time
//! reversible (§4.1). Host reference implementation; [`crate::Newton`]
//! runs the same scheme as device kernels.

use crate::body::BodySet;
use crate::forces::{accelerations_host, Gravity};

/// The KDK leapfrog stepper over a self-gravitating body set.
pub struct Leapfrog {
    /// Time step.
    pub dt: f64,
    /// Gravity parameters.
    pub grav: Gravity,
    acc: Option<Vec<[f64; 3]>>,
}

impl Leapfrog {
    /// A stepper with time step `dt`.
    pub fn new(dt: f64, grav: Gravity) -> Self {
        assert!(dt != 0.0, "time step must be nonzero (negative reverses time)");
        Leapfrog { dt, grav, acc: None }
    }

    /// Advance `bodies` by one step (self-gravity: sources = targets).
    pub fn step(&mut self, bodies: &mut BodySet) {
        let acc = match self.acc.take() {
            Some(a) if a.len() == bodies.len() => a,
            _ => accelerations_host(bodies, bodies, &self.grav),
        };
        let half = 0.5 * self.dt;
        // Kick (half).
        for (i, a) in acc.iter().enumerate() {
            bodies.vx[i] += a[0] * half;
            bodies.vy[i] += a[1] * half;
            bodies.vz[i] += a[2] * half;
        }
        // Drift (full).
        for i in 0..bodies.len() {
            bodies.x[i] += bodies.vx[i] * self.dt;
            bodies.y[i] += bodies.vy[i] * self.dt;
            bodies.z[i] += bodies.vz[i] * self.dt;
        }
        // New accelerations, kick (half).
        let acc = accelerations_host(bodies, bodies, &self.grav);
        for (i, a) in acc.iter().enumerate() {
            bodies.vx[i] += a[0] * half;
            bodies.vy[i] += a[1] * half;
            bodies.vz[i] += a[2] * half;
        }
        self.acc = Some(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{kinetic_energy, potential_energy, total_momentum};

    /// A two-body circular orbit: light body around a heavy one.
    fn circular_pair(g: f64) -> (BodySet, f64) {
        let m_big = 1000.0;
        let r = 1.0;
        let v = (g * m_big / r).sqrt();
        let mut b = BodySet::new();
        b.push([0.0; 3], [0.0; 3], m_big);
        b.push([r, 0.0, 0.0], [0.0, v, 0.0], 1e-6);
        let period = std::f64::consts::TAU * r / v;
        (b, period)
    }

    #[test]
    fn circular_orbit_returns_after_one_period() {
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let (mut b, period) = circular_pair(grav.g);
        let steps = 2000;
        let mut lf = Leapfrog::new(period / steps as f64, grav);
        for _ in 0..steps {
            lf.step(&mut b);
        }
        assert!((b.x[1] - 1.0).abs() < 1e-3, "x after period: {}", b.x[1]);
        assert!(b.y[1].abs() < 1e-2, "y after period: {}", b.y[1]);
    }

    #[test]
    fn energy_is_conserved_over_many_steps() {
        let grav = Gravity { g: 1.0, eps: 0.01 };
        let (mut b, period) = circular_pair(grav.g);
        let mut lf = Leapfrog::new(period / 500.0, grav);
        let e0 = kinetic_energy(&b) + potential_energy(&b, &grav);
        for _ in 0..2500 {
            lf.step(&mut b);
        }
        let e1 = kinetic_energy(&b) + potential_energy(&b, &grav);
        let drift = ((e1 - e0) / e0.abs()).abs();
        assert!(drift < 1e-4, "relative energy drift {drift}");
    }

    #[test]
    fn momentum_is_conserved_exactly_ish() {
        let grav = Gravity { g: 1.0, eps: 0.05 };
        let mut b = BodySet::new();
        b.push([0.0, 0.0, 0.0], [0.1, 0.0, 0.0], 5.0);
        b.push([1.0, 0.5, 0.0], [-0.1, 0.2, 0.0], 3.0);
        b.push([-0.5, 1.0, 0.5], [0.0, -0.1, 0.1], 2.0);
        let p0 = total_momentum(&b);
        let mut lf = Leapfrog::new(0.01, grav);
        for _ in 0..500 {
            lf.step(&mut b);
        }
        let p1 = total_momentum(&b);
        for k in 0..3 {
            assert!((p1[k] - p0[k]).abs() < 1e-10, "momentum component {k}");
        }
    }

    #[test]
    fn integration_is_time_reversible() {
        let grav = Gravity { g: 1.0, eps: 0.02 };
        let mut b = BodySet::new();
        b.push([0.0; 3], [0.0; 3], 100.0);
        b.push([1.0, 0.0, 0.0], [0.0, 8.0, 0.0], 1.0);
        b.push([0.0, 1.5, 0.0], [-7.0, 0.0, 0.5], 1.0);
        let initial = b.clone();

        let mut fwd = Leapfrog::new(0.001, grav);
        for _ in 0..200 {
            fwd.step(&mut b);
        }
        // Reverse time and step back.
        let mut bwd = Leapfrog::new(-0.001, grav);
        for _ in 0..200 {
            bwd.step(&mut b);
        }
        for i in 0..b.len() {
            assert!((b.x[i] - initial.x[i]).abs() < 1e-9, "body {i} x");
            assert!((b.y[i] - initial.y[i]).abs() < 1e-9, "body {i} y");
            assert!((b.z[i] - initial.z[i]).abs() < 1e-9, "body {i} z");
            assert!((b.vx[i] - initial.vx[i]).abs() < 1e-9, "body {i} vx");
        }
    }

    #[test]
    fn second_order_convergence() {
        // Halving dt should cut the one-period position error ~4x.
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let err = |steps: usize| {
            let (mut b, period) = circular_pair(grav.g);
            let mut lf = Leapfrog::new(period / steps as f64, grav);
            for _ in 0..steps {
                lf.step(&mut b);
            }
            ((b.x[1] - 1.0).powi(2) + b.y[1].powi(2)).sqrt()
        };
        let e1 = err(400);
        let e2 = err(800);
        let order = (e1 / e2).log2();
        assert!(order > 1.7, "observed order {order} (e1={e1:.2e}, e2={e2:.2e})");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dt_rejected() {
        Leapfrog::new(0.0, Gravity::default());
    }
}
