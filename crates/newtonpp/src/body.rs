//! Host-side body storage (struct of arrays).

/// A set of bodies in struct-of-arrays layout, the host-side currency of
/// initial-condition generation, repartitioning, and diagnostics. The
/// device-resident state lives in [`crate::Newton`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BodySet {
    /// Positions.
    pub x: Vec<f64>,
    /// Positions.
    pub y: Vec<f64>,
    /// Positions.
    pub z: Vec<f64>,
    /// Velocities.
    pub vx: Vec<f64>,
    /// Velocities.
    pub vy: Vec<f64>,
    /// Velocities.
    pub vz: Vec<f64>,
    /// Masses.
    pub m: Vec<f64>,
}

impl BodySet {
    /// An empty set.
    pub fn new() -> Self {
        BodySet::default()
    }

    /// Pre-allocate for `n` bodies.
    pub fn with_capacity(n: usize) -> Self {
        BodySet {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
            vz: Vec::with_capacity(n),
            m: Vec::with_capacity(n),
        }
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no bodies are held.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one body.
    pub fn push(&mut self, pos: [f64; 3], vel: [f64; 3], mass: f64) {
        self.x.push(pos[0]);
        self.y.push(pos[1]);
        self.z.push(pos[2]);
        self.vx.push(vel[0]);
        self.vy.push(vel[1]);
        self.vz.push(vel[2]);
        self.m.push(mass);
    }

    /// Move body `i` out of this set into `other` (order not preserved:
    /// swap-remove, O(1)).
    pub fn transfer(&mut self, i: usize, other: &mut BodySet) {
        other.push(
            [self.x[i], self.y[i], self.z[i]],
            [self.vx[i], self.vy[i], self.vz[i]],
            self.m[i],
        );
        self.swap_remove(i);
    }

    /// Remove body `i` by swapping in the last body.
    pub fn swap_remove(&mut self, i: usize) {
        self.x.swap_remove(i);
        self.y.swap_remove(i);
        self.z.swap_remove(i);
        self.vx.swap_remove(i);
        self.vy.swap_remove(i);
        self.vz.swap_remove(i);
        self.m.swap_remove(i);
    }

    /// Append all bodies of `other`.
    pub fn extend(&mut self, other: &BodySet) {
        self.x.extend_from_slice(&other.x);
        self.y.extend_from_slice(&other.y);
        self.z.extend_from_slice(&other.z);
        self.vx.extend_from_slice(&other.vx);
        self.vy.extend_from_slice(&other.vy);
        self.vz.extend_from_slice(&other.vz);
        self.m.extend_from_slice(&other.m);
    }

    /// Bytes of the bodies' seven columns: what sending the set moves.
    pub fn payload_bytes(&self) -> usize {
        let columns = [&self.x, &self.y, &self.z, &self.vx, &self.vy, &self.vz, &self.m];
        columns.iter().map(|c| std::mem::size_of_val(&c[..])).sum()
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.m.iter().sum()
    }

    /// Internal consistency check: all arrays equally long.
    pub fn is_consistent(&self) -> bool {
        let n = self.x.len();
        self.y.len() == n
            && self.z.len() == n
            && self.vx.len() == n
            && self.vy.len() == n
            && self.vz.len() == n
            && self.m.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lengths() {
        let mut b = BodySet::new();
        assert!(b.is_empty());
        b.push([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 5.0);
        b.push([4.0, 5.0, 6.0], [0.4, 0.5, 0.6], 7.0);
        assert_eq!(b.len(), 2);
        assert!(b.is_consistent());
        assert_eq!(b.total_mass(), 12.0);
    }

    #[test]
    fn transfer_moves_a_body() {
        let mut a = BodySet::new();
        a.push([1.0; 3], [0.0; 3], 1.0);
        a.push([2.0; 3], [0.0; 3], 2.0);
        a.push([3.0; 3], [0.0; 3], 3.0);
        let mut b = BodySet::new();
        a.transfer(0, &mut b);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.m[0], 1.0);
        // swap_remove brought the last body to slot 0.
        assert_eq!(a.m[0], 3.0);
        assert!(a.is_consistent() && b.is_consistent());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BodySet::new();
        a.push([1.0; 3], [0.0; 3], 1.0);
        let mut b = BodySet::new();
        b.push([2.0; 3], [0.0; 3], 2.0);
        b.push([3.0; 3], [0.0; 3], 3.0);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_mass(), 6.0);
    }
}
