//! Softened Newtonian gravity: the direct (all-pairs) force evaluation.
//!
//! The host implementation is the physics reference used by tests; the
//! device kernel in [`crate::Newton`] computes the same expression on the
//! simulated accelerator through [`accelerations`], which sweeps the
//! sources once per block of targets.

use crate::body::BodySet;

/// Gravity parameters shared by the host and device force paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity {
    /// Gravitational constant.
    pub g: f64,
    /// Plummer softening length (avoids the 1/r² singularity).
    pub eps: f64,
}

impl Default for Gravity {
    fn default() -> Self {
        Gravity { g: 1.0, eps: 1e-3 }
    }
}

/// Acceleration on a body at `(xi, yi, zi)` due to one source body.
/// Self-interaction (identical positions) contributes nothing through
/// the softening as long as `eps > 0`; exact coincidence with `eps = 0`
/// is guarded to return zero.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the flat kernel signature; packing into arrays costs in the hot loop
pub fn pair_accel(
    xi: f64,
    yi: f64,
    zi: f64,
    xj: f64,
    yj: f64,
    zj: f64,
    mj: f64,
    grav: &Gravity,
) -> [f64; 3] {
    let dx = xj - xi;
    let dy = yj - yi;
    let dz = zj - zi;
    let r2 = dx * dx + dy * dy + dz * dz + grav.eps * grav.eps;
    if r2 == 0.0 {
        return [0.0; 3];
    }
    let inv_r = 1.0 / r2.sqrt();
    let f = grav.g * mj * inv_r * inv_r * inv_r;
    [f * dx, f * dy, f * dz]
}

/// Accelerations of `targets` due to every body in `sources` (host
/// reference implementation). A target that coincides with a source with
/// identical position contributes zero when softened — excluding true
/// self-interaction of shared bodies is therefore automatic.
pub fn accelerations_host(targets: &BodySet, sources: &BodySet, grav: &Gravity) -> Vec<[f64; 3]> {
    let mut acc = vec![[0.0; 3]; targets.len()];
    for (i, out) in acc.iter_mut().enumerate() {
        let (xi, yi, zi) = (targets.x[i], targets.y[i], targets.z[i]);
        let mut a = [0.0; 3];
        for j in 0..sources.len() {
            let da = pair_accel(
                xi,
                yi,
                zi,
                sources.x[j],
                sources.y[j],
                sources.z[j],
                sources.m[j],
                grav,
            );
            a[0] += da[0];
            a[1] += da[1];
            a[2] += da[2];
        }
        *out = a;
    }
    acc
}

/// Targets one source sweep of [`accelerations`] advances together: enough
/// independent sums to fill the vector unit, few enough to stay in
/// registers. On 512 targets x 1 024 sources, default x86-64 (SSE2)
/// target, 2-vCPU Xeon: 0.76-0.78 ms at 4, 0.76 ms at 8, against
/// 1.54-1.56 ms for the one-target loop over atomic cells it replaced.
const TARGET_BLOCK: usize = 4;

/// Accelerations of the bodies at `targets` (`x, y, z`) due to every body
/// in `sources` (`x, y, z, m`), handed to `out` as `(target, [ax, ay,
/// az])` in target order.
///
/// The sources are swept once per block of `TARGET_BLOCK` (4) targets, and
/// the compiler vectorises across the block. Every target still sums its
/// sources on its own, in source order, with [`pair_accel`]'s operations
/// in [`pair_accel`]'s order (Rust never fuses a multiply-add), so each
/// result is bit-identical to [`accelerations_host`]'s — a NaN result is
/// a NaN there too, though not necessarily the same one: Rust leaves the
/// sign and payload of a NaN an operation produces unspecified.
///
/// A pair with `r2 == 0`, where [`pair_accel`] returns `+0.0`, has its
/// factor `f` masked to `+0.0` instead of branched on, so the block stays
/// one vector. Its terms `f * dx` are then zeros of either sign (`dx` is a
/// finite zero or underflows), and adding `-0.0` changes no bit of an
/// accumulator that is not itself `-0.0` — which one that starts at `+0.0`
/// never becomes: a round-to-nearest sum is `-0.0` only when both addends
/// are. A short last block is padded with lanes whose results are
/// dropped.
///
/// # Panics
/// Panics if the target or source columns differ in length.
pub fn accelerations(
    targets: [&[f64]; 3],
    sources: [&[f64]; 4],
    grav: &Gravity,
    mut out: impl FnMut(usize, [f64; 3]),
) {
    let [tx, ty, tz] = targets;
    let [sx, sy, sz, sm] = sources;
    assert!(ty.len() == tx.len() && tz.len() == tx.len(), "target columns differ in length");
    assert!([sy, sz, sm].iter().all(|c| c.len() == sx.len()), "source columns differ in length");
    let eps2 = grav.eps * grav.eps;
    for start in (0..tx.len()).step_by(TARGET_BLOCK) {
        let lanes = TARGET_BLOCK.min(tx.len() - start);
        let block = |col: &[f64]| {
            let mut lane = [0.0; TARGET_BLOCK];
            lane[..lanes].copy_from_slice(&col[start..start + lanes]);
            lane
        };
        let (xi, yi, zi) = (block(tx), block(ty), block(tz));
        let mut acc = [[0.0; TARGET_BLOCK]; 3];
        for (((&xj, &yj), &zj), &mj) in sx.iter().zip(sy).zip(sz).zip(sm) {
            for b in 0..TARGET_BLOCK {
                let dx = xj - xi[b];
                let dy = yj - yi[b];
                let dz = zj - zi[b];
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let inv_r = 1.0 / r2.sqrt();
                let keep = if r2 == 0.0 { 0 } else { u64::MAX };
                let f = f64::from_bits((grav.g * mj * inv_r * inv_r * inv_r).to_bits() & keep);
                acc[0][b] += f * dx;
                acc[1][b] += f * dy;
                acc[2][b] += f * dz;
            }
        }
        (0..lanes).for_each(|b| out(start + b, acc.map(|axis| axis[b])));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bodies_attract_along_the_separation() {
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let a = pair_accel(0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 8.0, &grav);
        // |a| = G m / r^2 = 8/4 = 2, pointing +x.
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert_eq!(a[1], 0.0);
        assert_eq!(a[2], 0.0);
    }

    #[test]
    fn softening_caps_close_encounters() {
        let soft = Gravity { g: 1.0, eps: 0.1 };
        let near = pair_accel(0.0, 0.0, 0.0, 1e-8, 0.0, 0.0, 1.0, &soft);
        // With eps = 0.1 the acceleration is bounded by ~ G m d / eps^3.
        assert!(near[0].abs() < 1e-8 / (0.1f64.powi(3)) + 1e-6);
        assert!(near[0].is_finite());
    }

    #[test]
    fn coincident_bodies_with_zero_eps_do_not_nan() {
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let a = pair_accel(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, &grav);
        assert_eq!(a, [0.0; 3]);
    }

    #[test]
    fn forces_are_antisymmetric() {
        let grav = Gravity { g: 1.0, eps: 0.01 };
        let mut bodies = BodySet::new();
        bodies.push([0.0, 0.0, 0.0], [0.0; 3], 3.0);
        bodies.push([1.0, 2.0, -1.0], [0.0; 3], 5.0);
        let acc = accelerations_host(&bodies, &bodies, &grav);
        // m0*a0 + m1*a1 = 0 (Newton's third law over the pair).
        for (k, (a0, a1)) in acc[0].iter().zip(&acc[1]).enumerate() {
            let net = 3.0 * a0 + 5.0 * a1;
            assert!(net.abs() < 1e-12, "component {k}: {net}");
        }
    }

    #[test]
    fn superposition_over_sources() {
        let grav = Gravity::default();
        let mut t = BodySet::new();
        t.push([0.0; 3], [0.0; 3], 1.0);
        let mut s1 = BodySet::new();
        s1.push([1.0, 0.0, 0.0], [0.0; 3], 2.0);
        let mut s2 = BodySet::new();
        s2.push([0.0, 1.0, 0.0], [0.0; 3], 4.0);
        let mut both = s1.clone();
        both.extend(&s2);
        let a1 = accelerations_host(&t, &s1, &grav)[0];
        let a2 = accelerations_host(&t, &s2, &grav)[0];
        let ab = accelerations_host(&t, &both, &grav)[0];
        for k in 0..3 {
            assert!((ab[k] - (a1[k] + a2[k])).abs() < 1e-12);
        }
    }
}
