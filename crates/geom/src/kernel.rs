//! Kernel generations for the dominance-heavy inner loops.
//!
//! The SoA [`crate::PointBlock`] layout stores coordinates as flat
//! `&[f64]` rows precisely so the dominance tests can run without
//! pointer chasing — this module adds a second *generation* of those
//! tests that exploits the layout. Every scalar kernel
//! ([`crate::dominance::dominates_raw`], [`crate::dominance::compare_raw`],
//! [`Aabb::contains_coords`], …) early-exits per element, which is
//! optimal when the first coordinate already decides the outcome but
//! costs a data-dependent branch per element; on random data roughly
//! half of those branches mispredict. The **wide** generation instead
//! processes rows in fixed-size lane blocks with branch-free boolean
//! accumulation — exactly the shape the autovectorizer turns into packed
//! `f64` compares plus a movmsk — and branches at most once per row.
//!
//! The two generations are *bitwise equivalent*: each wide kernel
//! accumulates precisely the predicates its scalar twin tests (`a > b`,
//! `a < b`, …), so even exotic inputs (signed zeros, infinities, equal
//! rows) classify identically. `tests/prop_kernels.rs` pins this
//! differentially.
//!
//! Selection is runtime, not compile-time, and a pure function of
//! dimensionality: hot loops hoist [`Kernel::for_dims`] once per loop,
//! which picks the wide generation at [`WIDE_MIN_DIMS`] dimensions and
//! up — where lane blocks amortize — and the scalar generation below,
//! where the early exit usually fires within the first couple of
//! elements and branch-free full-row scans only waste work (measured:
//! wide is ≥ 1.3× faster on the d = 6 block-filter microbench but loses
//! up to 25% end-to-end on the d = 4 paper workloads). Code that must
//! run one particular generation (the differential tests, the `repro
//! perf` microbench) names the [`Kernel`] value explicitly.

use crate::dominance::{compare_raw, dominance_box_coords, dominates_raw, DomRelation};
use crate::{Aabb, Constraints};

/// Number of `f64` lanes each wide-kernel block processes branch-free.
/// Matches one AVX2 register (4 × 64 bit); on narrower targets the
/// autovectorizer splits the block into two 128-bit halves.
pub const WIDE_LANES: usize = 4;

/// A dominance-kernel generation: which implementation of the row-level
/// geometric predicates the hot loops run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Per-element loops with early exit (the original generation).
    Scalar,
    /// Lane-blocked, branch-free accumulation (autovectorizer-friendly).
    Wide,
}

/// Dimensionality at and above which [`Kernel::for_dims`] selects
/// the wide generation. Calibrated on the paper workloads: at d ≤ 4 the
/// scalar early exit decides most row pairs within two comparisons and
/// wins end-to-end; from d = 5 the lane-blocked scan amortizes its
/// branch-free full-row cost.
pub const WIDE_MIN_DIMS: usize = 5;

impl Kernel {
    /// The generation the hot loops should run for `dims`-dimensional
    /// rows: wide at [`WIDE_MIN_DIMS`] and up, scalar below. Callers
    /// hoist the result once per loop rather than per row.
    #[inline]
    pub fn for_dims(dims: usize) -> Kernel {
        if dims >= WIDE_MIN_DIMS {
            Kernel::Wide
        } else {
            Kernel::Scalar
        }
    }

    /// Kernel-dispatched strict Pareto dominance `s ≺ t`.
    #[inline]
    pub fn dominates(self, s: &[f64], t: &[f64]) -> bool {
        match self {
            Kernel::Scalar => dominates_raw(s, t),
            Kernel::Wide => dominates_wide(s, t),
        }
    }

    /// Kernel-dispatched single-pass dominance classification.
    #[inline]
    pub fn compare(self, s: &[f64], t: &[f64]) -> DomRelation {
        match self {
            Kernel::Scalar => compare_raw(s, t),
            Kernel::Wide => compare_wide(s, t),
        }
    }

    /// Kernel-dispatched closed-box membership `lo ≤ row ≤ hi`.
    #[inline]
    pub fn contains(self, lo: &[f64], hi: &[f64], row: &[f64]) -> bool {
        match self {
            Kernel::Scalar => lo.iter().zip(hi).zip(row).all(|((l, h), c)| l <= c && c <= h),
            Kernel::Wide => contains_coords_wide(lo, hi, row),
        }
    }

    /// Kernel-dispatched constrained dominance box `DR(s, C)` (see
    /// [`crate::dominance::dominance_box_coords`]).
    #[inline]
    pub fn dominance_box(self, s: &[f64], c: &Constraints) -> Option<Aabb> {
        match self {
            Kernel::Scalar => dominance_box_coords(s, c),
            Kernel::Wide => dominance_box_coords_wide(s, c),
        }
    }
}

/// Wide generation of [`dominates_raw`]: accumulates `any(s[i] > t[i])`
/// and `any(s[i] < t[i])` over [`WIDE_LANES`]-element blocks with no
/// per-element branch, then decides once: `s ≺ t ⇔ ¬any_gt ∧ any_lt`.
#[inline]
pub fn dominates_wide(s: &[f64], t: &[f64]) -> bool {
    debug_assert_eq!(s.len(), t.len());
    let mut any_gt = false;
    let mut any_lt = false;
    let mut sc = s.chunks_exact(WIDE_LANES);
    let mut tc = t.chunks_exact(WIDE_LANES);
    for (a, b) in sc.by_ref().zip(tc.by_ref()) {
        let mut gt = false;
        let mut lt = false;
        for l in 0..WIDE_LANES {
            gt |= a[l] > b[l];
            lt |= a[l] < b[l];
        }
        any_gt |= gt;
        any_lt |= lt;
    }
    for (a, b) in sc.remainder().iter().zip(tc.remainder()) {
        any_gt |= a > b;
        any_lt |= a < b;
    }
    !any_gt && any_lt
}

/// Wide generation of [`compare_raw`]: same lane-blocked accumulation of
/// the `s[i] < t[i]` / `t[i] < s[i]` witnesses, classified once at the
/// end instead of early-returning `Incomparable` mid-row.
#[inline]
pub fn compare_wide(s: &[f64], t: &[f64]) -> DomRelation {
    debug_assert_eq!(s.len(), t.len());
    let mut s_less = false;
    let mut t_less = false;
    let mut sc = s.chunks_exact(WIDE_LANES);
    let mut tc = t.chunks_exact(WIDE_LANES);
    for (a, b) in sc.by_ref().zip(tc.by_ref()) {
        let mut sl = false;
        let mut tl = false;
        for l in 0..WIDE_LANES {
            sl |= a[l] < b[l];
            tl |= b[l] < a[l];
        }
        s_less |= sl;
        t_less |= tl;
    }
    for (a, b) in sc.remainder().iter().zip(tc.remainder()) {
        s_less |= a < b;
        t_less |= b < a;
    }
    match (s_less, t_less) {
        (true, true) => DomRelation::Incomparable,
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
    }
}

/// Wide generation of [`Aabb::contains_coords`] /
/// [`Constraints::satisfies_coords`]: accumulates the same
/// `lo[i] ≤ row[i] ∧ row[i] ≤ hi[i]` conjunction branch-free.
#[inline]
pub fn contains_coords_wide(lo: &[f64], hi: &[f64], row: &[f64]) -> bool {
    debug_assert_eq!(lo.len(), row.len());
    debug_assert_eq!(hi.len(), row.len());
    let mut inside = true;
    let mut lc = lo.chunks_exact(WIDE_LANES);
    let mut hc = hi.chunks_exact(WIDE_LANES);
    let mut rc = row.chunks_exact(WIDE_LANES);
    for ((l, h), r) in lc.by_ref().zip(hc.by_ref()).zip(rc.by_ref()) {
        let mut ok = true;
        for i in 0..WIDE_LANES {
            ok &= l[i] <= r[i] && r[i] <= h[i];
        }
        inside &= ok;
    }
    for ((l, h), r) in lc.remainder().iter().zip(hc.remainder()).zip(rc.remainder()) {
        inside &= l <= r && r <= h;
    }
    inside
}

/// Wide generation of [`dominance_box_coords`]: the `s[i] > C̄[i]`
/// emptiness scan runs lane-blocked; box construction is unchanged (it
/// allocates the corner vectors either way and is not loop-hot).
pub fn dominance_box_coords_wide(s: &[f64], c: &Constraints) -> Option<Aabb> {
    debug_assert_eq!(s.len(), c.dims());
    let hi = c.hi();
    let mut beyond = false;
    let mut sc = s.chunks_exact(WIDE_LANES);
    let mut hc = hi.chunks_exact(WIDE_LANES);
    for (a, b) in sc.by_ref().zip(hc.by_ref()) {
        let mut gt = false;
        for l in 0..WIDE_LANES {
            gt |= a[l] > b[l];
        }
        beyond |= gt;
    }
    for (a, b) in sc.remainder().iter().zip(hc.remainder()) {
        beyond |= a > b;
    }
    if beyond {
        return None;
    }
    let lo: Vec<f64> = s.iter().zip(c.lo()).map(|(a, b)| a.max(*b)).collect();
    Some(Aabb::new_unchecked(lo, hi.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_by_dims() {
        assert_eq!(Kernel::for_dims(1), Kernel::Scalar);
        assert_eq!(Kernel::for_dims(WIDE_MIN_DIMS - 1), Kernel::Scalar);
        assert_eq!(Kernel::for_dims(WIDE_MIN_DIMS), Kernel::Wide);
        assert_eq!(Kernel::for_dims(WIDE_MIN_DIMS + 3), Kernel::Wide);
    }

    /// Hand-picked rows covering every classification plus the equal /
    /// signed-zero / long-row edges; the bulk differential coverage
    /// lives in `tests/prop_kernels.rs`.
    #[test]
    fn wide_matches_scalar_on_edge_rows() {
        let rows: [&[f64]; 8] = [
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0, 2.0, 3.0, 4.0, 6.0],
            &[-0.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, -0.0, 3.0, 4.0, 5.0],
            &[f64::NEG_INFINITY, 2.0, 3.0, 4.0, f64::INFINITY],
            &[5.0, 4.0, 3.0, 2.0, 1.0],
        ];
        for s in rows {
            for t in rows {
                assert_eq!(dominates_wide(s, t), dominates_raw(s, t), "{s:?} vs {t:?}");
                assert_eq!(compare_wide(s, t), compare_raw(s, t), "{s:?} vs {t:?}");
            }
        }
        // Short rows exercise the pure-remainder path.
        assert!(dominates_wide(&[1.0], &[2.0]));
        assert!(!dominates_wide(&[1.0], &[1.0]));
        assert_eq!(compare_wide(&[2.0], &[1.0]), DomRelation::DominatedBy);
        // Empty rows: nothing is strictly smaller, so Equal / no dominance.
        assert!(!dominates_wide(&[], &[]));
        assert_eq!(compare_wide(&[], &[]), DomRelation::Equal);
    }

    #[test]
    fn contains_wide_matches_aabb() {
        let lo = [0.0, 0.0, 0.0, 0.0, 0.0];
        let hi = [1.0, 1.0, 1.0, 1.0, 1.0];
        let aabb = Aabb::new(lo.to_vec(), hi.to_vec()).unwrap();
        let rows: [&[f64]; 5] = [
            &[0.5, 0.5, 0.5, 0.5, 0.5],
            &[0.0, 1.0, 0.0, 1.0, 0.0],
            &[-0.0, 0.5, 0.5, 0.5, 1.0],
            &[0.5, 0.5, 0.5, 0.5, 1.1],
            &[-0.1, 0.5, 0.5, 0.5, 0.5],
        ];
        for r in rows {
            assert_eq!(contains_coords_wide(&lo, &hi, r), aabb.contains_coords(r), "{r:?}");
            for k in [Kernel::Scalar, Kernel::Wide] {
                assert_eq!(k.contains(&lo, &hi, r), aabb.contains_coords(r), "{k:?} {r:?}");
            }
        }
    }

    #[test]
    fn dominance_box_wide_matches_scalar() {
        let c = Constraints::new(vec![0.0; 5], vec![10.0; 5]).unwrap();
        let rows: [&[f64]; 4] = [
            &[2.0, 3.0, 4.0, 5.0, 6.0],
            &[-5.0, 3.0, 4.0, 5.0, 6.0],
            &[2.0, 3.0, 4.0, 5.0, 11.0],
            &[0.0, -0.0, 0.0, 0.0, 0.0],
        ];
        for s in rows {
            let want = dominance_box_coords(s, &c);
            let got = dominance_box_coords_wide(s, &c);
            assert_eq!(got.is_some(), want.is_some(), "{s:?}");
            if let (Some(a), Some(b)) = (got, want) {
                assert_eq!(a.lo(), b.lo());
                assert_eq!(a.hi(), b.hi());
            }
        }
    }
}
