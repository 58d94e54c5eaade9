//! Newton-basis shift pipeline: Ritz-value harvesting and modified Leja
//! ordering.
//!
//! For larger step sizes `s` the monomial basis `v, Av, A²v, …` of the
//! matrix-powers kernel becomes numerically dependent (its condition number
//! grows like the power iteration's), and Carson & Ma's backward-stability
//! analysis of s-step GMRES shows `κ(basis)` entering the attainable
//! accuracy directly.  The standard remedy is the **Newton basis**
//! `v, (A−θ₁I)v, (A−θ₂I)(A−θ₁I)v, …` with the shifts `θ_k` chosen as Ritz
//! values of `A` in **modified Leja order** — spread-out interpolation
//! points that keep the basis polynomials balanced.
//!
//! The pipeline implemented here:
//!
//! 1. **Harvest** — after a (monomial warm-up) restart cycle, take the
//!    leading `k×k` block of the recovered Hessenberg matrix and compute its
//!    eigenvalues (the Ritz values) with [`dense::hessenberg_eigvals`];
//! 2. **Dedupe/cap** — collapse clustered Ritz values (repeated shifts add
//!    no conditioning benefit and waste distinct interpolation points) and
//!    treat near-real pairs as real;
//! 3. **Order** — [`modified_leja_order`] arranges the points so each
//!    successive shift maximizes the product of distances to all previous
//!    ones, with complex-conjugate pairs kept adjacent so a real-arithmetic
//!    implementation can pair them;
//! 4. **Realize** — a cycle's Krylov basis is a list of real shifts
//!    ([`crate::basis::shift`]), so each point contributes its real part (a
//!    conjugate pair contributes it twice, adjacently).  For the
//!    real-spectrum problems of the paper's evaluation the Ritz values are
//!    real and this is exact; for genuinely complex pairs it is the common
//!    real-part simplification, which still centers the basis polynomials
//!    on the spectrum.
//!
//! Everything here is deterministic and communication-free: the Hessenberg
//! matrix is replicated on every rank (it is recovered from the replicated
//! `R` factor), so every rank computes identical shifts without a single
//! extra message — the adaptive basis changes **no** communication counts.

use crate::hessenberg::HessenbergRecovery;
use dense::Matrix;

/// A spectral point `re + i·im` (Ritz value) used as a shift candidate.
pub type SpectralPoint = (f64, f64);

/// Default relative tolerance below which two Ritz values are considered
/// the same cluster (and an imaginary part is considered zero).
pub const DEFAULT_DEDUP_RTOL: f64 = 1e-8;

/// Recovered Hessenberg columns [`crate::BasisStrategy::Adaptive`] needs
/// before it acts on a harvest (below it the Ritz values are too crude to
/// help; the cycle keeps the monomial basis).
pub(crate) const ADAPTIVE_MIN_HESSENBERG: usize = 4;

/// Ritz values of the leading `k×k` block of a recovered `(m+1)×m`
/// Hessenberg matrix.  Returns `None` when `k == 0` or the QR iteration
/// fails (the caller falls back to the monomial basis).
fn ritz_values(hess: &HessenbergRecovery, k: usize) -> Option<Vec<SpectralPoint>> {
    let k = k.min(hess.recovered());
    if k == 0 {
        return None;
    }
    let h = hess.matrix();
    let block = Matrix::from_fn(k, k, |i, j| h[(i, j)]);
    dense::hessenberg_eigvals(&block).ok()
}

/// Modulus of a spectral point.
fn modulus(z: SpectralPoint) -> f64 {
    z.0.hypot(z.1)
}

/// Deterministic total order used only for tie-breaking, so the ordering is
/// a function of the input *multiset* (never of its storage order): larger
/// objective first, then larger real part, then larger imaginary part (the
/// `im > 0` member of a conjugate pair wins over its mirror).
fn better(candidate: (f64, SpectralPoint), best: (f64, SpectralPoint)) -> bool {
    let (cv, cz) = candidate;
    let (bv, bz) = best;
    if cv != bv {
        return cv > bv;
    }
    if cz.0 != bz.0 {
        return cz.0 > bz.0;
    }
    cz.1 > bz.1
}

/// Modified Leja ordering of spectral points.
///
/// The first point maximizes `|z|`; each subsequent point maximizes
/// `∏ |z − θ_j|` over the already-chosen `θ_j` (computed as a sum of
/// logarithms so products spanning many orders of magnitude neither
/// overflow nor underflow).  The *modified* constraint: whenever a point
/// with nonzero imaginary part is chosen, its complex conjugate (if
/// present among the remaining candidates) is placed immediately after it,
/// so conjugate pairs stay adjacent — the requirement for real-arithmetic
/// Newton recurrences.  Ties are broken by a fixed lexicographic rule, so
/// the output depends only on the input multiset.
pub fn modified_leja_order(points: &[SpectralPoint]) -> Vec<SpectralPoint> {
    leja_prefix(points, points.len())
}

/// The leading `limit` (or a few more, to complete a conjugate pair) points
/// of the modified Leja ordering.  The greedy selection makes any prefix of
/// the full ordering independent of `limit`, so capped callers
/// ([`newton_shifts`]) can stop early instead of ordering the whole
/// spectrum.  Running log-products are maintained incrementally (one `ln`
/// per candidate per chosen point), so the cost is `O(chosen · n)`.
fn leja_prefix(points: &[SpectralPoint], limit: usize) -> Vec<SpectralPoint> {
    let n = points.len();
    // Canonicalize the scan order so the output is invariant under input
    // permutations even in exact ties.
    let mut pool: Vec<SpectralPoint> = points.to_vec();
    pool.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut used = vec![false; n];
    // Running objective per candidate: ln|z| before the first pick (the
    // first point maximizes the modulus), then the accumulated log-product
    // of distances to every chosen point.  An exact repeat of a chosen
    // point contributes ln(MIN_POSITIVE), which still orders
    // deterministically behind everything.
    let mut logprod: Vec<f64> = pool
        .iter()
        .map(|&z| modulus(z).max(f64::MIN_POSITIVE).ln())
        .collect();
    let mut first_pick = true;
    let mut out: Vec<SpectralPoint> = Vec::with_capacity(limit.min(n));
    while out.len() < limit.min(n) {
        let mut best: Option<(f64, usize)> = None;
        for (idx, &z) in pool.iter().enumerate() {
            if used[idx] {
                continue;
            }
            let is_better = match best {
                None => true,
                Some((bv, bidx)) => better((logprod[idx], z), (bv, pool[bidx])),
            };
            if is_better {
                best = Some((logprod[idx], idx));
            }
        }
        let (_, idx) = best.expect("non-empty candidate pool");
        let mut appended = vec![idx];
        used[idx] = true;
        let z = pool[idx];
        out.push(z);
        if z.1 != 0.0 {
            // Conjugate-pair adjacency: place the mirror point next.
            if let Some(cidx) = (0..n).find(|&i| !used[i] && pool[i].0 == z.0 && pool[i].1 == -z.1)
            {
                used[cidx] = true;
                out.push(pool[cidx]);
                appended.push(cidx);
            }
        }
        if first_pick {
            // Switch the objective from modulus to distance products.
            logprod.iter_mut().for_each(|v| *v = 0.0);
            first_pick = false;
        }
        for &a in &appended {
            let c = pool[a];
            for (i, v) in logprod.iter_mut().enumerate() {
                if !used[i] {
                    *v += (pool[i].0 - c.0)
                        .hypot(pool[i].1 - c.1)
                        .max(f64::MIN_POSITIVE)
                        .ln();
                }
            }
        }
    }
    out
}

/// Collapse clustered spectral points and canonicalize near-real ones.
///
/// Points within `rtol · max|z|` of an already-kept point are dropped
/// (clustered Ritz values of a tight spectrum would otherwise spend several
/// of the few available shifts on the same location); imaginary parts below
/// the same tolerance are snapped to zero first, so a nearly-real pair
/// collapses to one real point instead of a conjugate pair whose members
/// would dedupe each other asymmetrically.  Conjugate closure is preserved:
/// deduplication runs on the `im ≥ 0` representatives and mirrors kept
/// complex points back.
pub fn dedupe_points(points: &[SpectralPoint], rtol: f64) -> Vec<SpectralPoint> {
    let scale = points.iter().map(|&z| modulus(z)).fold(0.0f64, f64::max);
    if scale == 0.0 {
        return if points.is_empty() {
            Vec::new()
        } else {
            vec![(0.0, 0.0)]
        };
    }
    let tol = rtol * scale;
    // Snap near-real, keep only im >= 0 representatives.
    let mut reps: Vec<SpectralPoint> = points
        .iter()
        .map(|&(re, im)| if im.abs() <= tol { (re, 0.0) } else { (re, im) })
        .filter(|&(_, im)| im >= 0.0)
        .collect();
    reps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut kept: Vec<SpectralPoint> = Vec::new();
    for z in reps {
        if kept.iter().all(|&c| (z.0 - c.0).hypot(z.1 - c.1) > tol) {
            kept.push(z);
        }
    }
    // Mirror complex representatives back into conjugate pairs.
    let mut out = Vec::with_capacity(kept.len() * 2);
    for z in kept {
        out.push(z);
        if z.1 > 0.0 {
            out.push((z.0, -z.1));
        }
    }
    out
}

/// The full shift pipeline: dedupe → modified Leja order → real shifts,
/// capped at `max_shifts` without splitting a conjugate pair across the
/// cap (the shift list is cycled by the matrix-powers kernel, so a split
/// pair would lose its adjacency at the wrap-around).
///
/// Returns `None` when no usable shift survives (empty input, or all
/// points collapse onto zero) — callers fall back to the monomial basis.
pub fn newton_shifts(ritz: &[SpectralPoint], max_shifts: usize, rtol: f64) -> Option<Vec<f64>> {
    if ritz.is_empty() || max_shifts == 0 {
        return None;
    }
    // Order only one point past the cap: the greedy prefix is independent
    // of how far the ordering runs, and one extra point is exactly what the
    // pair-split check below needs.
    let ordered = leja_prefix(&dedupe_points(ritz, rtol), max_shifts + 1);
    let mut cut = max_shifts.min(ordered.len());
    // Do not split a conjugate pair at the cap: drop the pair whole when
    // the cap lands between a pair's leading member (im > 0, emitted
    // first) and its mirror.
    if cut < ordered.len()
        && ordered[cut - 1].1 > 0.0
        && ordered[cut] == (ordered[cut - 1].0, -ordered[cut - 1].1)
    {
        cut -= 1;
    }
    let shifts: Vec<f64> = ordered[..cut].iter().map(|&(re, _)| re).collect();
    if shifts.is_empty() || shifts.iter().all(|&s| s == 0.0) {
        return None;
    }
    Some(shifts)
}

/// Harvest Leja-ordered Newton shifts from a recovered Hessenberg matrix:
/// the Ritz values of the leading `k×k` block, then [`newton_shifts`] at
/// [`DEFAULT_DEDUP_RTOL`].
///
/// `None` when the block is empty, the eigensolve fails, or no nonzero
/// shift survives deduplication — the adaptive solver falls back to the
/// monomial basis in all three cases.
pub fn harvest_newton_shifts(
    hess: &HessenbergRecovery,
    k: usize,
    max_shifts: usize,
) -> Option<Vec<f64>> {
    newton_shifts(&ritz_values(hess, k)?, max_shifts, DEFAULT_DEDUP_RTOL)
}

/// Condition number of the (column-normalized) `s+1`-column Krylov basis
/// generated by the matrix-powers kernel under the shift list `shifts`
/// (empty = monomial), starting from `v0`.
///
/// This is the `κ(basis)` the paper's Fig. 9 tracks and the quantity the
/// basis-comparison experiment records: each column is scaled to unit norm
/// (the conditioning of the *directions* is what the orthogonalization has
/// to repair; column scaling is repaired for free by the R factor), and the
/// singular values come from the Jacobi SVD so values near `1/ε` are still
/// resolved.
pub fn basis_condition_number(a: &sparse::Csr, shifts: &[f64], s: usize, v0: &[f64]) -> f64 {
    let n = a.nrows();
    assert_eq!(v0.len(), n, "start vector length mismatch");
    let mut w = Matrix::zeros(n, s + 1);
    w.col_mut(0).copy_from_slice(v0);
    normalize(w.col_mut(0));
    for k in 0..s {
        let input = w.col(k).to_vec();
        let mut next = a.spmv_alloc(&input);
        let theta = crate::basis::shift(shifts, k);
        if theta != 0.0 {
            for (wi, ui) in next.iter_mut().zip(&input) {
                *wi -= theta * ui;
            }
        }
        w.col_mut(k + 1).copy_from_slice(&next);
        normalize(w.col_mut(k + 1));
    }
    let sv = dense::svdvals_jacobi(&w);
    let smin = sv.last().copied().unwrap_or(0.0);
    if smin <= 0.0 {
        f64::INFINITY
    } else {
        sv[0] / smin
    }
}

fn normalize(col: &mut [f64]) {
    let norm = dense::nrm2(col);
    if norm > 0.0 {
        let inv = 1.0 / norm;
        for v in col {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leja_first_point_has_max_modulus() {
        let pts = vec![(1.0, 0.0), (-3.0, 0.0), (2.0, 0.0), (0.5, 0.0)];
        let ordered = modified_leja_order(&pts);
        assert_eq!(ordered[0], (-3.0, 0.0));
        assert_eq!(ordered.len(), 4);
    }

    #[test]
    fn leja_spreads_points_rather_than_walking() {
        // On {0, 1, 2, 3, 4} the Leja order after 4 must jump to 0, not
        // crawl to 3: the product of distances from {4} is maximized by 0.
        let pts: Vec<SpectralPoint> = (0..5).map(|k| (k as f64, 0.0)).collect();
        let ordered = modified_leja_order(&pts);
        assert_eq!(ordered[0], (4.0, 0.0));
        assert_eq!(ordered[1], (0.0, 0.0));
    }

    #[test]
    fn leja_keeps_conjugate_pairs_adjacent() {
        let pts = vec![
            (2.0, 1.0),
            (2.0, -1.0),
            (5.0, 0.0),
            (-1.0, 3.0),
            (-1.0, -3.0),
            (0.5, 0.0),
        ];
        let ordered = modified_leja_order(&pts);
        assert_eq!(ordered.len(), 6);
        let mut i = 0;
        while i < ordered.len() {
            let (re, im) = ordered[i];
            if im != 0.0 {
                assert_eq!(
                    ordered[i + 1],
                    (re, -im),
                    "conjugate pair split: {ordered:?}"
                );
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn dedupe_collapses_clusters_and_near_real_pairs() {
        let pts = vec![
            (1.0, 0.0),
            (1.0 + 1e-12, 0.0), // cluster of 1.0
            (2.0, 1e-13),       // near-real
            (2.0, -1e-13),      // its mirror: collapses with it
            (3.0, 1.0),
            (3.0, -1.0),
        ];
        let out = dedupe_points(&pts, 1e-8);
        assert_eq!(out.len(), 4, "{out:?}");
        assert!(out.contains(&(1.0, 0.0)));
        assert!(out.contains(&(2.0, 0.0)));
        assert!(out.contains(&(3.0, 1.0)) && out.contains(&(3.0, -1.0)));
    }

    #[test]
    fn newton_shifts_caps_without_splitting_pairs() {
        let ritz = vec![(4.0, 1.0), (4.0, -1.0), (1.0, 0.0), (-2.0, 0.0)];
        // Cap 3 after Leja ordering: if the cap falls on the second member
        // of a pair the pair is dropped entirely.
        let shifts = newton_shifts(&ritz, 3, 1e-8).unwrap();
        assert!(shifts.len() <= 3);
        // Adjacent equal real parts wherever a pair survived.
        let pair_count = shifts.windows(2).filter(|w| w[0] == w[1]).count();
        // The modulus-4.x pair is picked first, contributing (4.0, 4.0).
        assert_eq!(shifts[0], 4.0);
        assert_eq!(shifts[1], 4.0);
        assert!(pair_count >= 1);
    }

    #[test]
    fn cap_between_two_complete_pairs_does_not_shrink() {
        // Regression: with two conjugate pairs ordered back to back, a cap
        // landing exactly on the boundary between them must keep the first
        // pair whole — the old guard compared imaginary parts only and
        // truncated through the middle of the *complete* leading pair.
        let ritz = vec![(10.0, 1.0), (10.0, -1.0), (0.0, 1.0), (0.0, -1.0)];
        assert_eq!(newton_shifts(&ritz, 2, 1e-8), Some(vec![10.0, 10.0]));
        // A cap genuinely splitting the second pair drops that pair whole.
        assert_eq!(newton_shifts(&ritz, 3, 1e-8), Some(vec![10.0, 10.0]));
        // Capping inside the only (leading) pair leaves nothing usable.
        assert_eq!(newton_shifts(&[(10.0, 1.0), (10.0, -1.0)], 1, 1e-8), None);
    }

    #[test]
    fn capped_leja_prefix_matches_the_full_ordering() {
        let pts = vec![
            (4.0, 1.0),
            (4.0, -1.0),
            (1.0, 0.0),
            (-2.0, 0.0),
            (0.5, 2.0),
            (0.5, -2.0),
            (3.0, 0.0),
        ];
        let full = modified_leja_order(&pts);
        for limit in 1..=pts.len() {
            let prefix = super::leja_prefix(&pts, limit);
            assert!(prefix.len() >= limit.min(pts.len()));
            assert_eq!(&full[..prefix.len()], &prefix[..], "limit {limit}");
        }
    }

    #[test]
    fn degenerate_inputs_yield_no_shifts() {
        assert_eq!(newton_shifts(&[], 5, 1e-8), None);
        assert_eq!(newton_shifts(&[(0.0, 0.0)], 5, 1e-8), None);
        assert_eq!(newton_shifts(&[(1.0, 0.0)], 0, 1e-8), None);
    }

    #[test]
    fn harvested_shifts_match_the_operator_spectrum() {
        // Arnoldi on a diagonal matrix: Ritz values approximate extremal
        // eigenvalues; a full-dimension harvest is exact.
        let n = 6;
        let a = sparse::Csr::from_triplets(
            n,
            n,
            &(0..n)
                .map(|i| sparse::Triplet {
                    row: i,
                    col: i,
                    val: (i + 1) as f64,
                })
                .collect::<Vec<_>>(),
        );
        let b = vec![1.0; n];
        let solver = crate::SStepGmres::new(crate::GmresConfig {
            restart: n,
            step_size: 1,
            tol: 1e-30,
            max_restarts: 1,
            ortho: crate::OrthoKind::Cgs2,
            ..crate::GmresConfig::default()
        });
        let (_, result) = solver.solve_serial(&a, &b);
        // A lucky breakdown is fine: the harvest exists either way.
        let shifts = result.last_harvest.expect("harvest must succeed");
        // Every harvested shift is (close to) an actual eigenvalue 1..=6.
        for s in &shifts {
            let nearest = (1..=n)
                .map(|k| (s - k as f64).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 1e-6, "shift {s} far from spectrum: {shifts:?}");
        }
        // Leja: the first shift is an extremal eigenvalue.
        assert!((shifts[0] - n as f64).abs() < 1e-6, "{shifts:?}");
    }

    #[test]
    fn newton_basis_conditioning_beats_monomial_on_laplace() {
        let a = sparse::laplace2d_5pt(16, 16);
        let v0 = vec![1.0; a.nrows()];
        let s = 8;
        let mono = basis_condition_number(&a, &[], s, &v0);
        // Exact-spectrum Leja shifts for the 2-D Laplacian.
        let lam = |k: usize, n: usize| {
            2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos()
        };
        let mut spectrum: Vec<SpectralPoint> = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                spectrum.push((lam(i, 16) + lam(j, 16), 0.0));
            }
        }
        let shifts = newton_shifts(&spectrum, s, 1e-6).unwrap();
        let newton = basis_condition_number(&a, &shifts, s, &v0);
        assert!(
            newton < mono,
            "Newton κ {newton:.3e} must beat monomial κ {mono:.3e}"
        );
    }
}
