//! The taxonomy of transposition schemas (paper Fig. 3 / Alg. 1).
//!
//! Given a fused problem, [`applicable_schemas`] reproduces the decision
//! flow-chart: compare the fastest-varying indices (FVI) of input and
//! output; combine leading dimensions on each side until the combined
//! volume reaches the warp size; dispatch on whether the combined sets
//! overlap. Where the paper says a choice is "based on performance
//! prediction", we return every applicable schema (preferred first) and let
//! the planner's predictor pick.

use crate::problem::Problem;
use ttlg_tensor::WARP_SIZE;

/// The four data-movement schemas of the paper, plus the degenerate copy
/// (identity permutation after fusion) and the naive baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schema {
    /// Identity after fusion: a grid-strided memcpy.
    Copy,
    /// Matching FVI with extent >= warp size: direct coalesced copy
    /// without shared memory (Alg. 7).
    FviMatchLarge,
    /// Matching FVI with extent < warp size: `b x b x N0` shared-memory
    /// staging (Alg. 6).
    FviMatchSmall,
    /// Non-matching FVI, disjoint combined index sets: padded-tile
    /// transpose (Alg. 2).
    OrthogonalDistinct,
    /// The general case: indirection-array kernel (Algs. 4 + 5).
    OrthogonalArbitrary,
    /// d-nested-loop baseline (never chosen by the taxonomy; used for
    /// ablations and the naive comparison).
    Naive,
}

impl Schema {
    /// Stable label for metrics, traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Schema::Copy => "Copy",
            Schema::FviMatchLarge => "FVI-Match-Large",
            Schema::FviMatchSmall => "FVI-Match-Small",
            Schema::OrthogonalDistinct => "Orthogonal-Distinct",
            Schema::OrthogonalArbitrary => "Orthogonal-Arbitrary",
            Schema::Naive => "Naive",
        }
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The combined fastest-varying index sets of Alg. 1: walk dimensions from
/// the fastest until the combined volume reaches `target` (the paper's
/// required slice size `B`, default the warp size).
///
/// Returns `(I, O, i_vol, o_vol)` where `I` / `O` are the *input-dim ids*
/// combined on the input / output side and `i_vol` / `o_vol` their
/// combined volumes.
pub fn combined_fvi_sets(p: &Problem, target: usize) -> (Vec<usize>, Vec<usize>, usize, usize) {
    let mut i_set = Vec::new();
    let mut i_vol = 1usize;
    let mut idx = 0usize;
    while i_vol < target && idx < p.rank() {
        i_vol *= p.extent(idx);
        i_set.push(idx);
        idx += 1;
    }
    let mut o_set = Vec::new();
    let mut o_vol = 1usize;
    let mut odx = 0usize;
    while o_vol < target && odx < p.rank() {
        let in_dim = p.perm.output_dim_source(odx);
        o_vol *= p.extent(in_dim);
        o_set.push(in_dim);
        odx += 1;
    }
    (i_set, o_set, i_vol, o_vol)
}

/// Alg. 1: the schemas applicable to a fused problem, preferred first.
///
/// The first entry is the flow-chart's primary choice; later entries are
/// the alternatives the paper resolves "based on performance prediction".
pub fn applicable_schemas(p: &Problem) -> Vec<Schema> {
    if p.is_copy() {
        return vec![Schema::Copy];
    }
    let ws = WARP_SIZE;
    if p.perm.fvi_matches() {
        let n0 = p.extent(0);
        if n0 >= ws {
            // Direct copy is the flow-chart pick; the general kernel stays
            // on the candidate list for the model to rank (it wins when
            // combining dims widens the contiguous runs).
            return vec![Schema::FviMatchLarge, Schema::OrthogonalArbitrary];
        }
        // After fusion, rank >= 3 whenever the FVI matches and the
        // permutation is not the identity (dims 0 and 1 would have fused
        // if output dim 1 were input dim 1). On *unfused* problems
        // (ablation use), output dim 1 can still be input dim 1, in which
        // case the small-FVI staging scheme does not apply.
        let ik = p.perm.output_dim_source(1); // output's 2nd-fastest, as input dim
        if p.rank() < 3 || ik < 2 {
            return vec![Schema::OrthogonalArbitrary];
        }
        let n1 = p.extent(1);
        let nk = p.extent(ik);
        if n0 * n1 >= ws && n0 * nk >= ws {
            return vec![Schema::FviMatchSmall, Schema::OrthogonalArbitrary];
        }
        return vec![Schema::OrthogonalArbitrary, Schema::FviMatchSmall];
    }
    // Non-matching FVI: both orthogonal kernels apply (Orthogonal-Distinct
    // always admits at least the truncated slice I = {i0}, O = {rho(i0)});
    // the flow-chart's preference goes to OD when the warp-size combined
    // sets are disjoint, to OA when they overlap, and the performance
    // model resolves the final choice either way (Sec. V).
    let (i_set, o_set, _, _) = combined_fvi_sets(p, ws);
    let disjoint = i_set.iter().all(|d| !o_set.contains(d));
    if disjoint {
        vec![Schema::OrthogonalDistinct, Schema::OrthogonalArbitrary]
    } else {
        vec![Schema::OrthogonalArbitrary, Schema::OrthogonalDistinct]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_tensor::{Permutation, Shape};

    fn prob(extents: &[usize], perm: &[usize]) -> Problem {
        Problem::new(
            &Shape::new(extents).unwrap(),
            &Permutation::new(perm).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn identity_is_copy() {
        let p = prob(&[8, 8, 8], &[0, 1, 2]);
        assert_eq!(applicable_schemas(&p), vec![Schema::Copy]);
    }

    #[test]
    fn matching_large_fvi() {
        // [a,b,c,d] => [a,d,c,b] with a = 64 >= 32.
        let p = prob(&[64, 8, 8, 8], &[0, 3, 2, 1]);
        let s = applicable_schemas(&p);
        assert_eq!(s[0], Schema::FviMatchLarge);
        assert!(s.contains(&Schema::OrthogonalArbitrary));
    }

    #[test]
    fn matching_small_fvi() {
        // [a,b,c,d] => [a,d,c,b] with a = 8: 8*8 >= 32 both sides.
        let p = prob(&[8, 8, 8, 8], &[0, 3, 2, 1]);
        let s = applicable_schemas(&p);
        assert_eq!(s[0], Schema::FviMatchSmall);
        assert!(s.contains(&Schema::OrthogonalArbitrary));
    }

    #[test]
    fn matching_tiny_fvi_prefers_arbitrary() {
        // a = 2, b = 2: 2*2 < 32 -> OA preferred, Small fallback.
        let p = prob(&[2, 2, 64, 64], &[0, 3, 2, 1]);
        let s = applicable_schemas(&p);
        assert_eq!(s[0], Schema::OrthogonalArbitrary);
        assert_eq!(s[1], Schema::FviMatchSmall);
    }

    #[test]
    fn paper_disjoint_example() {
        // Sec. III: [a,b,c,d] => [d,c,b,a] extents 16,2,32,32:
        // I = {a,b} (vol 32), O = {d} (vol 32): disjoint -> OD.
        let p = prob(&[16, 2, 32, 32], &[3, 2, 1, 0]);
        let (i, o, iv, ov) = combined_fvi_sets(&p, 32);
        assert_eq!(i, vec![0, 1]);
        assert_eq!(o, vec![3]);
        assert_eq!((iv, ov), (32, 32));
        assert_eq!(applicable_schemas(&p)[0], Schema::OrthogonalDistinct);
    }

    #[test]
    fn paper_overlap_example() {
        // Sec. III: [a,b,c,d] => [c,b,d,a] extents 8,2,8,8:
        // I = {a,b,c} (vol 128), O = {c,b,d} -> overlap -> OA.
        let p = prob(&[8, 2, 8, 8], &[2, 1, 3, 0]);
        let (i, o, _, _) = combined_fvi_sets(&p, 32);
        assert_eq!(i, vec![0, 1, 2]);
        assert_eq!(o, vec![2, 1, 3]);
        assert_eq!(
            applicable_schemas(&p),
            vec![Schema::OrthogonalArbitrary, Schema::OrthogonalDistinct]
        );
    }

    #[test]
    fn matrix_transpose_is_orthogonal_distinct() {
        let p = prob(&[128, 128], &[1, 0]);
        assert_eq!(applicable_schemas(&p)[0], Schema::OrthogonalDistinct);
    }

    #[test]
    fn combined_sets_respect_target() {
        let p = prob(&[4, 4, 4, 4], &[3, 2, 1, 0]);
        let (i, _, iv, _) = combined_fvi_sets(&p, 64);
        assert_eq!(i, vec![0, 1, 2]);
        assert_eq!(iv, 64);
    }

    #[test]
    fn schema_display() {
        assert_eq!(
            Schema::OrthogonalDistinct.to_string(),
            "Orthogonal-Distinct"
        );
        assert_eq!(Schema::FviMatchSmall.to_string(), "FVI-Match-Small");
        assert_eq!(Schema::Naive.label(), Schema::Naive.to_string());
    }
}
