//! High-rank coverage: the paper's implementation handles tensors up to
//! rank 15 (via macro-generated constant indexing); the Rust planner is
//! rank-agnostic and must stay correct and sane well beyond rank 6.

use ttlg::{TransposeOptions, Transposer};
use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

fn roundtrip(extents: &[usize], perm: &[usize]) {
    let shape = Shape::new(extents).unwrap();
    let perm = Permutation::new(perm).unwrap();
    let t = Transposer::new_k40c();
    let opts = TransposeOptions {
        check_disjoint_writes: true,
        ..Default::default()
    };
    let plan = t.plan::<u32>(&shape, &perm, &opts).unwrap();
    let input: DenseTensor<u32> = DenseTensor::iota(shape);
    let (out, _) = t.execute(&plan, &input).unwrap();
    let expect = reference::transpose_reference(&input, &perm).unwrap();
    assert_eq!(
        out.data(),
        expect.data(),
        "rank {} perm {perm}",
        extents.len()
    );
}

#[test]
fn rank7_reversal() {
    roundtrip(&[3, 4, 2, 5, 2, 3, 4], &[6, 5, 4, 3, 2, 1, 0]);
}

#[test]
fn rank8_mixed() {
    roundtrip(&[2, 3, 2, 4, 2, 3, 2, 5], &[5, 0, 7, 2, 4, 1, 3, 6]);
}

#[test]
fn rank10_small_extents() {
    roundtrip(
        &[2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        &[9, 1, 3, 5, 7, 0, 2, 4, 6, 8],
    );
}

#[test]
fn rank12_with_fusable_runs() {
    // Several adjacent runs fuse, so the planner sees a lower scaled rank.
    roundtrip(
        &[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        &[6, 7, 8, 0, 1, 2, 9, 10, 11, 3, 4, 5],
    );
}

#[test]
fn rank15_paper_limit() {
    // The paper's macro table stops at rank 15; we go there too.
    let extents = [2usize; 15];
    let perm: Vec<usize> = (0..15).rev().collect();
    roundtrip(&extents, &perm);
}

#[test]
fn rank9_matching_fvi_small() {
    roundtrip(&[4, 3, 2, 2, 3, 2, 2, 2, 3], &[0, 4, 2, 3, 1, 8, 6, 7, 5]);
}

#[test]
fn high_rank_prediction_api_works() {
    let t = Transposer::new_k40c();
    let extents = [2usize; 12];
    let shape = Shape::new(&extents).unwrap();
    let perm: Vec<usize> = (0..12).rev().collect();
    let perm = Permutation::new(&perm).unwrap();
    let ns = t.predict_transpose_ns::<f64>(&shape, &perm).unwrap();
    assert!(ns.is_finite() && ns > 0.0);
}

/// Verify-mode coverage of the 6D sweep's permutations (every 10th of
/// the 720, in the paper's order), which the benchmark's sweep check now
/// executes on the host kernel: at extents 4 and 5, the default plan and
/// every applicable forced schema run through all their simulated blocks
/// (each output element written once, the count equal to the analysis)
/// and must reproduce the reference.
#[test]
fn rank6_sweep_permutations_verify_every_schema() {
    use ttlg::{applicable_schemas, PlanError, Problem};
    let t = Transposer::new_k40c();
    let mut runs = 0;
    for extent in [4, 5] {
        let shape = Shape::new(&[extent; 6]).unwrap();
        let input: DenseTensor<f32> = DenseTensor::iota(shape.clone());
        let cases = ttlg_tensor::generator::all_permutations_suite(6, extent);
        for case in cases.iter().step_by(10) {
            let perm = &case.perm;
            let expect = reference::transpose_reference(&input, perm).unwrap();
            let problem = Problem::new(&shape, perm).unwrap();
            let forced = applicable_schemas(&problem).into_iter().map(Some);
            for forced_schema in std::iter::once(None).chain(forced) {
                let opts = TransposeOptions {
                    forced_schema,
                    check_disjoint_writes: true,
                    ..Default::default()
                };
                let plan = match t.plan::<f32>(&shape, perm, &opts) {
                    Ok(plan) => plan,
                    Err(PlanError::NoCandidate) if forced_schema.is_some() => continue,
                    Err(e) => panic!("extent {extent} perm {perm}: {e}"),
                };
                let (out, _) = t.execute(&plan, &input).unwrap();
                assert_eq!(
                    out.data(),
                    expect.data(),
                    "extent {extent} perm {perm} schema {}",
                    plan.schema()
                );
                runs += 1;
            }
        }
    }
    // 144 default plans plus the forced ones (430 plans in all today).
    assert!(runs > 2 * 72, "no forced schema ran: {runs} plans");
}
