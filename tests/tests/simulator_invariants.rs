//! Simulator-level invariants exercised through the full stack:
//! disjoint-write verification must hold for every schema, and timing
//! must be deterministic and monotone in obvious ways. (That sampled
//! analysis equals an exhaustive count is checked in `ttlg`'s plan tests,
//! where the plan's kernel is reachable.)

use ttlg::{Schema, TransposeOptions, Transposer};
use ttlg_gpu_sim::DeviceConfig;
use ttlg_tensor::{DenseTensor, Permutation, Shape};

/// Cases covering every kernel family with awkward (non-multiple)
/// extents.
fn cases() -> Vec<(Vec<usize>, Vec<usize>)> {
    vec![
        (vec![40, 40], vec![0, 1]),             // copy
        (vec![50, 7, 9], vec![0, 2, 1]),        // FVI-Match-Large
        (vec![9, 10, 11, 5], vec![0, 3, 2, 1]), // FVI-Match-Small family
        (vec![33, 5, 37], vec![2, 1, 0]),       // Orthogonal-Distinct
        (vec![6, 3, 7, 9], vec![2, 1, 3, 0]),   // Orthogonal-Arbitrary
    ]
}

#[test]
fn disjoint_write_checking_passes_for_all_schemas() {
    // The executor's double-write detector is a failure-injection net: a
    // kernel writing any output element twice (or missing one) panics.
    let t = Transposer::new_k40c();
    let opts = TransposeOptions {
        check_disjoint_writes: true,
        ..Default::default()
    };
    for (extents, perm) in cases() {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let plan = t.plan::<u64>(&shape, &perm, &opts).unwrap();
        let input: DenseTensor<u64> = DenseTensor::iota(shape.clone());
        let (out, report) = t.execute(&plan, &input).unwrap();
        // Every element written exactly once => moved count == volume.
        assert_eq!(report.stats.elements_moved as usize, shape.volume());
        assert_eq!(out.volume(), shape.volume());
    }
}

#[test]
fn timing_is_deterministic_across_runs() {
    let t = Transposer::new_k40c();
    let shape = Shape::new(&[24, 18, 12]).unwrap();
    let perm = Permutation::new(&[2, 0, 1]).unwrap();
    let plan = t
        .plan::<f64>(&shape, &perm, &TransposeOptions::default())
        .unwrap();
    let a = t.time_plan(&plan).unwrap();
    for _ in 0..3 {
        let b = t.time_plan(&plan).unwrap();
        assert_eq!(a.kernel_time_ns, b.kernel_time_ns);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn forced_naive_never_beats_planner_choice() {
    let t = Transposer::new_k40c();
    for (extents, perm) in cases() {
        if extents.iter().product::<usize>() < 4000 {
            continue; // tiny tensors are launch-overhead noise
        }
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let auto = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        let naive = t
            .plan::<f64>(
                &shape,
                &perm,
                &TransposeOptions {
                    forced_schema: Some(Schema::Naive),
                    ..Default::default()
                },
            )
            .unwrap();
        let auto_t = t.time_plan(&auto).unwrap().kernel_time_ns;
        let naive_t = t.time_plan(&naive).unwrap().kernel_time_ns;
        assert!(
            auto_t <= naive_t * 1.02,
            "planner ({}, {auto_t}) lost to naive ({naive_t}) on {extents:?}",
            auto.schema()
        );
    }
}

#[test]
fn smaller_device_is_slower() {
    let big = Transposer::new(DeviceConfig::k40c());
    let small = Transposer::new(DeviceConfig::test_tiny());
    let shape = Shape::new(&[64, 32, 16]).unwrap();
    let perm = Permutation::new(&[2, 1, 0]).unwrap();
    let opts = TransposeOptions::default();
    let tb = big
        .time_plan(&big.plan::<f64>(&shape, &perm, &opts).unwrap())
        .unwrap();
    let ts = small
        .time_plan(&small.plan::<f64>(&shape, &perm, &opts).unwrap())
        .unwrap();
    assert!(
        ts.kernel_time_ns > tb.kernel_time_ns,
        "tiny device must be slower"
    );
}
