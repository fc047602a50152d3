//! Ablation studies for the design choices DESIGN.md calls out:
//! shared-tile padding, offset-array precomputation, thread coarsening,
//! model-driven slice choice, and index fusion. Each returns a table of
//! simulated kernel times with the feature on vs off.

use crate::report::{bw, us, Table};
use ttlg::kernels::{OdChoice, OrthogonalDistinctKernel};
use ttlg::{Problem, Schema, TransposeOptions, Transposer};
use ttlg_gpu_sim::{timing, DeviceConfig, Executor, TimingModel};
use ttlg_tensor::{Permutation, Shape};

/// Padding ablation: the 32x33 tile vs the unpadded 32x32 tile, on
/// matrix-like transposes where the column read conflicts.
pub fn padding(device: &DeviceConfig) -> Table {
    let ex = Executor::new(device.clone());
    let tm = TimingModel::new(device.clone());
    let mut t = Table::new(
        "Ablation: shared-tile padding (Orthogonal-Distinct)",
        &["case", "padded us", "unpadded us", "slowdown", "replays"],
    );
    for (extents, perm) in [
        (vec![256usize, 256], vec![1usize, 0]),
        (vec![64, 64, 64], vec![2, 1, 0]),
        (vec![128, 16, 128], vec![2, 1, 0]),
    ] {
        let p = Problem::new(
            &Shape::new(&extents).unwrap(),
            &Permutation::new(&perm).unwrap(),
        )
        .unwrap();
        let c = OdChoice::default_for(&p).unwrap();
        let padded = OrthogonalDistinctKernel::<f64>::new(&p, c);
        let unpadded = OrthogonalDistinctKernel::<f64>::new_with_padding(&p, c, false);
        let rp = ex.analyze(&padded).unwrap();
        let ru = ex.analyze(&unpadded).unwrap();
        let tp = tm.time(&rp.stats, &rp.launch).time_ns;
        let tu = tm.time(&ru.stats, &ru.launch).time_ns;
        t.push_row(vec![
            format!("{extents:?}"),
            us(tp),
            us(tu),
            format!("{:.2}x", tu / tp),
            ru.stats.smem_conflict_replays.to_string(),
        ]);
    }
    t
}

/// One TTLG-option ablation row: run the planner with two option sets and
/// compare simulated kernel times.
fn option_ablation(
    title: &str,
    cases: &[(Vec<usize>, Vec<usize>)],
    device: &DeviceConfig,
    on: TransposeOptions,
    off: TransposeOptions,
    on_label: &str,
    off_label: &str,
) -> Table {
    let t = Transposer::new(device.clone());
    let mut table = Table::new(
        title,
        &[
            "case",
            &format!("{on_label} GB/s"),
            &format!("{off_label} GB/s"),
            "gain",
        ],
    );
    for (extents, perm) in cases {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let vol = shape.volume();
        let time = |opts: &TransposeOptions| {
            let plan = t.plan::<f64>(&shape, &perm, opts).expect("plannable");
            t.time_plan(&plan).expect("timeable").kernel_time_ns
        };
        let t_on = time(&on);
        let t_off = time(&off);
        table.push_row(vec![
            format!("{extents:?} {perm}"),
            bw(timing::bandwidth_gbps(vol, 8, t_on)),
            bw(timing::bandwidth_gbps(vol, 8, t_off)),
            format!("{:.2}x", t_off / t_on),
        ]);
    }
    table
}

/// Index fusion on vs off. The cases are chosen so fusion changes the
/// *schema*: a fused FVI crossing the warp size turns a small-FVI
/// shared-memory kernel into a direct copy, and a fully fusable
/// permutation becomes a plain memcpy.
pub fn fusion(device: &DeviceConfig) -> Table {
    option_ablation(
        "Ablation: index fusion",
        &[
            // dims 0,1 fuse -> matching FVI of 32: FMS becomes FVI-Match-Large
            (vec![8, 4, 64, 64], vec![0, 1, 3, 2]),
            // dims (0,1) and (3,4) fuse -> rank 3; unfused FVI is only 16
            (vec![16, 16, 16, 16, 16], vec![0, 1, 3, 4, 2]),
            // fully fusable: identity in disguise -> a single memcpy
            (vec![32, 32, 32, 32], vec![0, 1, 2, 3]),
        ],
        device,
        TransposeOptions::default(),
        TransposeOptions {
            enable_fusion: false,
            ..Default::default()
        },
        "fused",
        "unfused",
    )
}

/// Model-driven slice-size sweep (Alg. 3) vs the flow-chart default.
pub fn slice_choice(device: &DeviceConfig) -> Table {
    option_ablation(
        "Ablation: model-driven slice choice (Alg. 3) vs default slice",
        &[
            (vec![27, 27, 27, 27, 27], vec![4, 1, 2, 0, 3]),
            (vec![15, 15, 15, 15, 15, 15], vec![5, 4, 3, 2, 1, 0]),
            (vec![17, 17, 17, 17, 17, 17], vec![3, 1, 4, 0, 2, 5]),
        ],
        device,
        TransposeOptions::default(),
        TransposeOptions {
            model_sweep: false,
            ..Default::default()
        },
        "swept",
        "default",
    )
}

/// The taxonomy itself: planner pick vs forcing the general-purpose
/// Orthogonal-Arbitrary kernel everywhere vs the naive kernel.
pub fn taxonomy(device: &DeviceConfig) -> Table {
    let t = Transposer::new(device.clone());
    let mut table = Table::new(
        "Ablation: taxonomy dispatch vs one-kernel-fits-all",
        &["case", "planner GB/s", "OA-only GB/s", "naive GB/s"],
    );
    for (extents, perm) in [
        (vec![64usize, 16, 16, 4], vec![0usize, 3, 2, 1]),
        (vec![8, 16, 16, 16], vec![0, 3, 2, 1]),
        (vec![16, 2, 32, 32], vec![3, 2, 1, 0]),
    ] {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let vol = shape.volume();
        let run = |schema: Option<Schema>| {
            let opts = TransposeOptions {
                forced_schema: schema,
                ..Default::default()
            };
            t.plan::<f64>(&shape, &perm, &opts)
                .ok()
                .and_then(|p| t.time_plan(&p).ok())
                .map(|r| timing::bandwidth_gbps(vol, 8, r.kernel_time_ns))
        };
        let auto = run(None).expect("auto plan");
        let oa = run(Some(Schema::OrthogonalArbitrary));
        let naive = run(Some(Schema::Naive)).expect("naive plan");
        table.push_row(vec![
            format!("{extents:?} {perm}"),
            bw(auto),
            oa.map(bw).unwrap_or_else(|| "n/a".into()),
            bw(naive),
        ]);
    }
    table
}

/// Model-chosen plan vs measured-best plan (TTLG's own measure mode):
/// quantifies how much performance the regression/analytic model leaves
/// on the table — the paper's central model-quality question.
pub fn model_vs_measured(device: &DeviceConfig) -> Table {
    let t = Transposer::new(device.clone());
    let mut table = Table::new(
        "Ablation: model-chosen plan vs measured-best plan",
        &["case", "model GB/s", "measured-best GB/s", "model/best"],
    );
    for (extents, perm) in [
        (
            vec![16usize, 16, 16, 16, 16, 16],
            vec![4usize, 1, 2, 5, 3, 0],
        ),
        (vec![27, 27, 27, 27, 27], vec![4, 1, 2, 0, 3]),
        (vec![15, 15, 15, 15, 15, 15], vec![3, 1, 4, 0, 2, 5]),
        (vec![64, 64, 64], vec![2, 1, 0]),
    ] {
        let shape = Shape::new(&extents).unwrap();
        let perm = Permutation::new(&perm).unwrap();
        let vol = shape.volume();
        let opts = TransposeOptions::default();
        let model_plan = t.plan::<f64>(&shape, &perm, &opts).expect("plannable");
        let model_ns = t.time_plan(&model_plan).expect("timeable").kernel_time_ns;
        let (measured_plan, _) = t
            .plan_measured::<f64>(&shape, &perm, &opts, usize::MAX)
            .expect("measurable");
        let best_ns = t
            .time_plan(&measured_plan)
            .expect("timeable")
            .kernel_time_ns;
        table.push_row(vec![
            format!("{extents:?} {perm}"),
            bw(timing::bandwidth_gbps(vol, 8, model_ns)),
            bw(timing::bandwidth_gbps(vol, 8, best_ns)),
            format!("{:.3}", best_ns / model_ns),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_ablation_shows_slowdown() {
        let t = padding(&DeviceConfig::k40c());
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let slowdown: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(slowdown > 1.1, "unpadded must be slower: {row:?}");
            let replays: u64 = row[4].parse().unwrap();
            assert!(replays > 0);
        }
    }

    #[test]
    fn fusion_ablation_non_negative() {
        let t = fusion(&DeviceConfig::k40c());
        for row in &t.rows {
            let gain: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(gain >= 0.95, "fusion should rarely hurt: {row:?}");
        }
    }

    #[test]
    fn slice_sweep_never_worse_than_default() {
        let t = slice_choice(&DeviceConfig::k40c());
        for row in &t.rows {
            let gain: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(gain >= 0.99, "sweep must not lose to the default: {row:?}");
        }
    }

    #[test]
    fn model_choice_is_near_measured_best() {
        let t = model_vs_measured(&DeviceConfig::k40c());
        for row in &t.rows {
            let ratio: f64 = row[3].parse().unwrap();
            // The model's pick must stay within 10% of the measured best.
            assert!(ratio > 0.90, "{row:?}");
            // ...and never "beat" it by more than numerical noise.
            assert!(ratio <= 1.0 + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn taxonomy_beats_naive_everywhere() {
        let t = taxonomy(&DeviceConfig::k40c());
        for row in &t.rows {
            let auto: f64 = row[1].parse().unwrap();
            let naive: f64 = row[3].parse().unwrap();
            assert!(auto > naive, "{row:?}");
        }
    }
}
