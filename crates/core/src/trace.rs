//! Planner decision traces — observability for Alg. 1 + Alg. 3.
//!
//! [`crate::Transposer::plan_traced`] records everything the planner
//! considered for one problem: the admissible schemas from the taxonomy
//! dispatch, every candidate the slice sweep produced (with its slice
//! sizes and both the configured predictor's and the analytic model's
//! time estimates), the configurations the sweep *rejected* and why, the
//! analytic-guard band, and the final choice. The trace is plain data —
//! higher layers (the CLI's `ttlg explain`, the runtime's trace store)
//! render or export it however they like; [`DecisionTrace::render`] is
//! the human-readable default.

use crate::features::KernelChoice;
use crate::kernels::{OaChoice, OdChoice};
use crate::schema::Schema;

/// Why Alg. 3's sweep discarded a generated slice configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The configuration violates the schema's validity constraints
    /// (dims out of range, blocking beyond the extent, overlap rules).
    Invalid,
    /// The slice does not fit in shared memory (Orthogonal-Arbitrary).
    SmemOverflow,
    /// The occupancy/overbooking bound rejects the slice: too few
    /// resident warps or too few grid blocks (Alg. 3's bound).
    Occupancy,
    /// The same configuration was already enumerated by an earlier
    /// limit step.
    Duplicate,
}

impl RejectReason {
    /// Stable lowercase label (used by exporters).
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::Invalid => "invalid",
            RejectReason::SmemOverflow => "smem-overflow",
            RejectReason::Occupancy => "occupancy",
            RejectReason::Duplicate => "duplicate",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::Invalid => "violates slice validity constraints",
            RejectReason::SmemOverflow => "slice exceeds shared memory",
            RejectReason::Occupancy => "fails the occupancy/overbooking bound",
            RejectReason::Duplicate => "duplicate of an earlier configuration",
        })
    }
}

/// One configuration Alg. 3 generated and then discarded.
#[derive(Debug, Clone)]
pub struct SweepRejection {
    /// Schema whose sweep produced the configuration.
    pub schema: Schema,
    /// Compact parameter description (same format as candidate params).
    pub params: String,
    /// Why it was discarded.
    pub reason: RejectReason,
}

/// One candidate the model ranked, with both predictions and the
/// guard/choice outcome.
#[derive(Debug, Clone)]
pub struct CandidateTrace {
    /// Schema of the candidate.
    pub schema: Schema,
    /// Compact parameter description ([`choice_params`]).
    pub params: String,
    /// Combined input-slice length (A / ilimit / b*N0; 0 if n/a).
    pub input_slice: usize,
    /// Combined output-slice length (B / olimit; 0 if n/a).
    pub output_slice: usize,
    /// Whole-slice volume (OA; A*B for OD).
    pub total_slice: usize,
    /// Grid size the candidate implies.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Shared memory per block, bytes.
    pub smem_bytes: usize,
    /// Configured predictor's time estimate, ns (the ranking key).
    pub predicted_ns: f64,
    /// Closed-form analytic estimate, ns (the guard's key).
    pub analytic_ns: f64,
    /// Whether the analytic guard excluded this candidate from ranking
    /// (`analytic_ns > guard_factor * analytic_best_ns`).
    pub guard_rejected: bool,
    /// Whether this candidate won.
    pub chosen: bool,
}

/// A full record of one planning decision.
#[derive(Debug, Clone, Default)]
pub struct DecisionTrace {
    /// Original (pre-fusion) extents.
    pub extents: Vec<usize>,
    /// Original permutation.
    pub perm: Vec<usize>,
    /// Extents after index fusion.
    pub fused_extents: Vec<usize>,
    /// Permutation after index fusion.
    pub fused_perm: Vec<usize>,
    /// Schemas the taxonomy admitted (preferred first), or the forced
    /// schema.
    pub admissible: Vec<Schema>,
    /// Every candidate the model ranked, in enumeration order.
    pub candidates: Vec<CandidateTrace>,
    /// Configurations the sweep generated and discarded.
    pub rejections: Vec<SweepRejection>,
    /// Best analytic estimate across all candidates, ns.
    pub analytic_best_ns: f64,
    /// The analytic-guard factor applied during ranking.
    pub guard_factor: f64,
    /// Index into `candidates` of the winner.
    pub chosen: Option<usize>,
    /// Modeled plan-construction overhead, ns.
    pub plan_time_ns: f64,
}

/// How many rejections [`DecisionTrace::render`] prints before eliding.
const RENDER_MAX_REJECTIONS: usize = 24;

impl DecisionTrace {
    /// The winning candidate, if planning succeeded.
    pub fn chosen_candidate(&self) -> Option<&CandidateTrace> {
        self.chosen.and_then(|i| self.candidates.get(i))
    }

    /// Admissible schemas that contributed no candidate at all (their
    /// applicability pre-checks failed, or every configuration was
    /// rejected by the sweep).
    pub fn schemas_without_candidates(&self) -> Vec<Schema> {
        self.admissible
            .iter()
            .copied()
            .filter(|s| !self.candidates.iter().any(|c| c.schema == *s))
            .collect()
    }

    /// Human-readable report — what `ttlg explain` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let dims = |d: &[usize]| {
            d.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("x")
        };
        let perm = |p: &[usize]| {
            format!(
                "[{}]",
                p.iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let mut s = String::new();
        writeln!(
            s,
            "== decision trace: {} perm {} ==",
            dims(&self.extents),
            perm(&self.perm)
        )
        .unwrap();
        writeln!(
            s,
            "fused problem : {} perm {} (rank {})",
            dims(&self.fused_extents),
            perm(&self.fused_perm),
            self.fused_extents.len()
        )
        .unwrap();
        writeln!(
            s,
            "admissible    : {}",
            self.admissible
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
        .unwrap();
        writeln!(
            s,
            "analytic guard: best {:.2} us, factor {:.2}",
            self.analytic_best_ns / 1e3,
            self.guard_factor
        )
        .unwrap();
        writeln!(
            s,
            "candidates ({} ranked, fastest predicted first):",
            self.candidates.len()
        )
        .unwrap();
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&i, &j| {
            self.candidates[i]
                .predicted_ns
                .partial_cmp(&self.candidates[j].predicted_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in &order {
            let c = &self.candidates[i];
            let mark = if c.chosen { '*' } else { ' ' };
            let desc = format!("{} {}", c.schema, c.params);
            let slices = format!(
                "slice in={} out={} total={}",
                c.input_slice, c.output_slice, c.total_slice
            );
            let note = if c.guard_rejected { "  [guard]" } else { "" };
            writeln!(
                s,
                " {mark} {desc:<44} {slices:<36} pred {:>9.2} us  analytic {:>9.2} us{note}",
                c.predicted_ns / 1e3,
                c.analytic_ns / 1e3
            )
            .unwrap();
        }
        if !self.rejections.is_empty() {
            writeln!(s, "sweep rejections ({}):", self.rejections.len()).unwrap();
            for r in self.rejections.iter().take(RENDER_MAX_REJECTIONS) {
                writeln!(s, "    {} {}: {}", r.schema, r.params, r.reason).unwrap();
            }
            if self.rejections.len() > RENDER_MAX_REJECTIONS {
                writeln!(
                    s,
                    "    ... and {} more",
                    self.rejections.len() - RENDER_MAX_REJECTIONS
                )
                .unwrap();
            }
        }
        let missing = self.schemas_without_candidates();
        if !missing.is_empty() {
            writeln!(
                s,
                "no candidates from: {}",
                missing
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .unwrap();
        }
        if let Some(c) = self.chosen_candidate() {
            writeln!(
                s,
                "chosen: {} {} (predicted {:.2} us)",
                c.schema,
                c.params,
                c.predicted_ns / 1e3
            )
            .unwrap();
        }
        writeln!(s, "plan overhead: {:.2} us", self.plan_time_ns / 1e3).unwrap();
        s
    }
}

/// Compact parameter string for an Orthogonal-Distinct choice.
pub fn od_params(c: &OdChoice) -> String {
    format!(
        "in={} a={} out={} b={}",
        c.in_dims, c.block_a, c.out_dims, c.block_b
    )
}

/// Compact parameter string for an Orthogonal-Arbitrary choice.
pub fn oa_params(c: &OaChoice) -> String {
    format!(
        "in={} a={} out={} b={}",
        c.in_dims, c.block_a, c.out_dims, c.block_b
    )
}

/// Compact parameter string for any kernel choice.
pub fn choice_params(choice: &KernelChoice) -> String {
    match choice {
        KernelChoice::Copy => "copy".to_string(),
        KernelChoice::FviMatchLarge => "fvi-large".to_string(),
        KernelChoice::FviMatchSmall { b } => format!("fvi-small b={b}"),
        KernelChoice::OrthogonalDistinct(c) => format!("od {}", od_params(c)),
        KernelChoice::OrthogonalArbitrary(c) => format!("oa {}", oa_params(c)),
        KernelChoice::Naive => "naive".to_string(),
        KernelChoice::CpuTiled { tile, threads, .. } => {
            format!("cpu-tiled tile={tile} threads={threads}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> DecisionTrace {
        DecisionTrace {
            extents: vec![27, 27, 27],
            perm: vec![2, 1, 0],
            fused_extents: vec![27, 27, 27],
            fused_perm: vec![2, 1, 0],
            admissible: vec![Schema::OrthogonalDistinct, Schema::OrthogonalArbitrary],
            candidates: vec![
                CandidateTrace {
                    schema: Schema::OrthogonalDistinct,
                    params: "od in=1 a=27 out=1 b=27".to_string(),
                    input_slice: 27,
                    output_slice: 27,
                    total_slice: 729,
                    grid_blocks: 729,
                    threads_per_block: 256,
                    smem_bytes: 8448,
                    predicted_ns: 42_000.0,
                    analytic_ns: 40_000.0,
                    guard_rejected: false,
                    chosen: true,
                },
                CandidateTrace {
                    schema: Schema::OrthogonalArbitrary,
                    params: "oa in=1 a=27 out=1 b=27".to_string(),
                    input_slice: 27,
                    output_slice: 27,
                    total_slice: 729,
                    grid_blocks: 729,
                    threads_per_block: 256,
                    smem_bytes: 5832,
                    predicted_ns: 60_000.0,
                    analytic_ns: 80_000.0,
                    guard_rejected: true,
                    chosen: false,
                },
            ],
            rejections: vec![SweepRejection {
                schema: Schema::OrthogonalArbitrary,
                params: "in=2 a=27 out=2 b=27".to_string(),
                reason: RejectReason::Occupancy,
            }],
            analytic_best_ns: 40_000.0,
            guard_factor: 1.25,
            chosen: Some(0),
            plan_time_ns: 90_000.0,
        }
    }

    #[test]
    fn render_lists_candidates_rejections_and_choice() {
        let t = sample_trace();
        let text = t.render();
        assert!(text.contains("== decision trace: 27x27x27 perm [2,1,0] =="));
        assert!(text.contains("admissible    : Orthogonal-Distinct, Orthogonal-Arbitrary"));
        assert!(text.contains("candidates (2 ranked"));
        assert!(text.contains("slice in=27 out=27 total=729"));
        assert!(text.contains("[guard]"));
        assert!(text.contains("sweep rejections (1):"));
        assert!(text.contains("fails the occupancy/overbooking bound"));
        assert!(text.contains("chosen: Orthogonal-Distinct od in=1 a=27 out=1 b=27"));
        // The chosen candidate is starred.
        let starred: Vec<&str> = text.lines().filter(|l| l.starts_with(" * ")).collect();
        assert_eq!(starred.len(), 1);
        assert!(starred[0].contains("Orthogonal-Distinct"));
    }

    #[test]
    fn chosen_candidate_and_missing_schemas() {
        let mut t = sample_trace();
        assert_eq!(
            t.chosen_candidate().unwrap().schema,
            Schema::OrthogonalDistinct
        );
        assert!(t.schemas_without_candidates().is_empty());
        t.admissible.push(Schema::FviMatchSmall);
        assert_eq!(t.schemas_without_candidates(), vec![Schema::FviMatchSmall]);
    }

    #[test]
    fn rejection_render_is_capped() {
        let mut t = sample_trace();
        t.rejections = (0..40)
            .map(|i| SweepRejection {
                schema: Schema::OrthogonalDistinct,
                params: format!("in=1 a={i} out=1 b=1"),
                reason: RejectReason::Duplicate,
            })
            .collect();
        let text = t.render();
        assert!(text.contains("sweep rejections (40):"));
        assert!(text.contains("... and 16 more"));
    }

    #[test]
    fn choice_params_formats() {
        assert_eq!(choice_params(&KernelChoice::Copy), "copy");
        assert_eq!(choice_params(&KernelChoice::Naive), "naive");
        assert_eq!(
            choice_params(&KernelChoice::FviMatchSmall { b: 4 }),
            "fvi-small b=4"
        );
        assert_eq!(
            choice_params(&KernelChoice::OrthogonalDistinct(OdChoice {
                in_dims: 2,
                block_a: 7,
                out_dims: 1,
                block_b: 27,
            })),
            "od in=2 a=7 out=1 b=27"
        );
    }

    #[test]
    fn reject_reason_labels_are_stable() {
        assert_eq!(RejectReason::Invalid.as_str(), "invalid");
        assert_eq!(RejectReason::SmemOverflow.as_str(), "smem-overflow");
        assert_eq!(RejectReason::Occupancy.as_str(), "occupancy");
        assert_eq!(RejectReason::Duplicate.as_str(), "duplicate");
    }
}
