//! The public planning/execution API of TTLG-rs.
//!
//! [`Transposer::plan`] reproduces the paper's pipeline: fuse indices,
//! dispatch through the taxonomy (Alg. 1), enumerate slice candidates
//! (Alg. 3), rank them with the performance model, and build the chosen
//! kernel (offset arrays included). [`Transposer::execute`] runs the plan
//! on the simulated device, returning both the transposed tensor and a
//! timing/bandwidth report in the units the paper's figures use.

use crate::backend::Backend;
use crate::features::{self, Candidate, KernelChoice};
use crate::kernels::{
    CopyKernel, FviMatchLargeKernel, FviMatchSmallKernel, NaiveKernel, OrthogonalArbitraryKernel,
    OrthogonalDistinctKernel,
};
use crate::model::{AnalyticPredictor, TimePredictor};
use crate::problem::Problem;
use crate::schema::{applicable_schemas, Schema};
use crate::slice;
use crate::trace::{choice_params, CandidateTrace, DecisionTrace};
use std::sync::{Arc, OnceLock};
use ttlg_gpu_sim::{
    executor::LaunchError, Accounting, BlockIo, BlockKernel, DeviceConfig, Executor, KernelTiming,
    Launch, TimingModel, TransactionStats,
};
use ttlg_tensor::{DenseTensor, Element, Permutation, Shape};

/// Per-candidate predictor-evaluation cost charged to plan time, ns.
const PLAN_PER_CANDIDATE_NS: f64 = 2_000.0;
/// Host-side offset-array construction cost, ns per byte.
const PLAN_OFFSET_NS_PER_BYTE: f64 = 0.5;
/// Analytic-guard factor: a candidate is only eligible if the closed-form
/// model rates it within this factor of the analytic best (see
/// [`Transposer::plan`]).
const ANALYTIC_GUARD: f64 = 1.25;
/// Candidate count above which the Alg. 3 sweep scores candidates in
/// parallel; below it the per-thread setup would cost more than the
/// predictor evaluations it distributes. Measured on a 2-vCPU VM: a
/// candidate scores in 0.08-0.2 µs and starting two workers takes about
/// 55 µs, so workers pay only past about a thousand candidates. The
/// 6D sweep's plans score at most about 100 and planned 60-120 µs faster
/// on the calling thread.
const PARALLEL_SWEEP_MIN: usize = 2048;

/// Options controlling planning.
#[derive(Debug, Clone)]
pub struct TransposeOptions {
    /// Force a specific schema (ablations); `None` = taxonomy decides.
    pub forced_schema: Option<Schema>,
    /// Apply index fusion (always on in the paper; off for ablations).
    pub enable_fusion: bool,
    /// Sweep slice candidates with the model (Alg. 3) instead of taking
    /// the flow-chart default.
    pub model_sweep: bool,
    /// Overbooking factor bounding the slice volume (Alg. 3).
    pub overbooking: usize,
    /// Verify that kernel blocks write disjoint output elements (slow;
    /// for tests).
    pub check_disjoint_writes: bool,
    /// Which execution backend to plan for: `Some(b)` restricts the
    /// sweep to backend `b`; `None` sweeps candidates across *all*
    /// backends and lets the model pick. The default pins the GPU
    /// simulator, preserving the original library behavior.
    pub backend: Option<Backend>,
}

impl Default for TransposeOptions {
    fn default() -> Self {
        TransposeOptions {
            forced_schema: None,
            enable_fusion: true,
            model_sweep: true,
            overbooking: slice::DEFAULT_OVERBOOKING,
            check_disjoint_writes: false,
            backend: Some(Backend::GpuSim),
        }
    }
}

impl TransposeOptions {
    /// Default options pinned to one backend.
    pub fn for_backend(backend: Backend) -> Self {
        TransposeOptions {
            backend: Some(backend),
            ..Default::default()
        }
    }

    /// The backends this option set admits, in sweep order.
    pub fn backends(&self) -> Vec<Backend> {
        match self.backend {
            Some(b) => vec![b],
            None => Backend::ALL.to_vec(),
        }
    }
}

/// Planning/execution errors.
#[derive(Debug)]
pub enum PlanError {
    /// Shape/permutation validation failed.
    Tensor(ttlg_tensor::Error),
    /// No schema produced an admissible candidate.
    NoCandidate,
    /// The chosen kernel failed launch validation.
    Launch(LaunchError),
    /// The operation is not available on the plan's backend (e.g.
    /// simulator-side profiling of a CPU plan).
    Backend(Backend),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Tensor(e) => write!(f, "invalid problem: {e}"),
            PlanError::NoCandidate => write!(f, "no admissible kernel candidate"),
            PlanError::Launch(e) => write!(f, "launch rejected: {e}"),
            PlanError::Backend(b) => write!(f, "operation unsupported on backend {b}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ttlg_tensor::Error> for PlanError {
    fn from(e: ttlg_tensor::Error) -> Self {
        PlanError::Tensor(e)
    }
}

impl From<LaunchError> for PlanError {
    fn from(e: LaunchError) -> Self {
        PlanError::Launch(e)
    }
}

/// Type-erased kernel holder.
enum AnyKernel<E: Element> {
    Copy(CopyKernel<E>),
    Fml(FviMatchLargeKernel<E>),
    Fms(FviMatchSmallKernel<E>),
    Od(OrthogonalDistinctKernel<E>),
    Oa(OrthogonalArbitraryKernel<E>),
    Naive(NaiveKernel<E>),
}

impl<E: Element> BlockKernel<E> for AnyKernel<E> {
    fn name(&self) -> &str {
        match self {
            AnyKernel::Copy(k) => k.name(),
            AnyKernel::Fml(k) => k.name(),
            AnyKernel::Fms(k) => k.name(),
            AnyKernel::Od(k) => k.name(),
            AnyKernel::Oa(k) => k.name(),
            AnyKernel::Naive(k) => k.name(),
        }
    }

    fn launch(&self) -> Launch {
        match self {
            AnyKernel::Copy(k) => k.launch(),
            AnyKernel::Fml(k) => k.launch(),
            AnyKernel::Fms(k) => k.launch(),
            AnyKernel::Od(k) => k.launch(),
            AnyKernel::Oa(k) => k.launch(),
            AnyKernel::Naive(k) => k.launch(),
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        match self {
            AnyKernel::Copy(k) => k.run_block(block, io, acct),
            AnyKernel::Fml(k) => k.run_block(block, io, acct),
            AnyKernel::Fms(k) => k.run_block(block, io, acct),
            AnyKernel::Od(k) => k.run_block(block, io, acct),
            AnyKernel::Oa(k) => k.run_block(block, io, acct),
            AnyKernel::Naive(k) => k.run_block(block, io, acct),
        }
    }

    fn block_class(&self, block: usize) -> u32 {
        match self {
            AnyKernel::Copy(k) => k.block_class(block),
            AnyKernel::Fml(k) => k.block_class(block),
            AnyKernel::Fms(k) => k.block_class(block),
            AnyKernel::Od(k) => k.block_class(block),
            AnyKernel::Oa(k) => k.block_class(block),
            AnyKernel::Naive(k) => k.block_class(block),
        }
    }
}

/// The executable payload of a plan: a simulated-GPU block kernel, or a
/// real CPU loop nest.
enum PlanExec<E: Element> {
    Gpu(AnyKernel<E>),
    Cpu(ttlg_cpu::CpuPlan),
}

/// A reusable transposition plan for one (shape, permutation, element
/// type) triple.
pub struct Plan<E: Element> {
    problem: Problem,
    candidate: Candidate,
    kernel: PlanExec<E>,
    predicted_ns: f64,
    plan_time_ns: f64,
    candidates_evaluated: usize,
    check_disjoint_writes: bool,
    /// Whether `predicted_ns` is a *measured* time (measure-mode or an
    /// autotuner-installed candidate) rather than a model prediction.
    measured: bool,
    /// Wall-clock time of the Alg. 3 candidate sweep that produced this
    /// plan (0 when the plan bypassed the sweep) — the planner-side
    /// span the tracing layer attributes under `plan`.
    sweep_wall_ns: u64,
    /// The planner's full decision trace, retained when
    /// [`Transposer::set_trace_retention`] is on (shared so cached plans
    /// hand it to every request cheaply).
    decision: Option<Arc<DecisionTrace>>,
    /// A GPU plan's transaction statistics: one `Executor::analyze` run,
    /// made by the plan's first [`Transposer::execute_into`] and reported
    /// by every execution, which then only moves data. The
    /// `BlockKernel::block_class` contract makes them equal to a full
    /// run's. Stays empty for CPU plans.
    gpu_stats: OnceLock<TransactionStats>,
}

impl<E: Element> Plan<E> {
    /// The schema the planner chose.
    pub fn schema(&self) -> Schema {
        self.candidate.schema()
    }

    /// The fused problem this plan solves.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The chosen candidate (parameters + features).
    pub fn candidate(&self) -> &Candidate {
        &self.candidate
    }

    /// The backend this plan executes on.
    pub fn backend(&self) -> Backend {
        self.candidate.backend()
    }

    /// Launch geometry of the chosen kernel. For CPU plans this reports
    /// the candidate's logical geometry (tile blocks x worker threads).
    pub fn launch(&self) -> Launch {
        match &self.kernel {
            PlanExec::Gpu(k) => k.launch(),
            PlanExec::Cpu(_) => self.candidate.launch(),
        }
    }

    /// Model-predicted kernel time, ns.
    pub fn predicted_ns(&self) -> f64 {
        self.predicted_ns
    }

    /// Modeled plan-construction overhead, ns (counted once in the
    /// single-use scenario).
    pub fn plan_time_ns(&self) -> f64 {
        self.plan_time_ns
    }

    /// How many candidates the model ranked.
    pub fn candidates_evaluated(&self) -> usize {
        self.candidates_evaluated
    }

    /// Wall-clock nanoseconds the Alg. 3 candidate sweep took while
    /// building this plan; 0 for plans that bypassed the sweep
    /// (autotuner-installed candidates).
    pub fn sweep_wall_ns(&self) -> u64 {
        self.sweep_wall_ns
    }

    /// Whether this plan's time estimate comes from measurement
    /// (measure mode / autotuner) rather than the model. Lets the
    /// serving layer tag requests that ran on a warmed plan.
    pub fn is_measured(&self) -> bool {
        self.measured
    }

    /// The retained planner decision trace, if trace retention was on
    /// when this plan was built (see [`Transposer::set_trace_retention`]).
    pub fn decision_trace(&self) -> Option<&Arc<DecisionTrace>> {
        self.decision.as_ref()
    }

    /// Shape of the output tensor.
    pub fn out_shape(&self) -> Shape {
        self.problem
            .orig_perm
            .apply_to_shape(&self.problem.orig_shape)
            .expect("plan holds a validated problem")
    }
}

/// Execution report in the paper's units.
#[derive(Debug, Clone)]
pub struct TransposeReport {
    /// Schema used.
    pub schema: Schema,
    /// Kernel time, ns (modeled from the transaction statistics).
    pub kernel_time_ns: f64,
    /// The paper's bandwidth metric `2*volume*elem_bytes/time`, GB/s.
    pub bandwidth_gbps: f64,
    /// Transaction statistics: for GPU plans the sampled analysis, equal
    /// to a count over every block.
    pub stats: TransactionStats,
    /// Model-predicted kernel time, ns (for model-precision studies).
    pub predicted_ns: f64,
    /// Plan overhead, ns.
    pub plan_time_ns: f64,
    /// Timing decomposition.
    pub timing: KernelTiming,
}

/// Result of measuring one candidate on the simulated device.
#[derive(Debug, Clone)]
pub struct CandidateMeasurement {
    /// Measured (sampled-analysis) transaction statistics.
    pub stats: TransactionStats,
    /// Timing decomposition for those statistics.
    pub timing: KernelTiming,
}

/// One entry of the ranked candidate list [`Transposer::plan_topk`]
/// returns: the candidate plus both time estimates the ranking used.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The candidate (parameters + features).
    pub candidate: Candidate,
    /// Configured-predictor estimate, ns (the ranking key).
    pub predicted_ns: f64,
    /// Closed-form analytic estimate, ns.
    pub analytic_ns: f64,
    /// Whether the analytic guard excluded this candidate from the
    /// eligible set (rejected candidates rank after all eligible ones).
    pub guard_rejected: bool,
}

/// The TTLG library object: owns the device, the executor, and the
/// performance model.
pub struct Transposer {
    executor: Executor,
    timing: TimingModel,
    predictor: Arc<dyn TimePredictor>,
    /// Closed-form model kept alongside any custom predictor as a sanity
    /// guard during candidate ranking (see [`Transposer::plan`]).
    analytic: AnalyticPredictor,
    /// When set, every [`Transposer::plan`] retains its full
    /// [`DecisionTrace`] on the returned [`Plan`] (see
    /// [`Plan::decision_trace`]) so serving layers can attach the
    /// planner's reasoning to slow-request exemplars after the fact.
    retain_traces: std::sync::atomic::AtomicBool,
}

impl Transposer {
    /// Build with the default (analytic) predictor.
    pub fn new(device: DeviceConfig) -> Self {
        let predictor = Arc::new(AnalyticPredictor::new(device.clone()));
        Self::with_predictor(device, predictor)
    }

    /// Build for the paper's Tesla K40c.
    pub fn new_k40c() -> Self {
        Self::new(DeviceConfig::k40c())
    }

    /// Build with a custom predictor (e.g. the trained regression models
    /// of `ttlg-perfmodel`).
    pub fn with_predictor(device: DeviceConfig, predictor: Arc<dyn TimePredictor>) -> Self {
        Transposer {
            executor: Executor::new(device.clone()),
            analytic: AnalyticPredictor::new(device.clone()),
            timing: TimingModel::new(device),
            predictor,
            retain_traces: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Toggle decision-trace retention: when on, plans built by
    /// [`Transposer::plan`] (and through caches that call it) carry an
    /// `Arc<DecisionTrace>` ([`Plan::decision_trace`]). Off by default —
    /// the trace costs one allocation per *planning* (not per request),
    /// so turning it on is cheap in cache-hit-dominated serving.
    pub fn set_trace_retention(&self, on: bool) {
        self.retain_traces
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether decision-trace retention is on.
    pub fn retains_traces(&self) -> bool {
        self.retain_traces
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        self.executor.device()
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Build a plan for transposing `shape` by `perm`.
    pub fn plan<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
    ) -> Result<Plan<E>, PlanError> {
        self.plan_impl::<E>(shape, perm, opts, None)
    }

    /// [`Transposer::plan`] plus a full [`DecisionTrace`]: every candidate
    /// the model ranked (with slice sizes and both time estimates), every
    /// configuration the sweep rejected and why, the analytic-guard band,
    /// and the final choice. This is what `ttlg explain` prints.
    pub fn plan_traced<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
    ) -> Result<(Plan<E>, DecisionTrace), PlanError> {
        let mut trace = DecisionTrace::default();
        let plan = self.plan_impl::<E>(shape, perm, opts, Some(&mut trace))?;
        Ok((plan, trace))
    }

    fn plan_impl<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Result<Plan<E>, PlanError> {
        // Retention hook: when the caller asked for no trace but
        // retention is on, build one anyway and attach it to the plan.
        let mut owned: Option<DecisionTrace> = if trace.is_none() && self.retains_traces() {
            Some(DecisionTrace::default())
        } else {
            None
        };
        let problem = build_problem(shape, perm, opts)?;
        let schemas = match opts.forced_schema {
            Some(s) => vec![s],
            None => applicable_schemas(&problem),
        };
        if let Some(tr) = trace.as_deref_mut().or(owned.as_mut()) {
            tr.extents = shape.extents().to_vec();
            tr.perm = perm.as_slice().to_vec();
            tr.fused_extents = problem.shape.extents().to_vec();
            tr.fused_perm = problem.perm.as_slice().to_vec();
            tr.admissible = schemas.clone();
            tr.guard_factor = ANALYTIC_GUARD;
        }
        let sweep_started = std::time::Instant::now();
        let (predicted_ns, candidate, evaluated) = self.rank_candidates_impl::<E>(
            &problem,
            &schemas,
            opts,
            trace.as_deref_mut().or(owned.as_mut()),
        )?;
        let sweep_wall_ns = sweep_started.elapsed().as_nanos() as u64;
        let mut plan = self.finish_plan::<E>(problem, candidate, predicted_ns, evaluated, opts);
        plan.sweep_wall_ns = sweep_wall_ns;
        if let Some(tr) = trace {
            tr.plan_time_ns = plan.plan_time_ns;
        }
        if let Some(mut tr) = owned {
            tr.plan_time_ns = plan.plan_time_ns;
            plan.decision = Some(Arc::new(tr));
        }
        Ok(plan)
    }

    /// Like [`Transposer::plan`], but also return the `k` best-ranked
    /// candidates from the Alg. 3 sweep (best first; guard-eligible
    /// candidates rank before guard-rejected ones) — the measure-mode
    /// autotuner re-measures these on the device. The returned plan is
    /// identical to what [`Transposer::plan`] would pick: it is built
    /// from the head of the ranking.
    pub fn plan_topk<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
        k: usize,
    ) -> Result<(Plan<E>, Vec<RankedCandidate>), PlanError> {
        let problem = build_problem(shape, perm, opts)?;
        let schemas = match opts.forced_schema {
            Some(s) => vec![s],
            None => applicable_schemas(&problem),
        };
        let sweep_started = std::time::Instant::now();
        let sweep = self.sweep_candidates::<E>(&problem, &schemas, opts, None)?;
        let sweep_wall_ns = sweep_started.elapsed().as_nanos() as u64;
        let evaluated = sweep.candidates.len();
        let ranked: Vec<RankedCandidate> = sweep
            .order
            .iter()
            .take(k.max(1))
            .map(|&i| RankedCandidate {
                candidate: sweep.candidates[i].clone(),
                predicted_ns: sweep.scores[i].0,
                analytic_ns: sweep.scores[i].1,
                guard_rejected: sweep.rejected[i],
            })
            .collect();
        let head = &ranked[0];
        let mut plan = self.finish_plan::<E>(
            problem,
            head.candidate.clone(),
            head.predicted_ns,
            evaluated,
            opts,
        );
        plan.sweep_wall_ns = sweep_wall_ns;
        Ok((plan, ranked))
    }

    /// Build a plan directly from a known candidate, bypassing the sweep
    /// — used by the autotuner to install a *measured*-best candidate.
    /// `predicted_ns` carries the caller's (typically measured) time
    /// estimate, so downstream prediction accounting sees the measured
    /// figure; the plan-time charge covers one candidate evaluation.
    pub fn plan_for_candidate<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
        candidate: Candidate,
        predicted_ns: f64,
    ) -> Result<Plan<E>, PlanError> {
        let problem = build_problem(shape, perm, opts)?;
        let mut plan = self.finish_plan::<E>(problem, candidate, predicted_ns, 1, opts);
        plan.measured = true;
        Ok(plan)
    }

    /// Assemble a [`Plan`] for an already-chosen candidate: build the
    /// kernel and charge the modeled plan time for `evaluated` ranked
    /// candidates plus offset-array construction.
    fn finish_plan<E: Element>(
        &self,
        problem: Problem,
        candidate: Candidate,
        predicted_ns: f64,
        evaluated: usize,
        opts: &TransposeOptions,
    ) -> Plan<E> {
        let kernel = build_exec::<E>(&problem, &candidate, self.executor.device().smem_per_sm);
        let offset_bytes = match &kernel {
            PlanExec::Gpu(AnyKernel::Od(k)) => k.offset_array_bytes(),
            PlanExec::Gpu(AnyKernel::Oa(k)) => k.offset_array_bytes(),
            _ => 0,
        };
        let plan_time_ns = self.timing.plan_overhead_ns()
            + evaluated as f64 * PLAN_PER_CANDIDATE_NS
            + offset_bytes as f64 * PLAN_OFFSET_NS_PER_BYTE;
        Plan {
            problem,
            candidate,
            kernel,
            predicted_ns,
            plan_time_ns,
            candidates_evaluated: evaluated,
            check_disjoint_writes: opts.check_disjoint_writes,
            measured: false,
            sweep_wall_ns: 0,
            decision: None,
            gpu_stats: OnceLock::new(),
        }
    }

    /// Rank all candidates of the given schemas: the configured predictor
    /// orders them, but a candidate is only eligible if the closed-form
    /// analytic model also rates it within a factor of the analytic best
    /// (a regression trained on one volume range can invert the ranking
    /// far outside it; the analytic model never strays that far).
    fn rank_candidates<E: Element>(
        &self,
        problem: &Problem,
        schemas: &[Schema],
        opts: &TransposeOptions,
    ) -> Result<(f64, Candidate, usize), PlanError> {
        self.rank_candidates_impl::<E>(problem, schemas, opts, None)
    }

    fn rank_candidates_impl<E: Element>(
        &self,
        problem: &Problem,
        schemas: &[Schema],
        opts: &TransposeOptions,
        trace: Option<&mut DecisionTrace>,
    ) -> Result<(f64, Candidate, usize), PlanError> {
        let sweep = self.sweep_candidates::<E>(problem, schemas, opts, trace)?;
        let best = sweep.order[0];
        let predicted_ns = sweep.scores[best].0;
        let mut candidates = sweep.candidates;
        let evaluated = candidates.len();
        let candidate = candidates.swap_remove(best);
        Ok((predicted_ns, candidate, evaluated))
    }

    /// Enumerate, score, and order every candidate of the given schemas
    /// — the shared heart of [`Transposer::plan`] and
    /// [`Transposer::plan_topk`].
    fn sweep_candidates<E: Element>(
        &self,
        problem: &Problem,
        schemas: &[Schema],
        opts: &TransposeOptions,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Result<SweepResult, PlanError> {
        let candidates = self.enumerate_all::<E>(problem, schemas, opts, trace.as_deref_mut());
        if candidates.is_empty() {
            return Err(PlanError::NoCandidate);
        }
        let scores = self.score_candidates(&candidates, true);
        let lanes: Vec<Backend> = candidates.iter().map(|c| c.backend()).collect();
        let (order, analytic_best, rejected) = order_candidates(&scores, &lanes);
        let best = order[0];
        if let Some(tr) = trace {
            tr.analytic_best_ns = analytic_best;
            tr.chosen = Some(best);
            tr.candidates = candidates
                .iter()
                .zip(&scores)
                .enumerate()
                .map(|(i, (c, (t, a)))| CandidateTrace {
                    schema: c.schema(),
                    params: choice_params(&c.choice),
                    input_slice: c.input_slice,
                    output_slice: c.output_slice,
                    total_slice: c.total_slice,
                    grid_blocks: c.grid_blocks,
                    threads_per_block: c.threads_per_block,
                    smem_bytes: c.smem_bytes,
                    predicted_ns: *t,
                    analytic_ns: *a,
                    guard_rejected: rejected[i],
                    chosen: i == best,
                })
                .collect();
        }
        Ok(SweepResult {
            candidates,
            scores,
            order,
            rejected,
        })
    }

    /// Enumerate every candidate of the given schemas (Alg. 3), in the
    /// deterministic schema-then-sweep order.
    fn enumerate_all<E: Element>(
        &self,
        problem: &Problem,
        schemas: &[Schema],
        opts: &TransposeOptions,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Vec<Candidate> {
        let device = self.executor.device();
        let backends = opts.backends();
        let mut cands = Vec::new();
        if backends.contains(&Backend::GpuSim) {
            for &schema in schemas {
                let list = match trace.as_deref_mut() {
                    Some(tr) => slice::enumerate_candidates_traced::<E>(
                        problem,
                        schema,
                        device,
                        opts.overbooking,
                        opts.model_sweep,
                        &mut tr.rejections,
                    ),
                    None => slice::enumerate_candidates::<E>(
                        problem,
                        schema,
                        device,
                        opts.overbooking,
                        opts.model_sweep,
                    ),
                };
                cands.extend(list);
            }
        }
        if backends.contains(&Backend::Cpu) {
            cands.extend(enumerate_cpu_candidates::<E>(problem, schemas, opts));
        }
        cands
    }

    /// Score every candidate with both predictors, returning
    /// `(predicted_ns, analytic_ns)` per candidate in input order. Wide
    /// sweeps fan out over `ttlg_tensor::parallel` — bounded by any
    /// enclosing `with_thread_cap` scope, since `parallel_for` reads the
    /// capped thread count on the calling thread — while narrow sweeps
    /// stay sequential ([`PARALLEL_SWEEP_MIN`]). Both paths produce
    /// bit-identical scores in identical order.
    fn score_candidates(&self, cands: &[Candidate], allow_parallel: bool) -> Vec<(f64, f64)> {
        let score = |c: &Candidate| (self.predictor.predict_ns(c), self.analytic.predict_ns(c));
        if allow_parallel
            && cands.len() >= PARALLEL_SWEEP_MIN
            && ttlg_tensor::parallel::default_threads() > 1
        {
            let slots: Vec<std::sync::OnceLock<(f64, f64)>> = (0..cands.len())
                .map(|_| std::sync::OnceLock::new())
                .collect();
            ttlg_tensor::parallel::parallel_for(cands.len(), 8, |i| {
                slots[i]
                    .set(score(&cands[i]))
                    .expect("each candidate scored exactly once");
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("sweep covered every candidate"))
                .collect()
        } else {
            cands.iter().map(score).collect()
        }
    }

    /// Execute a plan, producing the transposed tensor and a report.
    pub fn execute<E: Element>(
        &self,
        plan: &Plan<E>,
        input: &DenseTensor<E>,
    ) -> Result<(DenseTensor<E>, TransposeReport), PlanError> {
        let mut out = DenseTensor::zeros(plan.out_shape());
        let report = self.execute_into(plan, input, &mut out)?;
        Ok((out, report))
    }

    /// Execute a plan into a pre-allocated output tensor. A GPU plan
    /// moves the data with a data-only block run and reports the
    /// statistics its first execution analyzed and cached on the plan.
    pub fn execute_into<E: Element>(
        &self,
        plan: &Plan<E>,
        input: &DenseTensor<E>,
        out: &mut DenseTensor<E>,
    ) -> Result<TransposeReport, PlanError> {
        assert_eq!(
            input.shape(),
            &plan.problem.orig_shape,
            "input shape does not match the planned shape"
        );
        // Compare with `plan.out_shape()` extent by extent, without
        // building a `Shape` on every call.
        let (planned, perm) = (
            plan.problem.orig_shape.extents(),
            plan.problem.orig_perm.as_slice(),
        );
        let out_ext = out.shape().extents();
        assert!(
            out_ext.len() == perm.len() && perm.iter().zip(out_ext).all(|(&d, &e)| planned[d] == e),
            "output shape {out_ext:?} does not match the planned output shape"
        );
        match &plan.kernel {
            PlanExec::Gpu(k) => {
                let stats = match plan.gpu_stats.get() {
                    Some(stats) => *stats,
                    None => {
                        let analyzed = self.executor.analyze(k)?.stats;
                        // Racing first executions each analyze; their
                        // results are identical and the first one stays.
                        *plan.gpu_stats.get_or_init(|| analyzed)
                    }
                };
                self.executor
                    .copy(k, input.data(), out.data_mut(), plan.check_disjoint_writes)?;
                Ok(self.report(plan, &stats))
            }
            PlanExec::Cpu(cp) => {
                let started = std::time::Instant::now();
                ttlg_cpu::execute(cp, input.data(), out.data_mut());
                let wall_ns = (started.elapsed().as_nanos() as f64).max(1.0);
                Ok(cpu_report(plan, wall_ns))
            }
        }
    }

    /// Profile a plan's kernel (nvprof-style counters and bottleneck
    /// analysis from the simulator).
    pub fn profile_plan<E: Element>(
        &self,
        plan: &Plan<E>,
    ) -> Result<ttlg_gpu_sim::ProfileReport, PlanError> {
        let PlanExec::Gpu(kernel) = &plan.kernel else {
            return Err(PlanError::Backend(plan.backend()));
        };
        let profiler = ttlg_gpu_sim::Profiler::new(self.executor.device().clone());
        Ok(profiler.profile::<E, _>(kernel)?)
    }

    /// Time a plan without moving caller data — sampled analysis for GPU
    /// plans (what the large benchmark sweeps use); for CPU plans one
    /// real execution over scratch buffers, wall-clock timed.
    pub fn time_plan<E: Element>(&self, plan: &Plan<E>) -> Result<TransposeReport, PlanError> {
        match &plan.kernel {
            PlanExec::Gpu(k) => {
                let outcome = self.executor.analyze(k)?;
                Ok(self.report(plan, &outcome.stats))
            }
            PlanExec::Cpu(cp) => {
                let src: DenseTensor<E> = DenseTensor::zeros(plan.problem.orig_shape.clone());
                let mut dst: DenseTensor<E> = DenseTensor::zeros(plan.out_shape());
                let started = std::time::Instant::now();
                ttlg_cpu::execute(cp, src.data(), dst.data_mut());
                let wall_ns = (started.elapsed().as_nanos() as f64).max(1.0);
                Ok(cpu_report(plan, wall_ns))
            }
        }
    }

    fn report<E: Element>(&self, plan: &Plan<E>, stats: &TransactionStats) -> TransposeReport {
        let timing = self.timing.time(stats, &plan.launch());
        let bw = timing.bandwidth_gbps(plan.problem.volume(), E::BYTES);
        TransposeReport {
            schema: plan.schema(),
            kernel_time_ns: timing.time_ns,
            bandwidth_gbps: bw,
            stats: *stats,
            predicted_ns: plan.predicted_ns,
            plan_time_ns: plan.plan_time_ns,
            timing,
        }
    }

    /// One-shot convenience: plan + execute with default options.
    pub fn transpose<E: Element>(
        &self,
        input: &DenseTensor<E>,
        perm: &Permutation,
    ) -> Result<(DenseTensor<E>, TransposeReport), PlanError> {
        let plan = self.plan::<E>(input.shape(), perm, &TransposeOptions::default())?;
        self.execute(&plan, input)
    }

    /// Measure-mode planning: build *every* candidate kernel, time each on
    /// the device (sampled analysis), and keep the actually-fastest one —
    /// the upper bound the regression model is judged against, and the
    /// TTLG analogue of cuTT's measure mode. The plan-time charge includes
    /// the measured executions, so single-use comparisons stay honest.
    pub fn plan_measured<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
    ) -> Result<Plan<E>, PlanError> {
        let problem = if opts.enable_fusion {
            Problem::new(shape, perm)?
        } else {
            Problem::new_unfused(shape, perm)?
        };
        let schemas = match opts.forced_schema {
            Some(s) => vec![s],
            None => applicable_schemas(&problem),
        };
        let device = self.executor.device();
        let sweep_started = std::time::Instant::now();
        let mut best: Option<(f64, Candidate, PlanExec<E>)> = None;
        let mut evaluated = 0usize;
        let mut measured_ns = 0.0;
        for cand in self.enumerate_all::<E>(&problem, &schemas, opts, None) {
            let exec = build_exec::<E>(&problem, &cand, device.smem_per_sm);
            let t = match &exec {
                PlanExec::Gpu(kernel) => {
                    let outcome = self.executor.analyze(kernel)?;
                    self.timing.time(&outcome.stats, &kernel.launch()).time_ns
                }
                PlanExec::Cpu(cp) => {
                    // CPU candidates are timed on real wall clock against
                    // scratch buffers — their nanoseconds and the synthetic
                    // GPU nanoseconds only compete when the caller asked
                    // for a cross-backend sweep.
                    let src = DenseTensor::<E>::zeros(problem.orig_shape.clone());
                    let out_shape = problem.orig_perm.apply_to_shape(&problem.orig_shape)?;
                    let mut dst = DenseTensor::<E>::zeros(out_shape);
                    let started = std::time::Instant::now();
                    ttlg_cpu::execute(cp, src.data(), dst.data_mut());
                    (started.elapsed().as_nanos() as f64).max(1.0)
                }
            };
            evaluated += 1;
            measured_ns += t;
            if best.as_ref().map(|(bt, _, _)| t < *bt).unwrap_or(true) {
                best = Some((t, cand, exec));
            }
        }
        let (best_ns, candidate, kernel) = best.ok_or(PlanError::NoCandidate)?;
        let plan_time_ns =
            self.timing.plan_overhead_ns() + measured_ns + evaluated as f64 * PLAN_PER_CANDIDATE_NS;
        Ok(Plan {
            problem,
            candidate,
            kernel,
            predicted_ns: best_ns,
            plan_time_ns,
            candidates_evaluated: evaluated,
            check_disjoint_writes: opts.check_disjoint_writes,
            measured: true,
            sweep_wall_ns: sweep_started.elapsed().as_nanos() as u64,
            decision: None,
            gpu_stats: OnceLock::new(),
        })
    }

    /// Build and time one specific candidate via sampled analysis —
    /// the ground-truth generator for offline model training and the
    /// building block of measure-mode baselines.
    pub fn measure_candidate<E: Element>(
        &self,
        problem: &Problem,
        cand: &Candidate,
    ) -> Result<CandidateMeasurement, PlanError> {
        match build_exec::<E>(problem, cand, self.executor.device().smem_per_sm) {
            PlanExec::Gpu(kernel) => {
                let outcome = self.executor.analyze(&kernel)?;
                let timing = self.timing.time(&outcome.stats, &kernel.launch());
                Ok(CandidateMeasurement {
                    stats: outcome.stats,
                    timing,
                })
            }
            PlanExec::Cpu(cp) => {
                let src = DenseTensor::<E>::zeros(problem.orig_shape.clone());
                let out_shape = problem.orig_perm.apply_to_shape(&problem.orig_shape)?;
                let mut dst = DenseTensor::<E>::zeros(out_shape);
                let started = std::time::Instant::now();
                ttlg_cpu::execute(&cp, src.data(), dst.data_mut());
                let wall_ns = (started.elapsed().as_nanos() as f64).max(1.0);
                Ok(CandidateMeasurement {
                    stats: cpu_stats(problem.volume(), E::BYTES),
                    timing: cpu_timing(wall_ns),
                })
            }
        }
    }

    /// The queryable prediction interface (paper Sec. I): estimated
    /// transposition time for a (shape, permutation) pair without building
    /// offset arrays or touching data.
    pub fn predict_transpose_ns<E: Element>(
        &self,
        shape: &Shape,
        perm: &Permutation,
    ) -> Result<f64, PlanError> {
        let problem = Problem::new(shape, perm)?;
        let schemas = applicable_schemas(&problem);
        let (best, _, _) =
            self.rank_candidates::<E>(&problem, &schemas, &TransposeOptions::default())?;
        Ok(best)
    }
}

/// Output of the enumerate + score + order sweep.
struct SweepResult {
    /// Every enumerated candidate, in enumeration order.
    candidates: Vec<Candidate>,
    /// `(predicted_ns, analytic_ns)` per candidate, same order.
    scores: Vec<(f64, f64)>,
    /// Candidate indices, best first (see [`order_candidates`]).
    order: Vec<usize>,
    /// Per-candidate analytic-guard rejection flag, enumeration order.
    rejected: Vec<bool>,
}

/// Order candidate indices best-first: guard-eligible candidates sorted
/// by predicted time (stable, so ties keep enumeration order and the
/// head reproduces the sequential argmin), then guard-rejected ones
/// sorted the same way. The guard band is computed **per backend lane**
/// (`lanes[i]` is candidate `i`'s backend): a synthetic-GPU nanosecond
/// and a wall-clock CPU nanosecond live on different scales, and one
/// shared band would blanket-reject whichever backend models slower.
/// Returns the order, the overall analytic best, and per-candidate
/// rejection flags.
fn order_candidates(scores: &[(f64, f64)], lanes: &[Backend]) -> (Vec<usize>, f64, Vec<bool>) {
    debug_assert_eq!(scores.len(), lanes.len());
    let mut lane_best = [f64::INFINITY; Backend::ALL.len()];
    for (i, &(_, a)) in scores.iter().enumerate() {
        let l = lanes[i].index();
        lane_best[l] = lane_best[l].min(a);
    }
    let rejected: Vec<bool> = scores
        .iter()
        .enumerate()
        .map(|(i, &(_, a))| a > ANALYTIC_GUARD * lane_best[lanes[i].index()])
        .collect();
    let analytic_best = scores.iter().fold(f64::INFINITY, |m, &(_, a)| m.min(a));
    let by_predicted =
        |&i: &usize, &j: &usize| scores[i].0.partial_cmp(&scores[j].0).expect("finite");
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| !rejected[i]).collect();
    let mut tail: Vec<usize> = (0..scores.len()).filter(|&i| rejected[i]).collect();
    order.sort_by(by_predicted);
    tail.sort_by(by_predicted);
    order.extend(tail);
    (order, analytic_best, rejected)
}

/// Enumerate CPU-backend candidates for a problem: the dtype-sized tile
/// plus the default tile (deduplicated), each at a small ladder of
/// worker-thread counts up to the machine's parallelism. The candidate's
/// schema label is the problem's primary taxonomy class (what the GPU
/// flow chart would dispatch to), so per-schema accounting stays
/// comparable across backends. With `model_sweep` off only the default
/// configuration is produced.
fn enumerate_cpu_candidates<E: Element>(
    problem: &Problem,
    schemas: &[Schema],
    opts: &TransposeOptions,
) -> Vec<Candidate> {
    let schema = schemas.first().copied().unwrap_or(Schema::Naive);
    let machine = ttlg_tensor::parallel::default_threads();
    let default_tile = ttlg_cpu::pick_tile(E::BYTES);
    if !opts.model_sweep {
        return vec![features::cpu_candidate::<E>(
            problem,
            schema,
            default_tile,
            machine,
        )];
    }
    let mut tiles = vec![default_tile];
    if !tiles.contains(&ttlg_cpu::DEFAULT_TILE) {
        tiles.push(ttlg_cpu::DEFAULT_TILE);
    }
    let mut threads = vec![1usize];
    for t in [2, 4, machine] {
        if t > 1 && t <= machine && !threads.contains(&t) {
            threads.push(t);
        }
    }
    let mut cands = Vec::with_capacity(tiles.len() * threads.len());
    for &tile in &tiles {
        for &th in &threads {
            cands.push(features::cpu_candidate::<E>(problem, schema, tile, th));
        }
    }
    cands
}

/// Build the (optionally fused) problem the options describe.
fn build_problem(
    shape: &Shape,
    perm: &Permutation,
    opts: &TransposeOptions,
) -> Result<Problem, PlanError> {
    Ok(if opts.enable_fusion {
        Problem::new(shape, perm)?
    } else {
        Problem::new_unfused(shape, perm)?
    })
}

/// Build the concrete executable for a candidate: a simulated block
/// kernel for GPU choices, a [`ttlg_cpu::CpuPlan`] for the CPU choice.
fn build_exec<E: Element>(p: &Problem, cand: &Candidate, smem_limit: usize) -> PlanExec<E> {
    PlanExec::Gpu(match cand.choice {
        KernelChoice::Copy => AnyKernel::Copy(CopyKernel::new(p.volume())),
        KernelChoice::FviMatchLarge => AnyKernel::Fml(FviMatchLargeKernel::new(p)),
        KernelChoice::FviMatchSmall { b } => AnyKernel::Fms(FviMatchSmallKernel::with_b(p, b)),
        KernelChoice::OrthogonalDistinct(c) => AnyKernel::Od(OrthogonalDistinctKernel::new(p, c)),
        KernelChoice::OrthogonalArbitrary(c) => {
            AnyKernel::Oa(OrthogonalArbitraryKernel::new(p, c, smem_limit))
        }
        KernelChoice::Naive => AnyKernel::Naive(NaiveKernel::new(p)),
        KernelChoice::CpuTiled { tile, threads, .. } => {
            return PlanExec::Cpu(ttlg_cpu::CpuPlan::new(
                p.shape.extents(),
                p.perm.as_slice(),
                tile,
                threads,
            ))
        }
    })
}

/// Fabricated transaction statistics for a CPU execution: modeled
/// cache-line traffic on each side plus the element count, so the
/// report/observe pipeline downstream keeps working on real-backend
/// runs.
fn cpu_stats(volume: usize, elem_bytes: usize) -> TransactionStats {
    let line_tx = (volume * elem_bytes).div_ceil(features::CPU_LINE_BYTES) as u64;
    TransactionStats {
        dram_load_tx: line_tx,
        dram_store_tx: line_tx,
        elements_moved: volume as u64,
        ..Default::default()
    }
}

/// A [`KernelTiming`] carrying a measured wall-clock time: all of it
/// attributed to DRAM (the tiled kernel is memory-bound by design), with
/// neutral overlap factors.
fn cpu_timing(wall_ns: f64) -> KernelTiming {
    KernelTiming {
        time_ns: wall_ns,
        dram_ns: wall_ns,
        smem_ns: 0.0,
        instr_ns: 0.0,
        launch_ns: 0.0,
        mlp: 1.0,
        tail: 1.0,
    }
}

/// Assemble a [`TransposeReport`] for a wall-clock-timed CPU execution.
fn cpu_report<E: Element>(plan: &Plan<E>, wall_ns: f64) -> TransposeReport {
    let vol = plan.problem.volume();
    let timing = cpu_timing(wall_ns);
    TransposeReport {
        schema: plan.schema(),
        kernel_time_ns: wall_ns,
        bandwidth_gbps: timing.bandwidth_gbps(vol, E::BYTES),
        stats: cpu_stats(vol, E::BYTES),
        predicted_ns: plan.predicted_ns,
        plan_time_ns: plan.plan_time_ns,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_gpu_sim::executor::PARALLEL_ANALYZE_MIN_CLASSES;
    use ttlg_gpu_sim::ExecMode;
    use ttlg_tensor::reference;
    use ttlg_tensor::rng::StdRng;

    fn opts_checked() -> TransposeOptions {
        TransposeOptions {
            check_disjoint_writes: true,
            ..Default::default()
        }
    }

    fn roundtrip(extents: &[usize], perm: &[usize]) -> TransposeReport {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let t = Transposer::new_k40c();
        let plan = t.plan::<u64>(&shape, &perm, &opts_checked()).unwrap();
        let input: DenseTensor<u64> = DenseTensor::iota(shape);
        let (out, report) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data(), "case {extents:?} perm {perm}");
        report
    }

    #[test]
    fn cpu_backend_plans_and_executes_bit_equal() {
        let t = Transposer::new_k40c();
        let opts = TransposeOptions::for_backend(Backend::Cpu);
        for (extents, perm) in [
            (&[64, 8, 8][..], &[0, 2, 1][..]),
            (&[16, 16, 16], &[2, 1, 0]),
            (&[9, 7, 5, 3], &[3, 1, 0, 2]),
            (&[32, 32], &[0, 1]),
        ] {
            let shape = Shape::new(extents).unwrap();
            let perm = Permutation::new(perm).unwrap();
            let plan = t.plan::<u64>(&shape, &perm, &opts).unwrap();
            assert_eq!(plan.backend(), Backend::Cpu, "case {extents:?}");
            assert!(matches!(
                plan.candidate.choice,
                KernelChoice::CpuTiled { .. }
            ));
            let input: DenseTensor<u64> = DenseTensor::iota(shape);
            let (out, report) = t.execute(&plan, &input).unwrap();
            let expect = reference::transpose_reference(&input, &perm).unwrap();
            assert_eq!(out.data(), expect.data(), "case {extents:?} perm {perm}");
            assert!(report.kernel_time_ns > 0.0);
            assert!(report.bandwidth_gbps > 0.0);
            assert!(report.stats.dram_load_tx > 0);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the planned output shape")]
    fn execute_into_rejects_a_same_volume_output_of_the_wrong_shape() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[4, 6]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let plan = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::for_backend(Backend::Cpu))
            .unwrap();
        let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
        let mut out = DenseTensor::<f64>::zeros(shape);
        let _ = t.execute_into(&plan, &input, &mut out);
    }

    #[test]
    fn default_options_stay_on_gpu_sim() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[32, 32, 32]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let plan = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        assert_eq!(plan.backend(), Backend::GpuSim);
    }

    #[test]
    fn cross_backend_sweep_considers_both_lanes() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[32, 16, 16]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let opts = TransposeOptions {
            backend: None,
            ..Default::default()
        };
        let problem = Problem::new(&shape, &perm).unwrap();
        let schemas = applicable_schemas(&problem);
        let cands = t.enumerate_all::<f64>(&problem, &schemas, &opts, None);
        assert!(cands.iter().any(|c| c.backend() == Backend::GpuSim));
        assert!(cands.iter().any(|c| c.backend() == Backend::Cpu));
        // The auto sweep plans and executes correctly whichever lane wins.
        let plan = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
        let (out, _) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
        // Guard flags were computed per lane: within each backend at
        // least one candidate survives the band.
        let (_, ranked) = t.plan_topk::<f64>(&shape, &perm, &opts, 32).unwrap();
        for b in Backend::ALL {
            let lane: Vec<_> = ranked
                .iter()
                .filter(|r| r.candidate.backend() == b)
                .collect();
            if !lane.is_empty() {
                assert!(
                    lane.iter().any(|r| !r.guard_rejected),
                    "lane {b} fully guard-rejected"
                );
            }
        }
    }

    #[test]
    fn cpu_backend_measured_planning_works() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[48, 16, 8]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let opts = TransposeOptions::for_backend(Backend::Cpu);
        let plan = t.plan_measured::<u32>(&shape, &perm, &opts).unwrap();
        assert_eq!(plan.backend(), Backend::Cpu);
        assert!(plan.is_measured());
        let input: DenseTensor<u32> = DenseTensor::iota(shape);
        let (out, _) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
        // measure_candidate on the winning candidate produces a
        // wall-clock timing with CPU-modeled stats.
        let m = t
            .measure_candidate::<u32>(&plan.problem, &plan.candidate)
            .unwrap();
        assert!(m.timing.time_ns > 0.0);
        assert!(m.stats.dram_load_tx > 0);
    }

    #[test]
    fn profile_rejects_cpu_plans() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[16, 16]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let opts = TransposeOptions::for_backend(Backend::Cpu);
        let plan = t.plan::<u64>(&shape, &perm, &opts).unwrap();
        match t.profile_plan(&plan) {
            Err(PlanError::Backend(Backend::Cpu)) => {}
            Err(e) => panic!("expected Backend error, got {e:?}"),
            Ok(_) => panic!("expected Backend error, got a profile"),
        }
    }

    #[test]
    fn plans_and_executes_all_schema_families() {
        // Copy (identity)
        let r = roundtrip(&[16, 16, 16], &[0, 1, 2]);
        assert_eq!(r.schema, Schema::Copy);
        // FVI-Match-Large
        let r = roundtrip(&[64, 8, 8], &[0, 2, 1]);
        assert_eq!(r.schema, Schema::FviMatchLarge);
        // FVI-Match-Small family (model may pick FMS or OA)
        let r = roundtrip(&[8, 8, 8, 8], &[0, 3, 2, 1]);
        assert!(matches!(
            r.schema,
            Schema::FviMatchSmall | Schema::OrthogonalArbitrary
        ));
        // Orthogonal-Distinct family
        let r = roundtrip(&[64, 64], &[1, 0]);
        assert!(matches!(
            r.schema,
            Schema::OrthogonalDistinct | Schema::OrthogonalArbitrary
        ));
        // Orthogonal-Arbitrary (overlap)
        let r = roundtrip(&[8, 2, 8, 8], &[2, 1, 3, 0]);
        assert!(r.bandwidth_gbps > 0.0);
    }

    #[test]
    fn transpose_one_shot() {
        let shape = Shape::new(&[16, 16, 16]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let t = Transposer::new_k40c();
        let input: DenseTensor<f64> = DenseTensor::iota(shape);
        let (out, report) = t.transpose(&input, &perm).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
        assert!(report.kernel_time_ns > 0.0);
        assert!(report.plan_time_ns > 0.0);
    }

    #[test]
    fn forced_schema_and_fusion_ablation() {
        let shape = Shape::new(&[16, 16, 16]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let t = Transposer::new_k40c();
        let input: DenseTensor<u64> = DenseTensor::iota(shape.clone());
        for forced in [Schema::Naive, Schema::OrthogonalArbitrary] {
            let o = TransposeOptions {
                forced_schema: Some(forced),
                check_disjoint_writes: true,
                ..Default::default()
            };
            let plan = t.plan::<u64>(&shape, &perm, &o).unwrap();
            assert_eq!(plan.schema(), forced);
            let (out, _) = t.execute(&plan, &input).unwrap();
            let expect = reference::transpose_reference(&input, &perm).unwrap();
            assert_eq!(out.data(), expect.data());
        }
        // fusion off still correct
        let o = TransposeOptions {
            enable_fusion: false,
            check_disjoint_writes: true,
            ..Default::default()
        };
        let perm_fusable = Permutation::new(&[2, 0, 1]).unwrap();
        let plan = t.plan::<u64>(&shape, &perm_fusable, &o).unwrap();
        let (out, _) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm_fusable).unwrap();
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn model_sweep_beats_or_matches_default_choice() {
        let shape = Shape::new(&[27, 27, 27, 27]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let t = Transposer::new_k40c();
        let sweep = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        let quick = t
            .plan::<f64>(
                &shape,
                &perm,
                &TransposeOptions {
                    model_sweep: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(sweep.predicted_ns() <= quick.predicted_ns() + 1e-6);
        assert!(sweep.candidates_evaluated() >= quick.candidates_evaluated());
    }

    #[test]
    fn time_plan_matches_execute_timing() {
        let shape = Shape::new(&[32, 32, 32]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let t = Transposer::new_k40c();
        let plan = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        let input: DenseTensor<f64> = DenseTensor::iota(shape);
        let (_, exec_report) = t.execute(&plan, &input).unwrap();
        let time_report = t.time_plan(&plan).unwrap();
        assert_eq!(exec_report.stats, time_report.stats);
        assert!((exec_report.kernel_time_ns - time_report.kernel_time_ns).abs() < 1e-9);
    }

    /// Seeded random problems of rank 2-6 with 64-32 768 elements.
    fn random_cases(seed: u64, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = Vec::with_capacity(n);
        while cases.len() < n {
            let rank = rng.gen_range(2..7usize);
            let hi = (32_768f64.powf(1.0 / rank as f64) * 2.0) as usize;
            let extents: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..hi + 1)).collect();
            if !(64..=32_768).contains(&extents.iter().product::<usize>()) {
                continue;
            }
            let mut perm: Vec<usize> = (0..rank).collect();
            rng.shuffle(&mut perm);
            cases.push((extents, perm));
        }
        cases
    }

    /// Every GPU plan of the problem (the default schema, each applicable
    /// schema forced, and Naive) must analyze to an exhaustive count over
    /// all its blocks, and `Transposer::execute` must move the reference
    /// bytes and report that count, both when it fills the plan's cache
    /// and when it reads it.
    fn check_against_exhaustive<E: Element>(t: &Transposer, extents: &[usize], perm: &[usize]) {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let problem = Problem::new(&shape, &perm).unwrap();
        let forced = applicable_schemas(&problem)
            .into_iter()
            .chain([Schema::Naive])
            .map(Some);
        let input: DenseTensor<E> = DenseTensor::iota(shape.clone());
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        for forced_schema in std::iter::once(None).chain(forced) {
            let opts = TransposeOptions {
                forced_schema,
                ..opts_checked()
            };
            let plan = match t.plan::<E>(&shape, &perm, &opts) {
                Ok(plan) => plan,
                // A forced schema may admit no candidate for this problem.
                Err(PlanError::NoCandidate) if forced_schema.is_some() => continue,
                Err(e) => panic!("{extents:?} {perm}: {e}"),
            };
            let PlanExec::Gpu(k) = &plan.kernel else {
                panic!("default options plan for the GPU simulator");
            };
            let case = format!("{extents:?} {perm} {} {}B", plan.schema(), E::BYTES);
            let analyzed = t.executor.analyze(k).unwrap().stats;
            let mut out = vec![E::zero(); shape.volume()];
            let mode = ExecMode::Execute {
                check_disjoint_writes: true,
            };
            let full = t.executor.run(k, input.data(), &mut out, mode).unwrap();
            assert_eq!(analyzed, full.stats, "analysis is not exact: {case}");
            assert_eq!(out, expect.data(), "{case}");
            let want = t.report(&plan, &full.stats);
            for _ in 0..2 {
                let (served, report) = t.execute(&plan, &input).unwrap();
                assert_eq!(served.data(), expect.data(), "{case}");
                assert_eq!(report.stats, full.stats, "{case}");
                assert_eq!(report.kernel_time_ns, want.kernel_time_ns, "{case}");
                assert_eq!(report.bandwidth_gbps, want.bandwidth_gbps, "{case}");
            }
        }
    }

    #[test]
    fn analyze_equals_execute_for_every_schema() {
        // One case per kernel family, with awkward (non-multiple) extents.
        let families: [(&[usize], &[usize]); 5] = [
            (&[40, 40], &[0, 1]),
            (&[50, 7, 9], &[0, 2, 1]),
            (&[9, 10, 11, 5], &[0, 3, 2, 1]),
            (&[33, 5, 37], &[2, 1, 0]),
            (&[6, 3, 7, 9], &[2, 1, 3, 0]),
        ];
        let t = Transposer::new_k40c();
        for (extents, perm) in families {
            check_against_exhaustive::<u64>(&t, extents, perm);
        }
        for (extents, perm) in random_cases(0x7715, 60) {
            check_against_exhaustive::<f32>(&t, &extents, &perm);
            check_against_exhaustive::<f64>(&t, &extents, &perm);
        }
    }

    /// Representatives run across workers; one worker must give the same
    /// outcome bit for bit. Returns the schemas whose analysis was wide
    /// enough to spread over workers.
    fn check_parallel_analysis<E: Element>(
        t: &Transposer,
        extents: &[usize],
        perm: &[usize],
    ) -> Vec<Schema> {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let mut wide = Vec::new();
        for schema in [Schema::OrthogonalDistinct, Schema::OrthogonalArbitrary] {
            let opts = TransposeOptions {
                forced_schema: Some(schema),
                ..TransposeOptions::default()
            };
            let plan = match t.plan::<E>(&shape, &perm, &opts) {
                Ok(plan) => plan,
                Err(PlanError::NoCandidate) => continue,
                Err(e) => panic!("{extents:?} {perm}: {e}"),
            };
            let PlanExec::Gpu(k) = &plan.kernel else {
                panic!("default options plan for the GPU simulator");
            };
            let case = format!("{extents:?} {perm} {schema} {}B", E::BYTES);
            let uncapped = t.executor.analyze(k).unwrap();
            let one = ttlg_tensor::parallel::with_thread_cap(1, || t.executor.analyze(k).unwrap());
            assert_eq!(uncapped.stats, one.stats, "{case}");
            assert_eq!(uncapped.classes, one.classes, "{case}");
            assert_eq!(uncapped.blocks_executed, one.blocks_executed, "{case}");
            if uncapped.classes.unwrap() >= PARALLEL_ANALYZE_MIN_CLASSES {
                wide.push(schema);
            }
        }
        wide
    }

    #[test]
    fn parallel_analysis_matches_one_worker() {
        let t = Transposer::new_k40c();
        let mut wide = Vec::new();
        for perm in [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1], [3, 0, 2, 1]] {
            wide.extend(check_parallel_analysis::<f32>(&t, &[15, 17, 15, 17], &perm));
            wide.extend(check_parallel_analysis::<f64>(&t, &[15, 17, 15, 17], &perm));
            wide.extend(check_parallel_analysis::<f64>(&t, &[17, 15, 17, 15], &perm));
        }
        for schema in [Schema::OrthogonalDistinct, Schema::OrthogonalArbitrary] {
            let n = wide.iter().filter(|&&s| s == schema).count();
            assert!(n >= 8, "{schema}: only {n} analyses spread over workers");
        }
    }

    #[test]
    fn queryable_prediction_interface() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[64, 64, 64]).unwrap();
        let fast = t
            .predict_transpose_ns::<f64>(&shape, &Permutation::new(&[0, 1, 2]).unwrap())
            .unwrap();
        let slow = t
            .predict_transpose_ns::<f64>(&shape, &Permutation::new(&[2, 1, 0]).unwrap())
            .unwrap();
        assert!(fast > 0.0 && slow > 0.0);
        // Both are DRAM-bound at the same minimum traffic; the copy must
        // be at least competitive (within launch-geometry noise).
        assert!(
            fast <= slow * 1.05,
            "identity copy should not be slower: {fast} vs {slow}"
        );
    }

    #[test]
    fn profile_plan_reports_counters() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[32, 32, 32]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let plan = t
            .plan::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        let prof = t.profile_plan(&plan).unwrap();
        assert_eq!(prof.elements, 32768);
        assert!(prof.dram_efficiency() > 0.5);
        assert!(prof.render().contains("bottleneck"));
    }

    #[test]
    fn measured_plan_never_slower_than_model_plan() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[17, 17, 17, 17]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let opts = TransposeOptions::default();
        let model = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        let measured = t.plan_measured::<f64>(&shape, &perm, &opts).unwrap();
        let tm = t.time_plan(&model).unwrap().kernel_time_ns;
        let tb = t.time_plan(&measured).unwrap().kernel_time_ns;
        assert!(tb <= tm + 1e-9, "measured-best {tb} vs model {tm}");
        // measure mode pays for what it measured
        assert!(measured.plan_time_ns() > model.plan_time_ns());
        // correctness of the measured plan
        let input: DenseTensor<f64> = DenseTensor::iota(shape);
        let (out, _) = t.execute(&measured, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn analytic_guard_contains_adversarial_predictors() {
        // A predictor that *inverts* the ranking (prefers the slowest
        // candidate) must still end up within the analytic guard band of
        // the best plan — the guard exists for regression models gone
        // wrong far outside their training range.
        struct Inverted(AnalyticPredictor);
        impl TimePredictor for Inverted {
            fn predict_ns(&self, c: &Candidate) -> f64 {
                1.0e12 / self.0.predict_ns(c).max(1.0)
            }
        }
        let device = DeviceConfig::k40c();
        let adversarial = Transposer::with_predictor(
            device.clone(),
            Arc::new(Inverted(AnalyticPredictor::new(device.clone()))),
        );
        let sane = Transposer::new(device);
        let shape = Shape::new(&[16, 16, 16, 16, 16, 16]).unwrap();
        let perm = Permutation::new(&[5, 0, 1, 3, 4, 2]).unwrap();
        let opts = TransposeOptions::default();
        let bad_plan = adversarial.plan::<f64>(&shape, &perm, &opts).unwrap();
        let good_plan = sane.plan::<f64>(&shape, &perm, &opts).unwrap();
        let bad_t = adversarial.time_plan(&bad_plan).unwrap().kernel_time_ns;
        let good_t = sane.time_plan(&good_plan).unwrap().kernel_time_ns;
        // The guard bounds *analytic predictions* to 1.25x of the analytic
        // best; actual times can drift a bit further where the closed form
        // underestimates, so allow head-room in the assertion.
        assert!(
            bad_t <= 1.7 * good_t,
            "guard failed: adversarial plan {bad_t} vs best {good_t}"
        );
    }

    #[test]
    fn plan_traced_records_the_full_decision() {
        // A 6D Orthogonal-Distinct problem: the trace must list every
        // ranked candidate with its slice sizes and predicted time, and
        // the chosen one must match the plan.
        let shape = Shape::new(&[16, 16, 16, 16, 16, 16]).unwrap();
        let perm = Permutation::new(&[5, 4, 3, 2, 1, 0]).unwrap();
        let t = Transposer::new_k40c();
        let (plan, trace) = t
            .plan_traced::<f64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        assert_eq!(trace.extents, vec![16; 6]);
        assert_eq!(trace.perm, vec![5, 4, 3, 2, 1, 0]);
        assert!(trace.admissible.contains(&Schema::OrthogonalDistinct));
        assert_eq!(trace.candidates.len(), plan.candidates_evaluated());
        assert!(trace.candidates.len() > 1, "sweep should rank many");
        // Exactly one chosen candidate, consistent with the plan.
        let chosen: Vec<_> = trace.candidates.iter().filter(|c| c.chosen).collect();
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].schema, plan.schema());
        assert!((chosen[0].predicted_ns - plan.predicted_ns()).abs() < 1e-9);
        assert_eq!(trace.chosen_candidate().unwrap().schema, plan.schema());
        // Every candidate carries slice sizes and finite estimates.
        for c in &trace.candidates {
            assert!(c.predicted_ns.is_finite() && c.predicted_ns > 0.0);
            assert!(c.analytic_ns.is_finite() && c.analytic_ns > 0.0);
            if matches!(
                c.schema,
                Schema::OrthogonalDistinct | Schema::OrthogonalArbitrary
            ) {
                assert!(c.input_slice > 0 && c.output_slice > 0 && c.total_slice > 0);
            }
        }
        assert!(trace.analytic_best_ns.is_finite());
        assert!((trace.guard_factor - 1.25).abs() < 1e-12);
        assert!((trace.plan_time_ns - plan.plan_time_ns()).abs() < 1e-9);
        // The sweep discards duplicates on this problem; they are logged.
        assert!(
            !trace.rejections.is_empty(),
            "OD sweep over a 6D cube revisits configurations"
        );
        // Rendering mentions each schema that produced candidates and the
        // winner's parameters.
        let text = trace.render();
        assert!(text.contains("== decision trace: 16x16x16x16x16x16 perm [5,4,3,2,1,0] =="));
        assert!(text.contains("chosen:"));
        assert!(text.contains(&chosen[0].params));
    }

    #[test]
    fn plan_traced_matches_untraced_choice() {
        let shape = Shape::new(&[27, 27, 27, 27]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let t = Transposer::new_k40c();
        let opts = TransposeOptions::default();
        let plain = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        let (traced, trace) = t.plan_traced::<f64>(&shape, &perm, &opts).unwrap();
        assert_eq!(plain.schema(), traced.schema());
        assert!((plain.predicted_ns() - traced.predicted_ns()).abs() < 1e-9);
        assert_eq!(plain.candidates_evaluated(), trace.candidates.len());
    }

    #[test]
    fn parallel_sweep_matches_sequential_argmin() {
        // The scoring phase of the Alg. 3 sweep may fan out over worker
        // threads; the parallel path must produce bit-identical scores —
        // and therefore the identical argmin — to the sequential one.
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[16, 16, 16, 16, 16, 16]).unwrap();
        let perm = Permutation::new(&[5, 4, 3, 2, 1, 0]).unwrap();
        let opts = TransposeOptions::default();
        let problem = Problem::new(&shape, &perm).unwrap();
        let schemas = applicable_schemas(&problem);
        let mut cands = t.enumerate_all::<f64>(&problem, &schemas, &opts, None);
        assert!(!cands.is_empty());
        // Pad past the parallel threshold if the natural sweep is narrow
        // (scoring is a pure function, so duplicates are harmless).
        while cands.len() < PARALLEL_SWEEP_MIN {
            let c = cands[cands.len() % 7].clone();
            cands.push(c);
        }
        let seq = t.score_candidates(&cands, false);
        let par = t.score_candidates(&cands, true);
        assert_eq!(seq, par, "parallel scoring must be bit-identical");
        let lanes: Vec<Backend> = cands.iter().map(|c| c.backend()).collect();
        let (seq_order, seq_best, _) = order_candidates(&seq, &lanes);
        let (par_order, par_best, _) = order_candidates(&par, &lanes);
        assert_eq!(seq_order[0], par_order[0], "identical argmin");
        assert_eq!(seq_best, par_best);
        // Under a thread cap of 1 the parallel path degrades to the
        // sequential loop and must still agree.
        let capped = ttlg_tensor::parallel::with_thread_cap(1, || t.score_candidates(&cands, true));
        assert_eq!(capped, par);
    }

    #[test]
    fn plan_topk_head_matches_plan() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[27, 27, 27, 27]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let opts = TransposeOptions::default();
        let plain = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        let (plan, ranked) = t.plan_topk::<f64>(&shape, &perm, &opts, 4).unwrap();
        assert!(!ranked.is_empty() && ranked.len() <= 4);
        assert_eq!(plan.schema(), plain.schema());
        assert!((plan.predicted_ns() - plain.predicted_ns()).abs() < 1e-9);
        assert!((plan.plan_time_ns() - plain.plan_time_ns()).abs() < 1e-9);
        assert_eq!(plan.candidates_evaluated(), plain.candidates_evaluated());
        assert!((ranked[0].predicted_ns - plain.predicted_ns()).abs() < 1e-9);
        assert!(!ranked[0].guard_rejected, "the head is always eligible");
        // Eligible entries come first, each segment ascending by
        // predicted time.
        for w in ranked.windows(2) {
            if w[0].guard_rejected == w[1].guard_rejected {
                assert!(w[0].predicted_ns <= w[1].predicted_ns);
            } else {
                assert!(!w[0].guard_rejected && w[1].guard_rejected);
            }
        }
    }

    #[test]
    fn plan_for_candidate_reconstructs_runnable_plan() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[17, 17, 17, 17]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let opts = opts_checked();
        let (_, ranked) = t.plan_topk::<u64>(&shape, &perm, &opts, 3).unwrap();
        // Rebuild a plan from the *last* ranked candidate with a made-up
        // prediction, as the autotuner does with a measured time.
        let pick = ranked.last().unwrap();
        let plan = t
            .plan_for_candidate::<u64>(&shape, &perm, &opts, pick.candidate.clone(), 1234.5)
            .unwrap();
        assert_eq!(plan.candidates_evaluated(), 1);
        assert!((plan.predicted_ns() - 1234.5).abs() < 1e-12);
        let input: DenseTensor<u64> = DenseTensor::iota(shape);
        let (out, report) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
        assert!((report.predicted_ns - 1234.5).abs() < 1e-12);
    }

    #[test]
    fn trace_retention_attaches_decision_to_plans() {
        let shape = Shape::new(&[27, 27, 27, 27]).unwrap();
        let perm = Permutation::new(&[3, 1, 0, 2]).unwrap();
        let t = Transposer::new_k40c();
        let opts = TransposeOptions::default();
        // Off by default: no trace, no measured flag.
        let plain = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        assert!(plain.decision_trace().is_none());
        assert!(!plain.is_measured());
        // On: the plan carries the same decision plan_traced would give.
        t.set_trace_retention(true);
        assert!(t.retains_traces());
        let retained = t.plan::<f64>(&shape, &perm, &opts).unwrap();
        let tr = retained.decision_trace().expect("trace retained");
        assert_eq!(tr.candidates.len(), retained.candidates_evaluated());
        assert_eq!(tr.chosen_candidate().unwrap().schema, retained.schema());
        assert!((tr.plan_time_ns - retained.plan_time_ns()).abs() < 1e-9);
        assert!(tr.render().contains("chosen:"));
        // Retention does not change the choice itself.
        assert_eq!(plain.schema(), retained.schema());
        assert!((plain.predicted_ns() - retained.predicted_ns()).abs() < 1e-9);
        // An explicit caller trace still wins (no double work): the
        // plan keeps no copy.
        let (explicit, trace) = t.plan_traced::<f64>(&shape, &perm, &opts).unwrap();
        assert!(explicit.decision_trace().is_none());
        assert_eq!(trace.candidates.len(), explicit.candidates_evaluated());
        // Measured-candidate plans are tagged for warm attribution.
        let (_, ranked) = t.plan_topk::<f64>(&shape, &perm, &opts, 2).unwrap();
        let warmed = t
            .plan_for_candidate::<f64>(&shape, &perm, &opts, ranked[0].candidate.clone(), 99.0)
            .unwrap();
        assert!(warmed.is_measured());
    }

    #[test]
    fn report_bandwidth_consistent() {
        let r = roundtrip(&[32, 32, 32], &[2, 1, 0]);
        let expect = 2.0 * 32768.0 * 8.0 / r.kernel_time_ns;
        assert!((r.bandwidth_gbps - expect).abs() < 1e-9);
    }

    #[test]
    fn input_shape_validated() {
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[8, 8]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let plan = t
            .plan::<u64>(&shape, &perm, &TransposeOptions::default())
            .unwrap();
        let wrong: DenseTensor<u64> = DenseTensor::iota(Shape::new(&[4, 16]).unwrap());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = t.execute(&plan, &wrong);
        }));
        assert!(res.is_err());
    }
}
