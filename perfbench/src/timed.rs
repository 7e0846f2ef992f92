//! A timing wrapper around any [`MemoryManager`].
//!
//! [`Timed`] forwards every hook to the wrapped policy and charges the host
//! time spent inside it to one of three buckets. It also charges the time
//! from a `before_access` hook returning to the next hook call to an
//! `access` bucket: in the executor that span is exactly the
//! `ExecCtx::access_tensor` calls into `MemorySystem::access` for the
//! operand just announced (plus the constant-time compute charge between
//! an op's reads and writes).

use sentinel_dnn::{
    ExecCtx, Executor, Graph, IntervalRecord, MemoryManager, OpRef, PoolSpec, Tensor, TensorId,
    TrainReport,
};
use sentinel_mem::{AccessKind, MemorySystem, Tier, TraceHandle, TraceLevel};
use std::time::{Duration, Instant};

/// Host time charged to each hook family since the last [`Timed::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTimes {
    /// Step and layer boundaries: `on_train_begin`, `on_step_begin`,
    /// `before_layer`, `after_layer`, `on_step_end`, `step_ledger`,
    /// `step_warnings`, `on_train_end`. Interval boundaries, prefetch and
    /// eviction issue and Case 3 handling all run here.
    pub layer: Duration,
    /// Op-level hooks: `before_op`, `after_op`, `before_access`, `on_free`.
    pub op: Duration,
    /// Allocation hooks: `pool_for`, `tier_for`, `on_alloc`,
    /// `on_capacity_pressure`.
    pub alloc: Duration,
    /// From a `before_access` returning to the next hook call.
    pub access: Duration,
}

impl HookTimes {
    /// Time inside any hook (excluding the access spans between hooks).
    #[must_use]
    pub fn hooks(&self) -> Duration {
        self.layer + self.op + self.alloc
    }
}

#[derive(Clone, Copy)]
enum Bucket {
    Layer,
    Op,
    Alloc,
}

/// A [`MemoryManager`] that times every call into `inner`.
pub struct Timed<'a, M: MemoryManager + ?Sized> {
    inner: &'a mut M,
    times: HookTimes,
    access_from: Option<Instant>,
}

impl<'a, M: MemoryManager + ?Sized> Timed<'a, M> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut M) -> Self {
        Timed {
            inner,
            times: HookTimes::default(),
            access_from: None,
        }
    }

    /// The times accumulated since the last call, resetting them.
    pub fn take(&mut self) -> HookTimes {
        std::mem::take(&mut self.times)
    }

    /// Run one hook, charging its duration to `bucket`; returns the hook's
    /// result and the instant it returned.
    fn timed<R>(&mut self, bucket: Bucket, hook: impl FnOnce(&mut M) -> R) -> (R, Instant) {
        let start = Instant::now();
        if let Some(from) = self.access_from.take() {
            self.times.access += start - from;
        }
        let out = hook(self.inner);
        let end = Instant::now();
        *match bucket {
            Bucket::Layer => &mut self.times.layer,
            Bucket::Op => &mut self.times.op,
            Bucket::Alloc => &mut self.times.alloc,
        } += end - start;
        (out, end)
    }
}

impl<M: MemoryManager + ?Sized> MemoryManager for Timed<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.on_train_begin(ctx));
    }

    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.on_step_begin(ctx));
    }

    fn pool_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> PoolSpec {
        self.timed(Bucket::Alloc, |m| m.pool_for(tensor, ctx)).0
    }

    fn tier_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> Tier {
        self.timed(Bucket::Alloc, |m| m.tier_for(tensor, ctx)).0
    }

    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Alloc, |m| m.on_alloc(tensor, ctx));
    }

    fn on_capacity_pressure(
        &mut self,
        tier: Tier,
        needed_pages: u64,
        ctx: &mut ExecCtx<'_>,
    ) -> bool {
        self.timed(Bucket::Alloc, |m| {
            m.on_capacity_pressure(tier, needed_pages, ctx)
        })
        .0
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.before_layer(layer, ctx));
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.after_layer(layer, ctx));
    }

    fn before_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Op, |m| m.before_op(at, ctx));
    }

    fn after_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Op, |m| m.after_op(at, ctx));
    }

    fn before_access(&mut self, tensor: TensorId, kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        let ((), returned) = self.timed(Bucket::Op, |m| m.before_access(tensor, kind, ctx));
        self.access_from = Some(returned);
    }

    fn on_free(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Op, |m| m.on_free(tensor, ctx));
    }

    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.on_step_end(ctx));
    }

    fn step_ledger(&mut self, ctx: &ExecCtx<'_>) -> Vec<IntervalRecord> {
        self.timed(Bucket::Layer, |m| m.step_ledger(ctx)).0
    }

    fn step_warnings(&mut self) -> Vec<String> {
        self.timed(Bucket::Layer, |m| m.step_warnings()).0
    }

    fn on_train_end(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Bucket::Layer, |m| m.on_train_end(ctx));
    }
}

/// One step of a [`run_timed`] run: its host duration and hook times.
#[derive(Debug, Clone, Copy)]
pub struct TimedStep {
    /// Host time of `Executor::run_step`.
    pub host: Duration,
    /// Host time inside the policy's hooks and the access spans.
    pub hooks: HookTimes,
}

/// Train `graph` for `steps` steps under `policy` wrapped in [`Timed`],
/// the same way `SentinelRuntime::train_streamed` drives its policy: an
/// executor over `mem` (tracing at `trace`), `run_step` per step, then
/// `on_train_end`. Returns the assembled report and per-step timings.
///
/// # Errors
///
/// The executor's error for the first step that fails.
pub fn run_timed<M: MemoryManager + ?Sized>(
    graph: &Graph,
    mut mem: MemorySystem,
    trace: TraceLevel,
    policy: &mut M,
    steps: usize,
) -> Result<(TrainReport, Vec<TimedStep>), sentinel_dnn::ExecError> {
    if trace != TraceLevel::Off {
        mem.set_tracer(TraceHandle::new(trace));
    }
    let mut exec = Executor::new(graph, mem);
    let mut timed = Timed::new(policy);
    let mut report = TrainReport {
        model: graph.name().to_owned(),
        policy: timed.name().to_owned(),
        batch: graph.batch(),
        steps: Vec::with_capacity(steps),
    };
    let mut timings = Vec::with_capacity(steps);
    for _ in 0..steps {
        let start = Instant::now();
        report.steps.push(exec.run_step(&mut timed)?);
        timings.push(TimedStep {
            host: start.elapsed(),
            hooks: timed.take(),
        });
    }
    timed.on_train_end(exec.ctx_mut());
    Ok((report, timings))
}
