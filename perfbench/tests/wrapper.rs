//! The benchmark's own instruments must not change what they measure: the
//! timing wrapper forwards every policy hook, and the raw frame reader
//! yields what the daemon's codec reads.

use sentinel_core::{fast_sized_for, SentinelConfig, SentinelPolicy, SentinelRuntime};
use sentinel_dnn::{
    ExecCtx, Executor, GraphBuilder, IntervalRecord, MemoryManager, OpKind, OpRef, PoolSpec,
    Tensor, TensorId, TensorKind, TrainReport,
};
use sentinel_mem::{AccessKind, HmConfig, MemorySystem, Tier, TraceHandle, TraceLevel};
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_perfbench::frames::read_raw;
use sentinel_perfbench::timed::{run_timed, Timed};
use sentinel_serve::{read_frame, write_frame};
use sentinel_util::{Json, ToJson};

fn json(report: &TrainReport) -> String {
    report.to_json().to_string()
}

#[test]
fn wrapped_sentinel_run_matches_the_runtime_at_full_trace() {
    let graph = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
    let cfg = SentinelConfig::default();
    let runtime = SentinelRuntime::new(cfg.clone(), hm.clone()).with_trace(TraceLevel::Full);
    let expected = runtime.train(&graph, 6).unwrap();

    let mut policy = SentinelPolicy::new(cfg);
    let (report, steps) = run_timed(
        &graph,
        MemorySystem::new(hm),
        TraceLevel::Full,
        &mut policy,
        6,
    )
    .unwrap();

    assert_eq!(json(&report), json(&expected.report));
    assert!(
        report.steps.iter().any(|s| !s.intervals.is_empty()),
        "the interval ledger must survive the wrapper"
    );
    assert_eq!(policy.stats(), expected.stats);
    assert_eq!(steps.len(), 6);
    for step in &steps {
        assert!(step.hooks.hooks() + step.hooks.access <= step.host);
        assert!(step.hooks.access > std::time::Duration::ZERO);
    }
}

/// A policy that logs every hook call and answers each with a value the
/// executor's behaviour depends on.
#[derive(Default)]
struct Probe {
    log: Vec<String>,
}

impl MemoryManager for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn on_train_begin(&mut self, _: &mut ExecCtx<'_>) {
        self.log.push("on_train_begin".into());
    }
    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.log.push(format!("on_step_begin {}", ctx.step()));
    }
    fn pool_for(&mut self, tensor: &Tensor, _: &ExecCtx<'_>) -> PoolSpec {
        self.log.push(format!("pool_for {}", tensor.id.0));
        PoolSpec::page_aligned(u64::from(tensor.id.0))
    }
    fn tier_for(&mut self, tensor: &Tensor, _: &ExecCtx<'_>) -> Tier {
        self.log.push(format!("tier_for {}", tensor.id.0));
        Tier::Fast
    }
    fn on_alloc(&mut self, tensor: TensorId, _: &mut ExecCtx<'_>) {
        self.log.push(format!("on_alloc {}", tensor.0));
    }
    fn on_capacity_pressure(&mut self, tier: Tier, pages: u64, _: &mut ExecCtx<'_>) -> bool {
        self.log
            .push(format!("on_capacity_pressure {tier:?} {pages}"));
        false
    }
    fn before_layer(&mut self, layer: usize, _: &mut ExecCtx<'_>) {
        self.log.push(format!("before_layer {layer}"));
    }
    fn after_layer(&mut self, layer: usize, _: &mut ExecCtx<'_>) {
        self.log.push(format!("after_layer {layer}"));
    }
    fn before_op(&mut self, at: OpRef, _: &mut ExecCtx<'_>) {
        self.log.push(format!("before_op {at:?}"));
    }
    fn after_op(&mut self, at: OpRef, _: &mut ExecCtx<'_>) {
        self.log.push(format!("after_op {at:?}"));
    }
    fn before_access(&mut self, tensor: TensorId, kind: AccessKind, _: &mut ExecCtx<'_>) {
        self.log
            .push(format!("before_access {} {kind:?}", tensor.0));
    }
    fn on_free(&mut self, tensor: TensorId, _: &mut ExecCtx<'_>) {
        self.log.push(format!("on_free {}", tensor.0));
    }
    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        self.log.push(format!("on_step_end {}", ctx.step()));
    }
    fn step_ledger(&mut self, ctx: &ExecCtx<'_>) -> Vec<IntervalRecord> {
        self.log.push("step_ledger".into());
        vec![IntervalRecord {
            interval: ctx.step(),
            case: 1,
            ..IntervalRecord::default()
        }]
    }
    fn step_warnings(&mut self) -> Vec<String> {
        self.log.push("step_warnings".into());
        vec!["probe warning".into()]
    }
    fn on_train_end(&mut self, _: &mut ExecCtx<'_>) {
        self.log.push("on_train_end".into());
    }
}

/// Two traced steps of a graph whose working set overflows the 16-page
/// fast tier of `HmConfig::testing`, so every hook fires.
fn probe_run(wrap: bool) -> (String, Vec<String>) {
    let mut b = GraphBuilder::new("probe", 1);
    let x = b.tensor("x", 8 * 4096, TensorKind::Input);
    let y = b.tensor("y", 12 * 4096, TensorKind::Activation);
    let z = b.tensor("z", 4 * 4096, TensorKind::Activation);
    b.begin_layer("l0");
    b.op("f", OpKind::Other, 1000)
        .reads(&[x])
        .writes(&[y])
        .push();
    b.begin_layer("l1");
    b.op("g", OpKind::Other, 1000)
        .reads(&[y])
        .writes(&[z])
        .push();
    let graph = b.finish().unwrap();

    let mut mem = MemorySystem::new(HmConfig::testing());
    mem.set_tracer(TraceHandle::new(TraceLevel::Full));
    let mut exec = Executor::new(&graph, mem);
    let mut probe = Probe::default();
    let report = if wrap {
        let mut timed = Timed::new(&mut probe);
        let report = exec.run(&mut timed, 2).unwrap();
        assert!(timed.take().hooks() > std::time::Duration::ZERO);
        report
    } else {
        exec.run(&mut probe, 2).unwrap()
    };
    (json(&report), probe.log)
}

#[test]
fn the_wrapper_forwards_every_hook() {
    let (plain_report, plain_log) = probe_run(false);
    let (wrapped_report, wrapped_log) = probe_run(true);
    assert_eq!(wrapped_log, plain_log);
    assert_eq!(wrapped_report, plain_report);
    for hook in [
        "on_train_begin",
        "on_step_begin",
        "pool_for",
        "tier_for",
        "on_alloc",
        "on_capacity_pressure",
        "before_layer",
        "after_layer",
        "before_op",
        "after_op",
        "before_access",
        "on_free",
        "on_step_end",
        "step_ledger",
        "step_warnings",
        "on_train_end",
    ] {
        assert!(
            plain_log.iter().any(|l| l.starts_with(hook)),
            "{hook} never fired"
        );
    }
    // The ledger and warnings reach the report only when forwarded.
    assert!(plain_report.contains("probe warning"));
    assert!(plain_report.contains("\"intervals\""));
    assert!(plain_report.contains("\"policy\":\"probe\""));
}

#[test]
fn the_raw_reader_yields_what_read_frame_reads() {
    let messages = [
        Json::obj([("type", Json::Str("pong".into()))]),
        Json::obj([
            ("type", Json::Str("step".into())),
            (
                "values",
                Json::arr([Json::F64(0.1), Json::U64(7), Json::int(-3), Json::Null]),
            ),
            ("text", Json::Str("tab\t \"quoted\" é".into())),
        ]),
        Json::arr((0..1000).map(Json::U64)),
    ];
    let mut wire = Vec::new();
    for m in &messages {
        write_frame(&mut wire, m).unwrap();
    }
    let (mut raw, mut codec) = (&wire[..], &wire[..]);
    for m in &messages {
        let payload = read_raw(&mut raw, 1 << 20).unwrap().expect("a frame");
        let parsed = Json::parse_bytes(&payload).unwrap();
        assert_eq!(parsed, read_frame(&mut codec, 1 << 20).unwrap());
        assert_eq!(&parsed, m);
        assert_eq!(parsed.to_string().as_bytes(), payload.as_slice());
    }
    assert!(
        read_raw(&mut raw, 1 << 20).unwrap().is_none(),
        "clean end of stream"
    );
    let cut = &wire[..6];
    assert!(
        read_raw(&mut &cut[..], 1 << 20).is_err(),
        "a cut frame is an error"
    );
    assert!(
        read_raw(&mut &wire[..], 4).is_err(),
        "an oversized frame is an error"
    );
}
