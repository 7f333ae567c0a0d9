//! The two-class DTR workloads (`dtr50-link`, `sparse200-budget`).

use std::path::PathBuf;
use std::time::Instant;

use dtr_core::search::weight_fingerprint;
use dtr_core::{
    phase1, phase1b, phase2, selection, CheckpointSink, FailureUniverse, FileSink, Params,
    RobustOptimizer, RunControl, ScenarioSet, Selector, SnapshotError,
};
use dtr_cost::{CostParams, Evaluator, LexCost};
use dtr_routing::{Class, Scenario, WeightSetting};
use dtr_traffic::ClassMatrices;

use crate::inputs::Workload;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{kernels, Phases, Sample};

/// A DTR workload's optimizer settings. Search budgets are small so that
/// one run of the benchmark holds several optimizer runs (see the
/// README). A workload with `checkpoint_every != 0` runs Phase 2 through
/// `phase2::run_controlled` into a `FileSink`.
pub fn params(w: Workload) -> Params {
    match w {
        Workload::Dtr50Link => Params {
            tau: 5,
            p1: 1,
            p2: 1,
            div_interval_1: 4,
            div_interval_2: 3,
            archive_size: 4,
            max_iterations: 2,
            max_phase1b_rounds: 3,
            threads: 1,
            ..Params::paper_default(11)
        },
        Workload::Sparse200Budget => Params {
            tau: 3,
            p1: 1,
            p2: 1,
            max_iterations: 1,
            max_phase1b_rounds: 1,
            critical_fraction: 0.02,
            cache_budget_bytes: 1_000_000,
            threads: 1,
            checkpoint_every: 1,
            ..Params::paper_default(17)
        },
        Workload::Mtr3Srlg40 => unreachable!("not a DTR workload"),
    }
}

/// What one optimizer run produced, whichever entry point ran it.
pub struct Outcome {
    pub regular_cost: LexCost,
    pub robust: WeightSetting,
    pub robust_normal_cost: LexCost,
    pub kfail: LexCost,
    pub critical_indices: Vec<usize>,
    pub evaluations: usize,
}

impl Outcome {
    fn same_result(&self, o: &Outcome) -> bool {
        self.robust == o.robust
            && lex_bits(&self.kfail) == lex_bits(&o.kfail)
            && lex_bits(&self.robust_normal_cost) == lex_bits(&o.robust_normal_cost)
            && self.critical_indices == o.critical_indices
    }
}

fn lex_bits(c: &LexCost) -> (u64, u64) {
    (c.lambda.to_bits(), c.phi.to_bits())
}

fn via_optimize(opt: &RobustOptimizer<'_, '_>) -> Outcome {
    let r = opt.optimize();
    Outcome {
        evaluations: r.stats.phase1.evaluations
            + r.stats.phase1b.evaluations
            + r.stats.phase2.evaluations,
        regular_cost: r.regular_cost,
        robust: r.robust,
        robust_normal_cost: r.robust_normal_cost,
        kfail: r.kfail,
        critical_indices: r.critical_indices,
    }
}

/// A `FileSink` that times each store.
struct TimedSink {
    inner: FileSink,
    stores: Vec<(Instant, Instant, usize)>,
}

impl CheckpointSink for TimedSink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let t0 = Instant::now();
        let res = self.inner.store(bytes);
        self.stores.push((t0, Instant::now(), bytes.len()));
        res
    }
}

fn checkpoint_path(w: Workload, instance: u64) -> PathBuf {
    crate::out_dir().join(format!("{}-instance{instance}.ckpt", w.name()))
}

/// The pipeline of `RobustOptimizer::optimize`, one public stage call at
/// a time (Phase 1, Phase 1b, criticality selection, Phase 2), with a
/// span around each stage when traced. Phase 2 runs through
/// `run_controlled` into a timed `FileSink`; with `checkpoint_every == 0`
/// it stores nothing and equals `phase2::run`.
fn staged(
    ev: &Evaluator<'_>,
    opt: &RobustOptimizer<'_, '_>,
    sink: &mut TimedSink,
    mut tracer: Option<&mut Tracer>,
    phases: &mut Phases,
) -> Outcome {
    let set = opt.scenario_set();
    let params = opt.params();
    let span = |t: &mut Option<&mut Tracer>, name: &str| t.as_mut().map(|t| t.begin(name));
    let close = |t: &mut Option<&mut Tracer>, id: Option<usize>| {
        if let (Some(t), Some(id)) = (t.as_mut(), id) {
            t.end(id);
        }
    };

    let s = span(&mut tracer, "core.phase1");
    let mut p1 = phase1::run(ev, set.universe(), params);
    close(&mut tracer, s);
    let s = span(&mut tracer, "core.phase1b");
    let p1b = phase1b::run(ev, set.universe(), params, &mut p1);
    close(&mut tracer, s);
    let s = span(&mut tracer, "core.selection");
    let critical_indices = selection::select_for_set(set, ev, &p1, params, Selector::MeanLeftTail);
    close(&mut tracer, s);

    let s = span(&mut tracer, "core.phase2");
    let first = sink.stores.len();
    let p2 = phase2::run_controlled(
        ev,
        set,
        &critical_indices,
        params,
        &p1,
        &mut RunControl::with_sink(sink),
    )
    .expect("checkpoint store failed");
    if let Some(t) = tracer.as_mut() {
        for &(a, b, _) in &sink.stores[first..] {
            t.record("persist.store", a, b);
        }
    }
    close(&mut tracer, s);

    phases.evals = vec![
        ("core.phase1.evals", p1.stats.evaluations),
        ("core.phase1b.evals", p1b.evaluations),
        ("core.phase2.evals", p2.stats.evaluations),
    ];
    let st = &p2.stats;
    phases.counters = vec![
        ("core.phase2.skipped_cache", st.skipped_cache as f64),
        ("core.phase2.skipped_floor", st.skipped_floor as f64),
        ("core.phase2.skipped_cutoff", st.skipped_cutoff as f64),
        (
            "core.phase2.skip_ratio",
            st.scenario_evals_skipped as f64 / st.evaluations.max(1) as f64,
        ),
        (
            "core.phase2.cache_resident",
            st.cache_resident_scenarios as f64,
        ),
        (
            "core.phase2.cache_fallback_evals",
            st.cache_fallback_evals as f64,
        ),
        (
            "core.search.speculative_wasted",
            st.speculative_wasted as f64,
        ),
    ];
    Outcome {
        evaluations: p1.stats.evaluations + p1b.evaluations + p2.stats.evaluations,
        regular_cost: p1.best_cost,
        robust: p2.best,
        robust_normal_cost: p2.best_normal,
        kfail: p2.best_kfail,
        critical_indices,
    }
}

/// The verification checks of one run, by name.
fn verify(
    ev: &Evaluator<'_>,
    set: &FailureUniverse,
    params: &Params,
    o: &Outcome,
) -> Vec<(&'static str, bool)> {
    // Reference (non-incremental) evaluator, bit for bit.
    let normal = ev.evaluate(&o.robust, Scenario::Normal).cost;
    // The compound failure cost, folded over the critical set in index
    // order through the reference evaluator.
    let kfail = o.critical_indices.iter().fold(LexCost::ZERO, |acc, &i| {
        acc.add(&ev.evaluate(&o.robust, set.scenario(i)).cost)
    });
    vec![
        (
            "normal_cost",
            lex_bits(&normal) == lex_bits(&o.robust_normal_cost),
        ),
        ("kfail", lex_bits(&kfail) == lex_bits(&o.kfail)),
        (
            "eq5_6",
            phase2::feasible(
                &o.robust_normal_cost,
                o.regular_cost.lambda,
                o.regular_cost.phi,
                params.chi,
            ),
        ),
    ]
}

/// Build the evaluator and optimizer over the generated inputs.
macro_rules! setup {
    ($ev:ident, $opt:ident, $net:expr, $tm:expr, $params:expr) => {
        let $ev = Evaluator::new($net, $tm, CostParams::default());
        let $opt = RobustOptimizer::builder(&$ev).params($params).build();
    };
}

/// Mean set-up time of a batch on one traffic instance: inputs to a
/// built optimizer.
pub fn setup_batch(w: Workload, net: &dtr_net::Network, tm: &ClassMatrices) -> f64 {
    let params = params(w);
    crate::setup_batch(|| {
        setup!(ev, opt, net, tm, params);
        std::hint::black_box(opt.universe().len());
    })
}

/// One measured optimizer run on one traffic instance: the optimize
/// wall-clock, quality and verification.
pub fn sample(w: Workload, instance: u64, net: &dtr_net::Network, tm: &ClassMatrices) -> Sample {
    let params = params(w);
    setup!(ev, opt, net, tm, params);
    let ckpt = checkpoint_path(w, instance);
    let mut sink = TimedSink {
        inner: FileSink::new(&ckpt),
        stores: Vec::new(),
    };
    let t = Instant::now();
    let o = if params.checkpoint_every != 0 {
        staged(&ev, &opt, &mut sink, None, &mut Phases::default())
    } else {
        via_optimize(&opt)
    };
    let optimize_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&ckpt);
    Sample {
        optimize_s,
        evaluations: o.evaluations,
        kfail_sla: o.kfail.lambda,
        kfail_congestion: o.kfail.phi,
        normal_phi_ratio: o.robust_normal_cost.phi / o.regular_cost.phi,
        digest: weight_fingerprint(&o.robust),
        checks: verify(&ev, opt.universe(), &params, &o),
        critical: o.critical_indices.len(),
        stores: sink.stores.len(),
    }
}

/// The traced run on one traffic instance: the staged pipeline under
/// spans (run 1), bracketed by two untraced `optimize()` runs (runs 0
/// and 2) that it must reproduce bit for bit; then the layer kernels.
pub fn traced(w: Workload, seed: u64, net: &dtr_net::Network, tm: &ClassMatrices, r: &mut Report) {
    let params = params(w);
    let ckpt = checkpoint_path(w, 0);
    let mut sink = TimedSink {
        inner: FileSink::new(&ckpt),
        stores: Vec::new(),
    };
    let mut tracer = Tracer::new();
    let root = tracer.begin_run("reference", 0);
    let s = tracer.begin("setup");
    setup!(ev, opt, net, tm, params);
    tracer.end(s);
    let reference = crate::untraced(&mut tracer, || via_optimize(&opt));
    tracer.end(root);

    let root = tracer.begin_run("pipeline", 1);
    let mut phases = Phases::default();
    let o = staged(&ev, &opt, &mut sink, Some(&mut tracer), &mut phases);
    tracer.end(root);

    let root = tracer.begin_run("reference", 2);
    let again = crate::untraced(&mut tracer, || via_optimize(&opt));
    tracer.end(root);

    let mut checks = verify(&ev, opt.universe(), &params, &o);
    checks.push(("staged_matches_optimize", o.same_result(&reference)));
    crate::record_checks(r, &checks);
    crate::record_checks(r, &verify(&ev, opt.universe(), &params, &reference));
    let mut checks = verify(&ev, opt.universe(), &params, &again);
    checks.push((
        "digest_stable_across_repetitions",
        again.same_result(&reference),
    ));
    crate::record_checks(r, &checks);
    r.note(
        "weights_digest",
        format!("\"{:016x}\"", weight_fingerprint(&o.robust)),
    );

    crate::record_phases(
        r,
        &tracer,
        &[
            "core.phase1",
            "core.phase1b",
            "core.selection",
            "core.phase2",
        ],
        &phases,
    );
    if params.checkpoint_every != 0 {
        let ms: Vec<f64> = sink
            .stores
            .iter()
            .map(|(a, b, _)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect();
        r.set("persist.store.ms", crate::stats::median(&ms));
        r.set("persist.stores", ms.len() as f64);
        r.set(
            "persist.snapshot_bytes",
            sink.stores.last().map_or(0, |s| s.2) as f64,
        );
    }
    let _ = std::fs::remove_file(&ckpt);

    let crit: Vec<Scenario> = o
        .critical_indices
        .iter()
        .map(|&i| opt.universe().scenario(i))
        .collect();
    kernels::dtr_cost(r, &ev, &o.robust, &crit, params.wmax);
    let classes = [
        (o.robust.weights(Class::Delay), &tm.delay),
        (o.robust.weights(Class::Throughput), &tm.throughput),
    ];
    kernels::routing(r, net, &classes, &crit);
    kernels::dtr_parallel(r, &ev, &o.robust, opt.universe(), crate::nproc());
    crate::write_trace(r, w, seed, &tracer);
}

/// The workload's optimizer settings as JSON, for the environment block.
pub fn params_json(w: Workload) -> String {
    let p = params(w);
    format!(
        "{{\"engine\": \"dtr\", \"tau\": {}, \"p1\": {}, \"p2\": {}, \"div_interval_1\": {}, \
             \"div_interval_2\": {}, \"archive_size\": {}, \"max_iterations\": {}, \
             \"max_phase1b_rounds\": {}, \"critical_fraction\": {}, \"chi\": {}, \"threads\": {}, \
             \"speculation\": {}, \"cache_budget_bytes\": {}, \"checkpoint_every\": {}, \
             \"search_seed\": {}}}",
        p.tau,
        p.p1,
        p.p2,
        p.div_interval_1,
        p.div_interval_2,
        p.archive_size,
        p.max_iterations,
        p.max_phase1b_rounds,
        p.critical_fraction,
        p.chi,
        p.threads,
        p.speculation,
        p.cache_budget_bytes,
        p.checkpoint_every,
        p.seed
    )
}
