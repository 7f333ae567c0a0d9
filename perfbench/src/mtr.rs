//! The three-class MTR workload (`mtr3-srlg40`).

use std::time::Instant;

use dtr_core::{ScenarioSet, Srlg};
use dtr_mtr::criticality::target_size;
use dtr_mtr::search::{self, mtr_weight_fingerprint};
use dtr_mtr::{
    robust, select_k, ClassSpec, KWayCriticality, MtrConfig, MtrEvaluator, MtrOptimizer, MtrParams,
    MtrWeightSetting, VecCost,
};
use dtr_net::Network;
use dtr_routing::Scenario;
use dtr_traffic::TrafficMatrix;

use crate::report::Report;
use crate::trace::Tracer;
use crate::{kernels, Phases, Sample};

/// Radius of the geographic shared-risk groups.
pub const SRLG_RADIUS: f64 = 0.08;

pub fn config() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::sla("video", 60e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ])
}

pub fn params() -> MtrParams {
    MtrParams {
        tau: 4,
        p1: 1,
        p2: 1,
        div_interval_1: 4,
        div_interval_2: 3,
        archive_size: 4,
        max_iterations: 2,
        max_sampling_rounds: 3,
        threads: 1,
        ..MtrParams::paper_default(23)
    }
}

/// What one optimizer run produced.
pub struct Outcome {
    regular_cost: VecCost,
    robust: MtrWeightSetting,
    robust_normal_cost: VecCost,
    kfail: VecCost,
    critical_indices: Vec<usize>,
    evaluations: usize,
}

fn bits(c: &VecCost) -> Vec<u64> {
    c.components().iter().map(|x| x.to_bits()).collect()
}

impl Outcome {
    fn same_result(&self, o: &Outcome) -> bool {
        self.robust == o.robust
            && bits(&self.kfail) == bits(&o.kfail)
            && bits(&self.robust_normal_cost) == bits(&o.robust_normal_cost)
            && self.critical_indices == o.critical_indices
    }
}

fn via_optimize(opt: &MtrOptimizer<'_, '_, Srlg>) -> Outcome {
    let r = opt.optimize();
    Outcome {
        evaluations: r.stats.regular.evaluations
            + r.stats.top_up_evaluations
            + r.stats.robust.evaluations,
        regular_cost: r.regular_cost,
        robust: r.robust,
        robust_normal_cost: r.robust_normal_cost,
        kfail: r.kfail,
        critical_indices: r.critical_indices,
    }
}

/// `MtrOptimizer::optimize`, one public stage call at a time under spans.
fn staged(
    ev: &MtrEvaluator<'_>,
    set: &Srlg,
    params: &MtrParams,
    t: &mut Tracer,
    phases: &mut Phases,
) -> Outcome {
    let universe = set.universe();
    let s = t.begin("mtr.regular");
    let mut reg = search::regular(ev, universe, params);
    t.end(s);
    let s = t.begin("mtr.top_up");
    let (_, top_up_evaluations) = search::top_up_samples(ev, universe, params, &mut reg);
    t.end(s);

    let s = t.begin("mtr.selection");
    let crit = KWayCriticality::estimate(&reg.store, params.left_tail_fraction);
    let crit = match set.criticality_scale() {
        Some(scale) => crit.scaled(scale),
        None => crit,
    };
    let indices = if set.supports_selection() {
        let n = target_size(params, universe.len());
        set.critical_scenarios(&select_k(&crit, n).indices)
    } else {
        set.all_indices()
    };
    let scenarios = set.scenarios_for(&indices);
    let weights = set.weighted().then(|| set.weights_for(&indices));
    t.end(s);

    let s = t.begin("mtr.robust");
    let out = robust::run(
        ev,
        &scenarios,
        params,
        &reg.best_cost,
        &reg.archive,
        weights.as_deref(),
    );
    t.end(s);

    phases.evals = vec![
        ("mtr.regular.evals", reg.stats.evaluations),
        ("mtr.top_up.evals", top_up_evaluations),
        ("mtr.robust.evals", out.stats.evaluations),
    ];
    let st = &out.stats;
    phases.counters = vec![
        ("mtr.robust.skipped_cache", st.skipped_cache as f64),
        ("mtr.robust.skipped_floor", st.skipped_floor as f64),
        ("mtr.robust.skipped_cutoff", st.skipped_cutoff as f64),
        (
            "mtr.robust.skip_ratio",
            st.scenario_evals_skipped as f64 / st.evaluations.max(1) as f64,
        ),
        (
            "mtr.robust.cache_resident",
            st.cache_resident_scenarios as f64,
        ),
        (
            "mtr.robust.cache_fallback_evals",
            st.cache_fallback_evals as f64,
        ),
        (
            "mtr.robust.speculative_wasted",
            st.speculative_wasted as f64,
        ),
    ];
    Outcome {
        evaluations: reg.stats.evaluations + top_up_evaluations + out.stats.evaluations,
        regular_cost: reg.best_cost,
        robust: out.best,
        robust_normal_cost: out.best_normal,
        kfail: out.best_kfail,
        critical_indices: indices,
    }
}

fn verify(ev: &MtrEvaluator<'_>, set: &Srlg, o: &Outcome) -> Vec<(&'static str, bool)> {
    let normal = ev.evaluate(&o.robust, Scenario::Normal).cost;
    let kfail = o
        .critical_indices
        .iter()
        .fold(VecCost::zeros(ev.num_classes()), |acc, &i| {
            acc.add(&ev.evaluate(&o.robust, set.scenario(i)).cost)
        });
    vec![
        ("normal_cost", bits(&normal) == bits(&o.robust_normal_cost)),
        ("kfail", bits(&kfail) == bits(&o.kfail)),
        (
            "eq5_6",
            robust::feasible(&o.robust_normal_cost, &o.regular_cost, &ev.config().specs),
        ),
    ]
}

/// Quality of a solution: (SLA part of kfail, congestion part of kfail,
/// normal-conditions congestion cost of the robust weights over that of
/// the regular ones).
fn quality(ev: &MtrEvaluator<'_>, o: &Outcome) -> (f64, f64, f64) {
    let specs = &ev.config().specs;
    let (mut sla, mut cong, mut ratio) = (0.0, 0.0, 1.0);
    for (c, spec) in specs.iter().enumerate() {
        if spec.is_sla() {
            sla += o.kfail.component(c);
        } else {
            cong += o.kfail.component(c);
            ratio = o.robust_normal_cost.component(c) / o.regular_cost.component(c);
        }
    }
    (sla, cong, ratio)
}

macro_rules! setup {
    ($ev:ident, $opt:ident, $net:expr, $tms:expr, $params:expr) => {
        let $ev = MtrEvaluator::new($net, $tms, config()).expect("valid MTR configuration");
        let $opt = MtrOptimizer::builder(&$ev)
            .scenarios(Srlg::geographic($net, SRLG_RADIUS))
            .params($params)
            .build();
    };
}

/// Mean set-up time of a batch on one traffic instance: inputs to a
/// built optimizer.
pub fn setup_batch(net: &Network, tms: &[TrafficMatrix]) -> f64 {
    let params = params();
    crate::setup_batch(|| {
        setup!(ev, opt, net, tms, params);
        std::hint::black_box(opt.scenario_set().len());
    })
}

/// One measured optimizer run on one traffic instance.
pub fn sample(net: &Network, tms: &[TrafficMatrix]) -> Sample {
    let params = params();
    setup!(ev, opt, net, tms, params);
    let t = Instant::now();
    let o = via_optimize(&opt);
    let optimize_s = t.elapsed().as_secs_f64();
    let (kfail_sla, kfail_congestion, normal_phi_ratio) = quality(&ev, &o);
    Sample {
        optimize_s,
        evaluations: o.evaluations,
        kfail_sla,
        kfail_congestion,
        normal_phi_ratio,
        digest: mtr_weight_fingerprint(&o.robust),
        checks: verify(&ev, opt.scenario_set(), &o),
        critical: o.critical_indices.len(),
        stores: 0,
    }
}

/// The traced run on one traffic instance: the staged pipeline under
/// spans (run 1), bracketed by two untraced `optimize()` runs (runs 0
/// and 2) that it must reproduce bit for bit; then the layer kernels.
pub fn traced(seed: u64, net: &Network, tms: &[TrafficMatrix], r: &mut Report) {
    let params = params();
    let mut tracer = Tracer::new();
    let root = tracer.begin_run("reference", 0);
    let s = tracer.begin("setup");
    setup!(ev, opt, net, tms, params);
    tracer.end(s);
    let reference = crate::untraced(&mut tracer, || via_optimize(&opt));
    tracer.end(root);

    let root = tracer.begin_run("pipeline", 1);
    let mut phases = Phases::default();
    let o = staged(&ev, opt.scenario_set(), &params, &mut tracer, &mut phases);
    tracer.end(root);

    let root = tracer.begin_run("reference", 2);
    let again = crate::untraced(&mut tracer, || via_optimize(&opt));
    tracer.end(root);

    let set = opt.scenario_set();
    let mut checks = verify(&ev, set, &o);
    checks.push(("staged_matches_optimize", o.same_result(&reference)));
    crate::record_checks(r, &checks);
    crate::record_checks(r, &verify(&ev, set, &reference));
    let mut checks = verify(&ev, set, &again);
    checks.push((
        "digest_stable_across_repetitions",
        again.same_result(&reference),
    ));
    crate::record_checks(r, &checks);
    r.note(
        "weights_digest",
        format!("\"{:016x}\"", mtr_weight_fingerprint(&o.robust)),
    );

    crate::record_phases(
        r,
        &tracer,
        &["mtr.regular", "mtr.top_up", "mtr.selection", "mtr.robust"],
        &phases,
    );

    let crit: Vec<Scenario> = o
        .critical_indices
        .iter()
        .map(|&i| opt.scenario_set().scenario(i))
        .collect();
    kernels::mtr_cost(r, &ev, &o.robust, &crit);
    let classes: Vec<(&[u32], &TrafficMatrix)> = (0..ev.num_classes())
        .map(|k| (o.robust.weights(k), &tms[k]))
        .collect();
    kernels::routing(r, net, &classes, &crit);
    crate::write_trace(r, crate::inputs::Workload::Mtr3Srlg40, seed, &tracer);
}

/// The workload's optimizer settings as JSON, for the environment block.
pub fn params_json() -> String {
    let p = &params();
    format!(
            "{{\"engine\": \"mtr\", \"classes\": [\"voice sla 25ms\", \"video sla 60ms relaxed 0.1\", \
             \"bulk congestion\"], \"srlg_radius\": {SRLG_RADIUS}, \"tau\": {}, \"p1\": {}, \"p2\": {}, \
             \"div_interval_1\": {}, \"div_interval_2\": {}, \"archive_size\": {}, \"max_iterations\": {}, \
             \"max_sampling_rounds\": {}, \"critical_fraction\": {}, \"threads\": {}, \"speculation\": {}, \
             \"search_seed\": {}}}",
            p.tau,
            p.p1,
            p.p2,
            p.div_interval_1,
            p.div_interval_2,
            p.archive_size,
            p.max_iterations,
            p.max_sampling_rounds,
            p.critical_fraction,
            p.threads,
        p.speculation,
        p.seed
    )
}
