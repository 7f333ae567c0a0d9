//! Robust optimization over the critical set — the MTR generalization of
//! Phase 2 (Eqs. 4–7 with k classes).
//!
//! Minimizes the compound failure cost (component-wise sum of the k-vector
//! cost over the critical failure scenarios) subject to the per-class
//! normal-conditions constraints: each class's [`NormalConstraint`]
//! decides how much normal-performance degradation may be traded for
//! robustness — `Pin` none (Eq. 5), `Relax(χ)` a χ budget (Eq. 6).
//!
//! The search loop is the robust-search driver shared with DTR Phase 2
//! (`dtr_core::driver`): speculative batched moves, incumbent-bounded
//! cutoff sweeps through the delta-state [`MtrScenarioCache`]
//! ([`crate::parallel::sum_failure_costs_bounded`]), portfolio replicas,
//! checkpoints and deadlines. This module is the k-class engine it
//! drives. Every mechanism is float-exact, so the trajectory is
//! bit-for-bit identical for every speculation window, thread count and
//! cutoff setting.
//!
//! [`NormalConstraint`]: crate::class::NormalConstraint

use dtr_core::driver::{self, RobustEngine, RobustOutput, RobustParams};
use dtr_core::parallel::{Sweep, SweepScratch};
use dtr_core::RunControl;
use dtr_net::{LinkId, Network};
use dtr_persist::{Decoder, Encoder, SnapshotError};
use dtr_routing::Scenario;
use rand::rngs::StdRng;
use rand::Rng;

use crate::class::ClassSpec;
use crate::cost::VecCost;
use crate::engine::MtrScenarioCache;
use crate::evaluator::MtrEvaluator;
use crate::parallel;
use crate::params::MtrParams;
use crate::search::MtrArchive;
use crate::weights::MtrWeightSetting;

/// Result of the robust search.
pub type MtrRobustOutput = RobustOutput<MtrWeightSetting, VecCost>;

/// Per-class feasibility of a candidate's normal-conditions cost against
/// the regular-phase benchmarks (the k-class Eqs. 5–6).
pub fn feasible(normal: &VecCost, benchmark: &VecCost, specs: &[ClassSpec]) -> bool {
    debug_assert_eq!(normal.len(), specs.len());
    normal
        .components()
        .iter()
        .zip(benchmark.components())
        .zip(specs)
        .all(|((&c, &b), spec)| spec.constraint.allows(c, b))
}

/// The engine-independent knobs of `params`.
fn robust_params(params: &MtrParams) -> RobustParams {
    RobustParams {
        wmax: params.wmax,
        c: params.c,
        p2: params.p2,
        div_interval_2: params.div_interval_2,
        archive_size: params.archive_size,
        max_iterations: params.max_iterations,
        threads: params.threads,
        speculation: params.speculation,
        cutoff: params.cutoff,
        phi_floors: params.phi_floors,
        record_trace: params.record_trace,
        portfolio: params.portfolio,
        cache_budget_bytes: params.cache_budget_bytes,
        deadline_ms: params.deadline_ms,
        checkpoint_every: params.checkpoint_every,
        seed: params.seed,
    }
}

/// The k-class engine: one evaluator over a critical scenario slice
/// (optionally probability-weighted), gated per class against the
/// regular-phase benchmark.
struct Mtr<'a, 'e> {
    ev: &'a MtrEvaluator<'e>,
    scenarios: &'a [Scenario],
    weights: Option<&'a [f64]>,
    benchmark: &'a VecCost,
}

impl RobustEngine for Mtr<'_, '_> {
    type Weights = MtrWeightSetting;
    type Cost = VecCost;
    type Move = Vec<u32>;
    type Floor = VecCost;
    type Cache = MtrScenarioCache;

    const KIND: u32 = dtr_persist::KIND_MTR_ROBUST;
    const PROMOTE_RESTARTS: bool = true;

    fn net(&self) -> &Network {
        self.ev.net()
    }

    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn num_components(&self) -> usize {
        self.ev.num_classes()
    }

    fn draw(&self, wmax: u32, rng: &mut StdRng) -> Vec<u32> {
        (0..self.ev.num_classes())
            .map(|_| rng.gen_range(1..=wmax))
            .collect()
    }

    fn read(&self, w: &MtrWeightSetting, rep: LinkId) -> Vec<u32> {
        (0..self.ev.num_classes()).map(|c| w.get(c, rep)).collect()
    }

    fn apply(&self, w: &mut MtrWeightSetting, rep: LinkId, mv: &Vec<u32>) {
        for (c, &v) in mv.iter().enumerate() {
            w.set_duplex(self.ev.net(), c, rep, v);
        }
    }

    fn normal_cost(&self, w: &MtrWeightSetting) -> VecCost {
        self.ev.cost(w, Scenario::Normal)
    }

    fn feasible(&self, normal: &VecCost) -> bool {
        feasible(normal, self.benchmark, &self.ev.config().specs)
    }

    fn seed_costs(&self, w: &MtrWeightSetting, positions: &[u32]) -> Vec<(u32, VecCost)> {
        let mut ws = self.ev.acquire_workspace();
        let seeds = positions
            .iter()
            .map(|&p| {
                let sc = self.scenarios[p as usize];
                (p, self.ev.cost_with(&mut ws, w, sc))
            })
            .collect();
        self.ev.release_workspace(ws);
        seeds
    }

    fn sum_costs(&self, w: &MtrWeightSetting, threads: usize) -> VecCost {
        parallel::sum_failure_costs(self.ev, w, self.scenarios, self.weights, threads)
    }

    /// Scenario-order weighted fold — the seed's float-add sequence.
    fn fold(&self, costs: &[VecCost]) -> VecCost {
        let mut acc = VecCost::zeros(self.ev.num_classes());
        for (pos, c) in costs.iter().enumerate() {
            match self.weights {
                None => acc.add_assign(c),
                Some(sw) => acc.add_scaled_assign(c, sw[pos]),
            }
        }
        acc
    }

    fn excess(&self, pos: usize, c: &VecCost, floor: &VecCost, k: usize) -> f64 {
        let x = c.component(k) - floor.component(k);
        self.weights.map_or(x, |sw| x * sw[pos])
    }

    fn floors(&self, phi_floors: bool) -> Vec<VecCost> {
        self.scenarios
            .iter()
            .map(|&sc| {
                VecCost::new(if phi_floors {
                    self.ev.scenario_floor(sc)
                } else {
                    self.ev.lambda_floor(sc)
                })
            })
            .collect()
    }

    fn new_cache(&self, budget_bytes: usize) -> MtrScenarioCache {
        MtrScenarioCache::with_budget(budget_bytes)
    }

    fn resident(&self, cache: &MtrScenarioCache) -> usize {
        cache.resident_scenarios()
    }

    /// Capture sweep over `w`: rebuilds the delta-state cache (incumbent
    /// baseline + per-scenario residents) and refreshes the per-position
    /// costs, sharding across `threads` workers (entries and cost slots
    /// are position-disjoint; the baseline is shared read-only).
    /// Budget-bounded caches capture position 0 serially as a
    /// calibration probe, then plan the resident prefix from its
    /// measured footprint; the non-resident tail is evaluated on the
    /// plain path, which returns the same bits.
    fn rebuild_cache(
        &self,
        w: &MtrWeightSetting,
        threads: usize,
        cache: &mut MtrScenarioCache,
        costs: &mut Vec<VecCost>,
    ) {
        let (ev, scenarios) = (self.ev, self.scenarios);
        let mut ws = ev.acquire_workspace();
        ev.cache_rebuild_begin(&mut ws, cache, w, scenarios.len());
        costs.clear();
        costs.resize(scenarios.len(), VecCost::zeros(ev.num_classes()));
        let mut captured = 0usize;
        if cache.budget_bytes() != usize::MAX && !scenarios.is_empty() {
            let (base, entries) = cache.capture_split();
            costs[0] = ev.cost_capture_into(&mut ws, w, scenarios[0], base, &mut entries[0]);
            captured = 1;
        }
        cache.plan_residency(scenarios.len());
        let cap_hi = cache.resident_scenarios().max(captured);
        let full = cache.full_resident_scenarios();
        let workers = threads.min(scenarios.len().max(1));
        if workers <= 1 {
            let (base, entries) = cache.capture_split();
            for pos in captured..cap_hi {
                costs[pos] =
                    ev.cost_capture_into(&mut ws, w, scenarios[pos], base, &mut entries[pos]);
            }
            // Partial-tier positions capture fully (the capture eval *is*
            // the exact cost) and immediately demote to the planned
            // routings + loads footprint.
            for entry in &mut entries[full..cap_hi] {
                entry.demote();
            }
            for (c, &s) in costs[cap_hi..].iter_mut().zip(&scenarios[cap_hi..]) {
                *c = ev.cost_with(&mut ws, w, s);
            }
            ev.release_workspace(ws);
            return;
        }
        ev.release_workspace(ws);
        {
            let (base, entries) = cache.capture_split();
            let scs = &scenarios[captured..cap_hi];
            let ents = &mut entries[captured..cap_hi];
            let csts = &mut costs[captured..cap_hi];
            if !scs.is_empty() {
                let chunk = scs.len().div_ceil(workers);
                let parts: Vec<_> = scs
                    .chunks(chunk)
                    .zip(ents.chunks_mut(chunk))
                    .zip(csts.chunks_mut(chunk))
                    .collect();
                dtr_core::parallel::scoped_fanout(parts, |((scs, ents), cst)| {
                    let mut ws = ev.acquire_workspace();
                    for ((&sc, entry), c) in scs.iter().zip(ents).zip(cst) {
                        *c = ev.cost_capture_into(&mut ws, w, sc, base, entry);
                    }
                    ev.release_workspace(ws);
                });
            }
            // See the serial branch: demote the partial-tier band.
            for entry in &mut entries[full..cap_hi] {
                entry.demote();
            }
        }
        let tail = &scenarios[cap_hi..];
        if !tail.is_empty() {
            let csts = &mut costs[cap_hi..];
            let chunk = tail.len().div_ceil(workers);
            let parts: Vec<_> = tail.chunks(chunk).zip(csts.chunks_mut(chunk)).collect();
            dtr_core::parallel::scoped_fanout(parts, |(scs, cst)| {
                let mut ws = ev.acquire_workspace();
                for (&sc, c) in scs.iter().zip(cst) {
                    *c = ev.cost_with(&mut ws, w, sc);
                }
                ev.release_workspace(ws);
            });
        }
    }

    /// Re-point the delta-state cache at the accepted incumbent `w`:
    /// serial [`MtrEvaluator::cache_refresh_begin`], position-disjoint
    /// entry chunks through [`MtrEvaluator::cache_refresh_entry`] on
    /// pooled workspaces, then [`MtrEvaluator::cache_refresh_finish`].
    /// Bit-identical to the serial [`MtrEvaluator::cache_refresh`] at
    /// any thread count (the parallel-search contract in
    /// `DETERMINISM.md`).
    fn refresh_cache(&self, w: &MtrWeightSetting, threads: usize, cache: &mut MtrScenarioCache) {
        let (ev, scenarios) = (self.ev, self.scenarios);
        let resident = cache.resident_scenarios();
        let workers = threads.min(resident.max(1));
        let mut ws = ev.acquire_workspace();
        ev.cache_refresh_begin(&mut ws, cache, w);
        if workers <= 1 {
            let (ctx, entries) = cache.refresh_split();
            for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
                ev.cache_refresh_entry(&mut ws, w, &ctx, scenarios[pos], entry);
            }
            ev.release_workspace(ws);
        } else {
            ev.release_workspace(ws);
            let (ctx, entries) = cache.refresh_split();
            let chunk = resident.div_ceil(workers);
            let parts: Vec<_> = scenarios[..resident]
                .chunks(chunk)
                .zip(entries[..resident].chunks_mut(chunk))
                .collect();
            dtr_core::parallel::scoped_fanout(parts, |(scs, ents)| {
                let mut ws = ev.acquire_workspace();
                for (&sc, entry) in scs.iter().zip(ents) {
                    ev.cache_refresh_entry(&mut ws, w, &ctx, sc, entry);
                }
                ev.release_workspace(ws);
            });
        }
        ev.cache_refresh_finish(cache, w);
    }

    fn bounded_sweep(
        &self,
        w: &MtrWeightSetting,
        threads: usize,
        incumbent: &VecCost,
        order: &[u32],
        seeds: &[(u32, VecCost)],
        floors: &[VecCost],
        cache: &mut MtrScenarioCache,
        scratch: &mut SweepScratch<VecCost>,
    ) -> Sweep<VecCost> {
        self.ev.cache_begin(cache, w);
        parallel::sum_failure_costs_bounded(
            self.ev,
            w,
            self.scenarios,
            self.weights,
            threads,
            incumbent,
            order,
            seeds,
            Some(floors),
            Some(cache),
            scratch,
        )
    }

    fn put_weights(&self, enc: &mut Encoder, w: &MtrWeightSetting) {
        for k in 0..w.num_classes() {
            enc.put_slice_u32(w.weights(k));
        }
    }

    fn take_weights(
        &self,
        rd: &mut Decoder<'_>,
        wmax: u32,
    ) -> Result<MtrWeightSetting, SnapshotError> {
        let num_links = self.ev.net().num_links();
        let mut per_class = Vec::with_capacity(self.ev.num_classes());
        for _ in 0..self.ev.num_classes() {
            let v = rd.take_vec_u32()?;
            if v.len() != num_links {
                return Err(SnapshotError::Corrupt("weight vector length differs"));
            }
            if v.iter().any(|&w| w < 1 || w > wmax) {
                return Err(SnapshotError::Corrupt("weight outside [1, wmax]"));
            }
            per_class.push(v);
        }
        Ok(MtrWeightSetting::from_vecs(per_class, wmax))
    }

    fn put_cost(&self, enc: &mut Encoder, c: &VecCost) {
        enc.put_slice_f64(c.components());
    }

    fn take_cost(&self, rd: &mut Decoder<'_>) -> Result<VecCost, SnapshotError> {
        let v = rd.take_vec_f64()?;
        if v.len() != self.ev.num_classes() {
            return Err(SnapshotError::Corrupt("cost vector length differs"));
        }
        Ok(VecCost::new(v))
    }

    /// The class count and the regular-phase benchmark; both are
    /// checked against the resuming call's.
    fn put_config_tail(&self, enc: &mut Encoder) {
        enc.put_usize(self.ev.num_classes());
        enc.put_slice_f64(self.benchmark.components());
    }

    fn take_config_tail(&mut self, rd: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let k = self.ev.num_classes();
        if rd.take_usize()? != k {
            return Err(SnapshotError::Mismatch("class count differs"));
        }
        let stored = rd.take_vec_f64()?;
        if stored.len() != k
            || stored
                .iter()
                .zip(self.benchmark.components())
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(SnapshotError::Mismatch("benchmark differs"));
        }
        Ok(())
    }
}

/// Validate `params` and the scenario weights.
fn checked(params: &MtrParams, scenarios: &[Scenario], scenario_weights: Option<&[f64]>) {
    params.validate();
    if let Some(sw) = scenario_weights {
        assert_eq!(sw.len(), scenarios.len(), "one weight per scenario");
        assert!(sw.iter().all(|&p| p >= 0.0 && p.is_finite()));
    }
}

/// Run the robust phase against `scenarios` (typically the critical-set
/// failures), starting from `archive` (the regular phase's acceptable
/// settings). `scenario_weights`, if given, makes the objective a
/// probability-weighted sum.
///
/// With `params.portfolio.replicas > 1` the run becomes a portfolio
/// search: independent chains from distinct derived seeds exchanging
/// archive elites at fixed rendezvous points, replica-index-ordered
/// merges — the same driver (and determinism contract) as
/// `dtr_core::phase2::run`, on k-vector costs.
///
/// # Panics
/// Panics if the archive is empty or `scenario_weights` mismatches
/// `scenarios` in length.
pub fn run(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    archive: &MtrArchive,
    scenario_weights: Option<&[f64]>,
) -> MtrRobustOutput {
    run_controlled(
        ev,
        scenarios,
        params,
        benchmark,
        archive,
        scenario_weights,
        &mut RunControl::none(),
    )
    .expect("without a checkpoint sink no snapshot i/o can fail")
}

/// [`run`] under external control: checkpoints into `ctl.sink` every
/// [`MtrParams::checkpoint_every`] boundaries and honours
/// `ctl.kill_after` and [`MtrParams::deadline_ms`]. The only fallible
/// step is storing a snapshot, so with
/// [`RunControl::none`](dtr_core::RunControl::none) this is exactly
/// [`run`].
///
/// # Panics
/// Panics if the archive is empty or `scenario_weights` mismatches
/// `scenarios` in length.
pub fn run_controlled(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    archive: &MtrArchive,
    scenario_weights: Option<&[f64]>,
    ctl: &mut RunControl<'_>,
) -> Result<MtrRobustOutput, SnapshotError> {
    checked(params, scenarios, scenario_weights);
    let engine = Mtr {
        ev,
        scenarios,
        weights: scenario_weights,
        benchmark,
    };
    driver::run_controlled(&engine, robust_params(params), archive, ctl)
}

/// Restore a robust-phase run from `snapshot` bytes and continue it
/// under `ctl`. The evaluator, scenario slice, benchmark and the
/// trajectory-determining `params` knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); `threads`, `speculation`,
/// `cutoff`, `phi_floors` and the cache budget may differ freely — the
/// determinism contract keeps the continued trajectory bit-identical
/// regardless. No regular-phase archive is needed: it travels inside
/// the snapshot.
///
/// The wall-clock deadline, when set, is a fresh budget for this call —
/// time spent before the crash is not counted against it.
///
/// # Panics
/// Panics if `scenario_weights` mismatches `scenarios` in length.
pub fn resume(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    scenario_weights: Option<&[f64]>,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<MtrRobustOutput, SnapshotError> {
    checked(params, scenarios, scenario_weights);
    let engine = Mtr {
        ev,
        scenarios,
        weights: scenario_weights,
        benchmark,
    };
    driver::resume(engine, robust_params(params), snapshot, ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig, NormalConstraint};
    use crate::search::{self};
    use dtr_core::FailureUniverse;
    use dtr_net::{NetworkBuilder, Point};
    use dtr_traffic::TrafficMatrix;
    use rand::SeedableRng;

    fn testbed() -> (Network, Vec<TrafficMatrix>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[2], n[5], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();

        let mut rng = StdRng::seed_from_u64(21);
        let mut tms = vec![TrafficMatrix::zeros(6); 2];
        for tm in tms.iter_mut() {
            for s in 0..6 {
                for t in 0..6 {
                    if s != t {
                        tm.set(s, t, rng.gen_range(1e3..4e4));
                    }
                }
            }
        }
        (net, tms)
    }

    fn config() -> MtrConfig {
        MtrConfig::dtr(25e-3, 0.2)
    }

    #[test]
    fn feasibility_enforces_class_constraints() {
        let specs = vec![
            ClassSpec::sla("voice", 25e-3), // Pin
            ClassSpec::congestion("bulk").relaxed(0.2),
        ];
        let bench = VecCost::new(vec![100.0, 10.0]);
        assert!(feasible(&VecCost::new(vec![100.0, 12.0]), &bench, &specs));
        assert!(feasible(&VecCost::new(vec![99.0, 10.0]), &bench, &specs));
        assert!(!feasible(&VecCost::new(vec![100.1, 10.0]), &bench, &specs));
        assert!(!feasible(&VecCost::new(vec![100.0, 12.5]), &bench, &specs));
    }

    #[test]
    fn robust_solution_satisfies_constraints_and_is_truthful() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(5);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);

        // Constraints hold for the final solution.
        assert!(feasible(
            &out.best_normal,
            &reg.best_cost,
            &ev.config().specs
        ));
        assert_eq!(ev.cost(&out.best, Scenario::Normal), out.best_normal);
        // Reported kfail is truthful.
        let mut acc = VecCost::zeros(2);
        for &sc in &scenarios {
            acc = acc.add(&ev.cost(&out.best, sc));
        }
        assert_eq!(acc, out.best_kfail);
    }

    #[test]
    fn budget_bounded_cache_matches_unbounded_bit_for_bit() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams {
            record_trace: true,
            ..MtrParams::quick(5)
        };
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let unbounded = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(
            unbounded.stats.cache_resident_scenarios,
            scenarios.len(),
            "unbounded cache holds the full set"
        );
        assert_eq!(unbounded.stats.cache_fallback_evals, 0);
        for budget in [0usize, 8_192, 1 << 22] {
            let bounded = run(
                &ev,
                &scenarios,
                &MtrParams {
                    cache_budget_bytes: budget,
                    ..params
                },
                &reg.best_cost,
                &reg.archive,
                None,
            );
            assert_eq!(bounded.best, unbounded.best, "budget {budget}");
            assert_eq!(bounded.best_kfail, unbounded.best_kfail, "budget {budget}");
            assert_eq!(
                bounded.best_normal, unbounded.best_normal,
                "budget {budget}"
            );
            assert_eq!(bounded.trace, unbounded.trace, "budget {budget}");
            let mut masked = bounded.stats;
            masked.cache_resident_scenarios = unbounded.stats.cache_resident_scenarios;
            masked.cache_fallback_evals = unbounded.stats.cache_fallback_evals;
            assert_eq!(masked, unbounded.stats, "budget {budget}");
        }
        // A sub-entry budget degrades the cache entirely and the
        // fallback accounting shows it.
        let tiny = run(
            &ev,
            &scenarios,
            &MtrParams {
                cache_budget_bytes: 1,
                ..params
            },
            &reg.best_cost,
            &reg.archive,
            None,
        );
        assert_eq!(tiny.stats.cache_resident_scenarios, 0);
        assert!(tiny.stats.cache_fallback_evals > 0);
    }

    #[test]
    fn robust_does_not_lose_to_regular_on_kfail() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(9);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);

        let mut reg_kfail = VecCost::zeros(2);
        for &sc in &scenarios {
            reg_kfail = reg_kfail.add(&ev.cost(&reg.best, sc));
        }
        // The robust search starts from the archive best (= regular best)
        // and only accepts kfail improvements, so it can't end up worse.
        assert!(
            !reg_kfail.better_than(&out.best_kfail),
            "robust kfail {} worse than regular {}",
            out.best_kfail,
            reg_kfail
        );
    }

    #[test]
    fn empty_scenario_set_returns_archive_best() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(1);
        let reg = search::regular(&ev, &universe, &params);
        let out = run(&ev, &[], &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(out.best, reg.archive.best().unwrap().0);
        assert_eq!(out.best_kfail, VecCost::zeros(2));
    }

    #[test]
    fn scenario_weights_scale_the_objective() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(3);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios: Vec<_> = universe.scenarios().into_iter().take(3).collect();
        let weights = vec![2.0; scenarios.len()];
        let out = run(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            &reg.archive,
            Some(&weights),
        );
        // Doubling every weight doubles the reported kfail of the final
        // solution versus its unweighted sum.
        let mut unweighted = VecCost::zeros(2);
        for &sc in &scenarios {
            unweighted = unweighted.add(&ev.cost(&out.best, sc));
        }
        let scaled = unweighted.scale(2.0);
        for (a, b) in out.best_kfail.components().iter().zip(scaled.components()) {
            assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
        }
    }

    #[test]
    fn pinned_everything_still_finds_a_solution() {
        let (net, tms) = testbed();
        let mut cfg = config();
        cfg.specs[1].constraint = NormalConstraint::Pin;
        let ev = MtrEvaluator::new(&net, &tms, cfg).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(17);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        // With both classes pinned the benchmark itself remains feasible.
        assert!(feasible(
            &out.best_normal,
            &reg.best_cost,
            &ev.config().specs
        ));
    }
}
