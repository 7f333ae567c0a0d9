//! Phase 2 — robust optimization over the critical set (Eqs. 4–7).
//!
//! Minimizes the compound failure cost
//! `K̄fail = ⟨Σ_{l∈Ec} Λfail,l, Σ_{l∈Ec} Φfail,l⟩` subject to the
//! normal-conditions constraints: `Λnormal` may not degrade at all (Eq. 5 —
//! delay-sensitive applications fall off a cliff past the SLA), and
//! `Φnormal` may degrade by at most `(1+χ)` (Eq. 6 — elastic traffic
//! tolerates some slack in exchange for robustness).
//!
//! The search starts from, and diversifies back to, the Phase-1 archive of
//! acceptable settings ("each diversification round starts with a weight
//! setting close to one that already satisfies the constraints", §V-A3).
//!
//! The search loop — speculative batched moves, incumbent-bounded
//! cutoff sweeps, portfolio replicas, checkpoints and deadlines — is the
//! shared robust-search driver in [`crate::driver`]; this module is the
//! DTR engine it drives. Both evaluation kinds ride the incremental
//! engine in `dtr_cost::engine`: a neighbor move changes one duplex
//! link's weights, so the normal-conditions check re-routes only the
//! destinations whose distance field that change can provably touch,
//! and the failure sweep runs through the **delta-state scenario cache**
//! — per scenario, only destinations whose effective routing the
//! candidate diff really moves are repaired from the resident incumbent
//! state, only contributor-changed links are refolded, and only
//! delay-touched destinations re-run the SLA DP — for **every** scenario
//! kind the set holds (link, node, SRLG, double-link, probabilistically
//! weighted).

use dtr_cost::{Evaluator, LexCost, ScenarioCache, ScenarioFloor};
use dtr_net::{LinkId, Network};
use dtr_persist::{Decoder, Encoder, SnapshotError};
use dtr_routing::{Class, Scenario, WeightSetting};
use rand::rngs::StdRng;

use crate::driver::{self, RobustEngine, RobustOutput, RobustParams};
use crate::parallel::{self, Sweep, SweepScratch};
use crate::params::Params;
use crate::phase1::Phase1Output;
use crate::scenario::{ScenarioSet, SliceSet};
use crate::search::{duplex_weights, random_weight_pair, set_duplex_weights};

pub use crate::driver::RunControl;

/// Result of the robust search.
pub type Phase2Output = RobustOutput<WeightSetting, LexCost>;

/// Eq. (5)–(6) feasibility of a candidate's normal-conditions cost against
/// the Phase-1 benchmarks. Λ must not degrade (ε-equality; improving on
/// Λ* is even better and accepted); Φ gets the χ budget.
pub fn feasible(normal: &LexCost, lambda_star: f64, phi_star: f64, chi: f64) -> bool {
    normal.lambda <= lambda_star + dtr_cost::LAMBDA_EPS && normal.phi <= (1.0 + chi) * phi_star
}

/// The engine-independent knobs of `params`.
fn robust_params(params: &Params) -> RobustParams {
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

/// The DTR engine: one evaluator over the critical positions `indices`
/// of a scenario set, gated by Eqs. 5–6 against the Phase-1 benchmarks.
struct Dtr<'a, 'e, S: ?Sized> {
    ev: &'a Evaluator<'e>,
    set: &'a S,
    indices: &'a [usize],
    chi: f64,
    lambda_star: f64,
    phi_star: f64,
}

impl<S: ScenarioSet + Sync + ?Sized> Dtr<'_, '_, S> {
    fn scenario(&self, pos: usize) -> Scenario {
        self.set.scenario(self.indices[pos])
    }

    /// Weighted sets multiply each position's cost by its probability.
    fn weight(&self, pos: usize) -> Option<f64> {
        self.set
            .weighted()
            .then(|| self.set.weight(self.indices[pos]))
    }
}

impl<S: ScenarioSet + Sync + ?Sized> RobustEngine for Dtr<'_, '_, S> {
    type Weights = WeightSetting;
    type Cost = LexCost;
    type Move = (u32, u32);
    type Floor = ScenarioFloor;
    type Cache = ScenarioCache;

    const KIND: u32 = dtr_persist::KIND_DTR_PHASE2;
    const PROMOTE_RESTARTS: bool = false;

    fn net(&self) -> &Network {
        self.ev.net()
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn num_components(&self) -> usize {
        2
    }

    fn draw(&self, wmax: u32, rng: &mut StdRng) -> (u32, u32) {
        random_weight_pair(wmax, rng)
    }

    fn read(&self, w: &WeightSetting, rep: LinkId) -> (u32, u32) {
        duplex_weights(w, rep)
    }

    fn apply(&self, w: &mut WeightSetting, rep: LinkId, &(wd, wt): &(u32, u32)) {
        set_duplex_weights(w, self.ev.net(), rep, wd, wt)
    }

    fn normal_cost(&self, w: &WeightSetting) -> LexCost {
        self.ev.cost(w, Scenario::Normal)
    }

    fn feasible(&self, normal: &LexCost) -> bool {
        feasible(normal, self.lambda_star, self.phi_star, self.chi)
    }

    fn seed_costs(&self, w: &WeightSetting, positions: &[u32]) -> Vec<(u32, LexCost)> {
        let mut ws = self.ev.acquire_workspace();
        let seeds = positions
            .iter()
            .map(|&p| (p, self.ev.cost_with(&mut ws, w, self.scenario(p as usize))))
            .collect();
        self.ev.release_workspace(ws);
        seeds
    }

    fn sum_costs(&self, w: &WeightSetting, threads: usize) -> LexCost {
        parallel::sum_set_costs(self.ev, w, self.set, self.indices, threads)
    }

    fn fold(&self, costs: &[LexCost]) -> LexCost {
        let mut acc = LexCost::ZERO;
        for (pos, c) in costs.iter().enumerate() {
            acc = match self.weight(pos) {
                Some(p) => acc.add(&LexCost::new(c.lambda * p, c.phi * p)),
                None => acc.add(c),
            };
        }
        acc
    }

    fn excess(&self, pos: usize, c: &LexCost, floor: &ScenarioFloor, k: usize) -> f64 {
        let x = if k == 0 {
            c.lambda - floor.lambda
        } else {
            c.phi - floor.phi
        };
        self.weight(pos).map_or(x, |p| x * p)
    }

    fn floors(&self, phi_floors: bool) -> Vec<ScenarioFloor> {
        let mut ws = self.ev.acquire_workspace();
        let floors = (0..self.len())
            .map(|pos| {
                let sc = self.scenario(pos);
                if phi_floors {
                    self.ev.scenario_floor(&mut ws, sc)
                } else {
                    ScenarioFloor {
                        lambda: self.ev.lambda_floor(sc),
                        phi: 0.0,
                    }
                }
            })
            .collect();
        self.ev.release_workspace(ws);
        floors
    }

    fn new_cache(&self, budget_bytes: usize) -> ScenarioCache {
        ScenarioCache::with_budget(budget_bytes)
    }

    fn resident(&self, cache: &ScenarioCache) -> usize {
        cache.resident_scenarios()
    }

    /// Capture sweep over `w`: rebuilds the delta-state scenario cache
    /// (the incumbent baseline plus every scenario's resident folded
    /// state) and refreshes the per-position costs, sharding across
    /// `threads` workers (cache entries and cost slots are
    /// position-disjoint, so each worker owns a contiguous chunk of
    /// both; the captured baseline is shared read-only).
    ///
    /// Budget-bounded caches first capture position 0 serially as a
    /// calibration probe, plan the resident prefix from its measured
    /// footprint ([`ScenarioCache::plan_residency`]), then capture only
    /// positions inside that prefix; the non-resident tail is evaluated
    /// on the plain repair-seeded path, which returns the same bits
    /// (pinned by `tests/scenario_engine_equivalence.rs`). A budget
    /// below one entry keeps the calibration probe allocated but marks
    /// nothing resident — at most one entry of slack over the budget.
    fn rebuild_cache(
        &self,
        w: &WeightSetting,
        threads: usize,
        cache: &mut ScenarioCache,
        costs: &mut Vec<LexCost>,
    ) {
        let (ev, n) = (self.ev, self.len());
        let mut ws = ev.acquire_workspace();
        ev.cache_rebuild_begin(&mut ws, cache, w, n);
        costs.clear();
        costs.resize(n, LexCost::ZERO);
        let mut captured = 0usize;
        if cache.budget_bytes() != usize::MAX && n != 0 {
            let (base, entries) = cache.capture_split();
            costs[0] = ev.cost_capture_into(&mut ws, w, self.scenario(0), base, &mut entries[0]);
            captured = 1;
        }
        cache.plan_residency(n);
        // Positions still to capture sit in `captured..cap_hi`; everything
        // past the resident prefix takes the plain path into the same cost
        // slots (position 0 is already exact even when non-resident — the
        // capture eval and the plain eval are bit-identical).
        let cap_hi = cache.resident_scenarios().max(captured);
        let full = cache.full_resident_scenarios();
        let workers = threads.min(n.max(1));
        if workers <= 1 {
            let (base, entries) = cache.capture_split();
            for pos in captured..cap_hi {
                costs[pos] =
                    ev.cost_capture_into(&mut ws, w, self.scenario(pos), base, &mut entries[pos]);
            }
            // Partial-tier positions capture fully (the capture eval *is*
            // the exact cost) and immediately demote to the planned
            // routings + loads footprint.
            for entry in &mut entries[full..cap_hi] {
                entry.demote();
            }
            for (pos, c) in costs.iter_mut().enumerate().skip(cap_hi) {
                *c = ev.cost_with(&mut ws, w, self.scenario(pos));
            }
            ev.release_workspace(ws);
            return;
        }
        ev.release_workspace(ws);
        {
            let (base, entries) = cache.capture_split();
            let idx = &self.indices[captured..cap_hi];
            let ents = &mut entries[captured..cap_hi];
            let csts = &mut costs[captured..cap_hi];
            if !idx.is_empty() {
                let chunk = idx.len().div_ceil(workers);
                let parts: Vec<_> = idx
                    .chunks(chunk)
                    .zip(ents.chunks_mut(chunk))
                    .zip(csts.chunks_mut(chunk))
                    .collect();
                parallel::scoped_fanout(parts, |((idx, ents), cst)| {
                    let mut ws = ev.acquire_workspace();
                    for ((&i, entry), c) in idx.iter().zip(ents).zip(cst) {
                        *c = ev.cost_capture_into(&mut ws, w, self.set.scenario(i), base, entry);
                    }
                    ev.release_workspace(ws);
                });
            }
            // See the serial branch: demote the partial-tier band.
            for entry in &mut entries[full..cap_hi] {
                entry.demote();
            }
        }
        let tail = &self.indices[cap_hi..];
        if !tail.is_empty() {
            let csts = &mut costs[cap_hi..];
            let chunk = tail.len().div_ceil(workers);
            let parts: Vec<_> = tail.chunks(chunk).zip(csts.chunks_mut(chunk)).collect();
            parallel::scoped_fanout(parts, |(idx, cst)| {
                let mut ws = ev.acquire_workspace();
                for (&i, c) in idx.iter().zip(cst) {
                    *c = ev.cost_with(&mut ws, w, self.set.scenario(i));
                }
                ev.release_workspace(ws);
            });
        }
    }

    /// Re-point the delta-state cache at the accepted incumbent `w`,
    /// sharding the per-entry refresh across `threads` workers: after the
    /// serial [`Evaluator::cache_refresh_begin`] baseline stage, resident
    /// entries are position-disjoint and the refresh context is shared
    /// read-only, so each worker owns a contiguous chunk and the spliced
    /// result is bit-identical to the serial [`Evaluator::cache_refresh`]
    /// at any thread count (the parallel-search contract in
    /// `DETERMINISM.md`; pinned by `tests/search_equivalence.rs`).
    fn refresh_cache(&self, w: &WeightSetting, threads: usize, cache: &mut ScenarioCache) {
        let ev = self.ev;
        let resident = cache.resident_scenarios();
        let workers = threads.min(resident.max(1));
        let mut ws = ev.acquire_workspace();
        ev.cache_refresh_begin(&mut ws, cache, w);
        if workers <= 1 {
            let (ctx, entries) = cache.refresh_split();
            for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
                ev.cache_refresh_entry(&mut ws, w, &ctx, self.scenario(pos), entry);
            }
            ev.release_workspace(ws);
        } else {
            ev.release_workspace(ws);
            let (ctx, entries) = cache.refresh_split();
            let chunk = resident.div_ceil(workers);
            let parts: Vec<_> = self.indices[..resident]
                .chunks(chunk)
                .zip(entries[..resident].chunks_mut(chunk))
                .collect();
            parallel::scoped_fanout(parts, |(idx, ents)| {
                let mut ws = ev.acquire_workspace();
                for (&i, entry) in idx.iter().zip(ents) {
                    ev.cache_refresh_entry(&mut ws, w, &ctx, self.set.scenario(i), entry);
                }
                ev.release_workspace(ws);
            });
        }
        ev.cache_refresh_finish(cache, w);
    }

    fn bounded_sweep(
        &self,
        w: &WeightSetting,
        threads: usize,
        incumbent: &LexCost,
        order: &[u32],
        seeds: &[(u32, LexCost)],
        floors: &[ScenarioFloor],
        cache: &mut ScenarioCache,
        scratch: &mut SweepScratch<LexCost>,
    ) -> Sweep<LexCost> {
        self.ev.cache_begin(cache, w);
        parallel::sum_set_costs_bounded(
            self.ev,
            w,
            self.set,
            self.indices,
            threads,
            incumbent,
            order,
            seeds,
            Some(floors),
            Some(cache),
            scratch,
        )
    }

    fn put_weights(&self, enc: &mut Encoder, w: &WeightSetting) {
        enc.put_slice_u32(w.weights(Class::Delay));
        enc.put_slice_u32(w.weights(Class::Throughput));
    }

    fn take_weights(
        &self,
        rd: &mut Decoder<'_>,
        wmax: u32,
    ) -> Result<WeightSetting, SnapshotError> {
        let num_links = self.ev.net().num_links();
        let delay = rd.take_vec_u32()?;
        let throughput = rd.take_vec_u32()?;
        if delay.len() != num_links || throughput.len() != num_links {
            return Err(SnapshotError::Corrupt("weight vector length differs"));
        }
        if delay.iter().chain(&throughput).any(|&w| w < 1 || w > wmax) {
            return Err(SnapshotError::Corrupt("weight outside [1, wmax]"));
        }
        Ok(WeightSetting::from_vecs(delay, throughput, wmax))
    }

    fn put_cost(&self, enc: &mut Encoder, c: &LexCost) {
        enc.put_f64(c.lambda);
        enc.put_f64(c.phi);
    }

    fn take_cost(&self, rd: &mut Decoder<'_>) -> Result<LexCost, SnapshotError> {
        Ok(LexCost::new(rd.take_f64()?, rd.take_f64()?))
    }

    /// χ is checked; the Phase-1 benchmarks Λ*/Φ* are adopted — a
    /// resumed run needs no `Phase1Output`.
    fn put_config_tail(&self, enc: &mut Encoder) {
        enc.put_f64(self.chi);
        enc.put_f64(self.lambda_star);
        enc.put_f64(self.phi_star);
    }

    fn take_config_tail(&mut self, rd: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        if rd.take_f64()?.to_bits() != self.chi.to_bits() {
            return Err(SnapshotError::Mismatch("chi differs"));
        }
        self.lambda_star = rd.take_f64()?;
        self.phi_star = rd.take_f64()?;
        Ok(())
    }
}

/// Run Phase 2 over the scenarios of `indices` drawn from any
/// [`ScenarioSet`]. The set supplies both the scenarios and (for
/// probabilistic ensembles) their weights; uniform sets keep the paper's
/// plain Eq. (4) sum. The canonical single-link call passes the
/// [`crate::FailureUniverse`] itself; arbitrary scenario slices ride the
/// same path through [`SliceSet`] (see [`run_scenarios`]).
///
/// All failure sweeps run through the set-native sharded kernels in
/// [`parallel`]: no scenario vector is materialized per sweep, every
/// worker reuses a pooled incremental workspace, and the weighted
/// reduction folds in index order — so the trajectory is bit-for-bit
/// identical for every `params.threads`, `params.speculation`, and
/// `params.cutoff` (see [`crate::driver`]).
pub fn run<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    phase1: &Phase1Output,
) -> Phase2Output {
    run_controlled(ev, set, indices, params, phase1, &mut RunControl::none())
        .expect("without a checkpoint sink no snapshot i/o can fail")
}

/// Validate `params` and the set's weights at `indices`.
fn checked<S: ScenarioSet + Sync + ?Sized>(params: &Params, set: &S, indices: &[usize]) {
    params.validate();
    if set.weighted() {
        for &i in indices {
            let p = set.weight(i);
            assert!(
                p >= 0.0 && p.is_finite(),
                "scenario {i} has invalid weight {p}"
            );
        }
    }
}

/// [`run`] under external control: checkpoints into `ctl.sink` every
/// `params.checkpoint_every` boundaries and honours `ctl.kill_after`
/// and `params.deadline_ms`. The only fallible step is storing a
/// snapshot, so with `RunControl::none()` this is exactly [`run`].
pub fn run_controlled<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    phase1: &Phase1Output,
    ctl: &mut RunControl<'_>,
) -> Result<Phase2Output, SnapshotError> {
    checked(params, set, indices);
    let engine = Dtr {
        ev,
        set,
        indices,
        chi: params.chi,
        lambda_star: phase1.best_cost.lambda,
        phi_star: phase1.best_cost.phi,
    };
    driver::run_controlled(&engine, robust_params(params), &phase1.archive, ctl)
}

/// Restore a Phase-2 run from `snapshot` bytes and continue it under
/// `ctl`. The evaluator, scenario set, critical indices and the
/// trajectory-determining `params` knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); `threads`, `speculation`,
/// `cutoff`, `phi_floors` and the cache budget may differ freely — the
/// determinism contract keeps the continued trajectory bit-identical
/// regardless. No `Phase1Output` is needed: the Λ*/Φ* benchmarks and
/// the archive travel inside the snapshot.
///
/// The wall-clock deadline, when set, is a fresh budget for this call —
/// time spent before the crash is not counted against it.
pub fn resume<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<Phase2Output, SnapshotError> {
    checked(params, set, indices);
    let engine = Dtr {
        ev,
        set,
        indices,
        chi: params.chi,
        lambda_star: f64::NAN,
        phi_star: f64::NAN,
    };
    driver::resume(engine, robust_params(params), snapshot, ctl)
}

/// Run Phase 2 against an arbitrary scenario slice — e.g. all single node
/// failures for the §V-F comparison routing, or sampled double-link
/// failures. The slice rides the set-native path through a [`SliceSet`]
/// adapter, so it gets the same sharded, speculative, cutoff-aware
/// kernel as [`run`] — and the same float behaviour as the historical
/// slice-specific sweep (weights, when given, multiply each scenario's
/// cost before the index-order fold).
pub fn run_scenarios(
    ev: &Evaluator<'_>,
    scenarios: &[Scenario],
    params: &Params,
    phase1: &Phase1Output,
    scenario_weights: Option<&[f64]>,
) -> Phase2Output {
    let set = SliceSet::new(scenarios, scenario_weights);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    run(ev, &set, &indices, params, phase1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1;
    use crate::universe::FailureUniverse;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, (i * i % 3) as f64)))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2.5e6,
            ..gravity::GravityConfig::paper_default(6, 9)
        });
        (net, tm)
    }

    fn setup() -> (Network, ClassMatrices) {
        testbed()
    }

    #[test]
    fn robust_solution_is_feasible_and_not_worse_than_start() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(21);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let p2 = run(&ev, &universe, &all, &params, &p1);

        // Feasibility (Eqs. 5-6).
        assert!(feasible(
            &p2.best_normal,
            p1.best_cost.lambda,
            p1.best_cost.phi,
            params.chi
        ));
        // Kfail of the result must not exceed Kfail of the Phase-1 best.
        let scenarios = universe.scenarios();
        let k_start = parallel::sum_failure_costs(&ev, &p1.best, &scenarios, 1);
        assert!(
            !k_start.better_than(&p2.best_kfail),
            "phase 2 regressed: start {k_start} vs robust {}",
            p2.best_kfail
        );
        // Reported kfail must be truthful.
        let recheck = parallel::sum_failure_costs(&ev, &p2.best, &scenarios, 1);
        assert_eq!(recheck, p2.best_kfail);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(33);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let a = run(&ev, &universe, &all, &params, &p1);
        let b = run(&ev, &universe, &all, &params, &p1);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_kfail, b.best_kfail);
    }

    #[test]
    fn budget_bounded_cache_matches_unbounded_bit_for_bit() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params {
            record_trace: true,
            ..Params::quick(21)
        };
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let unbounded = run(&ev, &universe, &all, &params, &p1);
        assert_eq!(unbounded.stats.cache_resident_scenarios, all.len());
        assert_eq!(unbounded.stats.cache_fallback_evals, 0);
        // From "below one entry" through "a partial prefix" to "holds
        // everything": the trajectory never moves.
        for budget in [0usize, 4_096, 1 << 22] {
            let bounded = run(
                &ev,
                &universe,
                &all,
                &Params {
                    cache_budget_bytes: budget,
                    ..params
                },
                &p1,
            );
            assert_eq!(bounded.best, unbounded.best, "budget {budget}");
            assert_eq!(bounded.best_kfail, unbounded.best_kfail, "budget {budget}");
            assert_eq!(
                bounded.best_normal, unbounded.best_normal,
                "budget {budget}"
            );
            assert_eq!(bounded.trace, unbounded.trace, "budget {budget}");
            assert_eq!(
                bounded.constraint_rejections, unbounded.constraint_rejections,
                "budget {budget}"
            );
            // Every stat except the two residency counters matches.
            let mut masked = bounded.stats;
            masked.cache_resident_scenarios = unbounded.stats.cache_resident_scenarios;
            masked.cache_fallback_evals = unbounded.stats.cache_fallback_evals;
            assert_eq!(masked, unbounded.stats, "budget {budget}");
            assert!(
                bounded.stats.cache_resident_scenarios <= all.len(),
                "budget {budget}"
            );
        }
        // A budget below one entry degrades the cache entirely — and the
        // fallback accounting must show it.
        let tiny = run(
            &ev,
            &universe,
            &all,
            &Params {
                cache_budget_bytes: 1,
                ..params
            },
            &p1,
        );
        assert_eq!(tiny.stats.cache_resident_scenarios, 0);
        assert!(tiny.stats.cache_fallback_evals > 0);
    }

    #[test]
    fn critical_subset_costs_fewer_evaluations() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(5);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let few = vec![0usize];
        let full = run(&ev, &universe, &all, &params, &p1);
        let crit = run(&ev, &universe, &few, &params, &p1);
        assert!(
            crit.stats.evaluations < full.stats.evaluations,
            "critical {} vs full {}",
            crit.stats.evaluations,
            full.stats.evaluations
        );
    }

    #[test]
    fn empty_critical_set_returns_start() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(5);
        let p1 = phase1::run(&ev, &universe, &params);
        let out = run(&ev, &universe, &[], &params, &p1);
        assert_eq!(out.best_kfail, LexCost::ZERO);
        assert_eq!(&out.best, &p1.archive.best().unwrap().0);
    }

    #[test]
    fn weighted_scenarios_change_the_objective() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(8);
        let p1 = phase1::run(&ev, &universe, &params);
        let idx: Vec<usize> = (0..universe.len()).collect();
        let uniform = run(&ev, &universe, &idx, &params, &p1);
        let scenarios = universe.scenarios_for(&idx);
        let weights = vec![0.5; idx.len()];
        let halved = run_scenarios(&ev, &scenarios, &params, &p1, Some(&weights));
        // Halving all weights halves the reported objective for the same
        // trajectory (acceptance decisions are scale-invariant).
        assert!((halved.best_kfail.lambda - 0.5 * uniform.best_kfail.lambda).abs() < 1e-6);
        assert!((halved.best_kfail.phi - 0.5 * uniform.best_kfail.phi).abs() < 1e-6);
    }

    #[test]
    fn cutoff_skips_scenario_evaluations_without_changing_the_result() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params_on = Params::quick(21);
        let params_off = Params {
            cutoff: false,
            ..params_on
        };
        let p1 = phase1::run(&ev, &universe, &params_on);
        let all: Vec<usize> = (0..universe.len()).collect();
        let on = run(&ev, &universe, &all, &params_on, &p1);
        let off = run(&ev, &universe, &all, &params_off, &p1);
        assert_eq!(on.best, off.best);
        assert_eq!(on.best_kfail, off.best_kfail);
        assert_eq!(on.best_normal, off.best_normal);
        assert_eq!(on.constraint_rejections, off.constraint_rejections);
        assert_eq!(on.stats.evaluations, off.stats.evaluations);
        assert_eq!(off.stats.scenario_evals_skipped, 0);
        assert!(
            on.stats.scenario_evals_skipped > 0,
            "cutoff never fired on a quick run with sweep rejections"
        );
        // Per-cause attribution partitions the legacy counter exactly.
        assert_eq!(
            on.stats.scenario_evals_skipped,
            on.stats.skipped_floor + on.stats.skipped_cache + on.stats.skipped_cutoff
        );
        // Disabling the Φ floors must not change the trajectory either —
        // floors only hasten provable rejections.
        let params_no_phi = Params {
            phi_floors: false,
            ..params_on
        };
        let no_phi = run(&ev, &universe, &all, &params_no_phi, &p1);
        assert_eq!(no_phi.best, on.best);
        assert_eq!(no_phi.best_kfail, on.best_kfail);
        assert_eq!(no_phi.stats.evaluations, on.stats.evaluations);
    }

    #[test]
    #[should_panic(expected = "one weight per critical scenario")]
    fn mismatched_weights_panic() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(8);
        let p1 = phase1::run(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let _ = run_scenarios(&ev, &scenarios, &params, &p1, Some(&[1.0]));
    }
}
