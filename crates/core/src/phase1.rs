//! Phase 1a — regular optimization with failure-cost sample harvesting.
//!
//! Local search on the normal-conditions cost `Knormal = ⟨Λnormal, Φnormal⟩`
//! (Eq. 3). Every sweep re-draws the class-weight pair of each physical
//! link in random order, accepting lexicographic improvements. Two side
//! products are collected *for free* (§IV-D1):
//!
//! * **failure-cost samples** — when a proposed pair lands in the
//!   failure-emulation band `[q·wmax, wmax]²` for a failable link *and*
//!   the pre-perturbation setting was "acceptable" (`Λ` within `z·B1` of
//!   the running best, `Φ` within `(1+χ)×`), the post-perturbation cost is
//!   recorded as a sample of that link's conditional failure-cost
//!   distribution;
//! * **an archive of acceptable settings** — Phase 2 diversifies from
//!   these instead of from random noise.
//!
//! The criticality ranking is re-estimated every `τ` average samples per
//! link; Phase 1a reports whether it converged (else Phase 1b tops up).
//!
//! The sweep runs through the speculative batched-move kernel
//! ([`crate::search::speculative_sweep`]): the next `K` proposals are
//! pre-drawn and their normal-conditions costs evaluated concurrently on
//! pooled workspaces, then replayed serially in draw order — sample
//! harvesting, archive offers and the accept/reject sequence are
//! bit-for-bit those of the serial loop for every batch size and thread
//! count.

use dtr_cost::{Evaluator, LexCost};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dtr_routing::{Scenario, WeightSetting};

use crate::criticality::Criticality;
use crate::params::Params;
use crate::ranking::RankTracker;
use crate::samples::SampleStore;
use crate::search::{
    duplex_weights, random_symmetric_setting, random_weight_pair, set_duplex_weights,
    speculative_sweep, Archive, Decision, MoveOutcome, SearchStats, SpecBuffers, StopRule,
};
use crate::universe::FailureUniverse;

/// Everything Phase 1 hands to the rest of the pipeline.
#[derive(Clone, Debug)]
pub struct Phase1Output {
    /// Best weight setting found for normal conditions.
    pub best: WeightSetting,
    /// Its cost — the benchmarks `Λ*normal`, `Φ*normal` of Eqs. (5)–(6).
    pub best_cost: LexCost,
    /// Acceptable settings collected along the way (Phase-2 start points;
    /// always contains `best`).
    pub archive: Archive<WeightSetting, LexCost>,
    /// Failure-cost samples per failable link.
    pub store: SampleStore,
    /// Rank tracker (carried into Phase 1b if needed).
    pub tracker: RankTracker,
    /// `true` if the criticality ranking converged during Phase 1a.
    pub converged: bool,
    /// Per-proposal accept/reject sequence (empty unless
    /// `params.record_trace`).
    pub trace: Vec<MoveOutcome>,
    pub stats: SearchStats,
}

/// Pre-perturbation acceptability (§IV-D1's relaxed Eqs. 5–6): `Λ` within
/// `z·B1` of the best seen so far, `Φ` within `(1+χ)` of it.
pub fn acceptable(cost: &LexCost, best: &LexCost, z: f64, chi: f64, b1: f64) -> bool {
    cost.lambda <= best.lambda + z * b1 && cost.phi <= (1.0 + chi) * best.phi
}

/// Run Phase 1a.
pub fn run(ev: &Evaluator<'_>, universe: &FailureUniverse, params: &Params) -> Phase1Output {
    params.validate();
    let net = ev.net();
    let b1 = ev.params().b1;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut store = SampleStore::new(universe.len());
    let mut tracker = RankTracker::new();
    let mut converged = false;
    let mut next_checkpoint = params.tau * universe.len().max(1);

    let mut stats = SearchStats::default();
    let mut stop = StopRule::new(params.p1, params.c);
    let mut archive = Archive::new(params.archive_size);

    let mut current = random_symmetric_setting(net, params.wmax, &mut rng);
    let mut current_cost = ev.cost(&current, Scenario::Normal);
    stats.evaluations += 1;
    let mut best = current.clone();
    let mut best_cost = current_cost;
    archive.offer(&best, best_cost);

    let mut reps: Vec<_> = universe.all_duplex.clone();
    let mut stale_sweeps = 0usize;
    let mut spec = SpecBuffers::new();
    let mut trace: Vec<MoveOutcome> = Vec::new();

    while stats.iterations < params.max_iterations {
        stats.iterations += 1;
        reps.shuffle(&mut rng);
        let mut improved = false;
        let mut wasted = 0usize;

        speculative_sweep(
            &reps,
            &mut rng,
            params.speculation,
            params.threads,
            &mut current,
            &mut spec,
            &mut wasted,
            |rng| random_weight_pair(params.wmax, rng),
            duplex_weights,
            |w: &mut WeightSetting, rep, &(wd, wt): &(u32, u32)| {
                set_duplex_weights(w, net, rep, wd, wt)
            },
            |w| ev.cost(w, Scenario::Normal),
            |cand_w, rep, &cand: &LexCost| {
                stats.evaluations += 1;
                // `current_cost` is the pre-move cost here (the driver
                // applies the move to the setting only, never the cost).
                let base_acceptable =
                    acceptable(&current_cost, &best_cost, params.z, params.chi, b1);

                // Sample harvest: the new pair emulates this link's
                // failure.
                if base_acceptable && cand_w.emulates_failure(rep, params.q) {
                    if let Some(fi) = universe.failure_index(rep) {
                        store.record(fi, cand.lambda, cand.phi);
                    }
                }

                if cand.better_than(&current_cost) {
                    current_cost = cand;
                    improved = true;
                    if cand.better_than(&best_cost) {
                        best.clone_from(cand_w);
                        best_cost = cand;
                    }
                    if acceptable(&cand, &best_cost, params.z, params.chi, b1) {
                        archive.offer(cand_w, cand);
                    }
                    if params.record_trace {
                        trace.push(MoveOutcome::Accept);
                    }
                    Decision::Accept
                } else {
                    if params.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
            },
        );
        stats.speculative_wasted += wasted;

        // Criticality-rank convergence checks every τ samples/link.
        while store.total() >= next_checkpoint {
            let crit = Criticality::estimate(&store, params.left_tail_fraction);
            if let Some(change) = tracker.update(&crit.ranking_lambda(), &crit.ranking_phi()) {
                converged = change.converged(params.e);
            }
            next_checkpoint += params.tau * universe.len().max(1);
        }

        stale_sweeps = if improved { 0 } else { stale_sweeps + 1 };
        if stale_sweeps >= params.div_interval_1 {
            stats.diversifications += 1;
            stale_sweeps = 0;
            if stop.record(best_cost) {
                break;
            }
            current = random_symmetric_setting(net, params.wmax, &mut rng);
            current_cost = ev.cost(&current, Scenario::Normal);
            stats.evaluations += 1;
        }
    }

    // The final best is acceptable by definition (Λ = Λ*, Φ = Φ*).
    archive.offer(&best, best_cost);

    Phase1Output {
        best,
        best_cost,
        archive,
        store,
        tracker,
        converged,
        trace,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    /// Small 2-connected test network: 6-ring with two chords.
    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64 * 1.05).cos(), (i as f64 * 1.05).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let mut tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2e6,
            ..gravity::GravityConfig::paper_default(6, 5)
        });
        // Moderate load.
        tm.scale(1.0);
        (net, tm)
    }

    #[test]
    fn phase1_improves_over_random_start() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(7);
        let out = run(&ev, &universe, &params);

        // The found best must beat (or match) a handful of random settings.
        let mut rng = StdRng::seed_from_u64(999);
        for _ in 0..10 {
            let w = random_symmetric_setting(&net, params.wmax, &mut rng);
            let c = ev.cost(&w, Scenario::Normal);
            assert!(
                !c.better_than(&out.best_cost),
                "random setting beat phase-1 best: {c} < {}",
                out.best_cost
            );
        }
        assert!(out.stats.evaluations > 50);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn best_cost_matches_reported_weights() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let out = run(&ev, &universe, &Params::quick(3));
        let recheck = ev.cost(&out.best, Scenario::Normal);
        assert_eq!(recheck, out.best_cost);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let a = run(&ev, &universe, &Params::quick(11));
        let b = run(&ev, &universe, &Params::quick(11));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.store.total(), b.store.total());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let a = run(&ev, &universe, &Params::quick(1));
        let b = run(&ev, &universe, &Params::quick(2));
        // Different trajectories (costs may coincide, weights rarely do).
        assert!(a.best != b.best || a.stats.evaluations != b.stats.evaluations);
    }

    #[test]
    fn samples_are_harvested_for_failable_links() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let out = run(&ev, &universe, &Params::quick(5));
        // With wmax=20 and q=0.7 the emulation band is [14,20]^2:
        // (7/20)^2 ≈ 12% of proposals; the quick run makes hundreds.
        assert!(
            out.store.total() > 0,
            "expected some failure-emulating samples"
        );
    }

    #[test]
    fn archive_entries_are_acceptable() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(13);
        let out = run(&ev, &universe, &params);
        let b1 = ev.params().b1;
        for (w, c) in out.archive.entries() {
            // Cached cost must be truthful.
            assert_eq!(*c, ev.cost(w, Scenario::Normal));
            // And acceptable relative to the final best.
            assert!(acceptable(c, &out.best_cost, params.z, params.chi, b1));
        }
    }

    #[test]
    fn acceptability_definition() {
        let best = LexCost::new(100.0, 10.0);
        // z=0.5, B1=100 -> Λ slack 50; χ=0.2 -> Φ cap 12.
        assert!(acceptable(
            &LexCost::new(150.0, 12.0),
            &best,
            0.5,
            0.2,
            100.0
        ));
        assert!(!acceptable(
            &LexCost::new(151.0, 10.0),
            &best,
            0.5,
            0.2,
            100.0
        ));
        assert!(!acceptable(
            &LexCost::new(100.0, 12.1),
            &best,
            0.5,
            0.2,
            100.0
        ));
    }
}
