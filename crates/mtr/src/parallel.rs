//! Sharded k-class failure sweeps.
//!
//! The MTR robust phase pays one k-class evaluation per critical
//! scenario per candidate move — the same (weight-setting × scenario)
//! product the DTR Phase 2 shards in `dtr_core::parallel`. Scenarios are
//! independent, so they fan out over `std::thread::scope` workers in
//! contiguous chunks; each worker runs [`MtrEvaluator::evaluate_all`] on
//! its chunk, which checks a private workspace out of the evaluator's
//! pool. Per-scenario costs land back in input order and are reduced
//! **in scenario order**, so the floating-point sum — and therefore the
//! whole optimization trajectory — is identical for every thread count
//! (and bit-for-bit identical to serial per-scenario evaluation).

use dtr_core::parallel::{Sweep, SweepScratch};
use dtr_routing::Scenario;

use crate::cost::VecCost;
use crate::engine::MtrScenarioCache;
use crate::evaluator::MtrEvaluator;
use crate::weights::MtrWeightSetting;

/// Per-scenario k-class costs of `w` under every scenario, in input
/// order.
pub fn failure_costs(
    ev: &MtrEvaluator<'_>,
    w: &MtrWeightSetting,
    scenarios: &[Scenario],
    threads: usize,
) -> Vec<VecCost> {
    assert!(threads >= 1);
    let workers = threads.min(scenarios.len());
    if workers <= 1 {
        return ev.evaluate_all(w, scenarios);
    }
    let chunk = scenarios.len().div_ceil(workers);
    let mut out = Vec::with_capacity(scenarios.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = scenarios
            .chunks(chunk)
            .enumerate()
            .map(|(k, part)| s.spawn(move || (k * chunk, ev.evaluate_all(w, part))))
            .collect();
        for h in handles {
            let (start, costs) = h.join().expect("failure-evaluation worker panicked");
            // Order stamp: the splice must land in scenario-index order,
            // or the scenario-order k-class reduction (parallel == serial
            // to the bit) silently breaks. Static counterpart:
            // dtr-analysis determinism lints.
            debug_assert_eq!(
                out.len(),
                start,
                "failure_costs splice out of scenario order"
            );
            out.extend(costs);
        }
    });
    out
}

/// Ordered (optionally weighted) sum of [`failure_costs`]: the compound
/// k-class `K̄fail`. `weights`, if given, must match `scenarios` in
/// length.
pub fn sum_failure_costs(
    ev: &MtrEvaluator<'_>,
    w: &MtrWeightSetting,
    scenarios: &[Scenario],
    weights: Option<&[f64]>,
    threads: usize,
) -> VecCost {
    if let Some(sw) = weights {
        assert_eq!(sw.len(), scenarios.len(), "one weight per scenario");
    }
    let costs = failure_costs(ev, w, scenarios, threads);
    let mut acc = VecCost::zeros(ev.num_classes());
    for (i, c) in costs.iter().enumerate() {
        acc = match weights {
            None => acc.add(c),
            Some(sw) => acc.add(&c.scale(sw[i])),
        };
    }
    acc
}

/// Scenario-order weighted fold over the evaluated subset, with every
/// not-yet-evaluated position standing in at its per-class floor
/// (zero when no floors are supplied). A true lower bound of the
/// completed fold: contributions are non-negative, every floor
/// component bounds its scenario's component from below
/// ([`MtrEvaluator::lambda_floor`] /
/// [`MtrEvaluator::scenario_floor`]), IEEE addition of non-negative terms
/// is monotone, and `VecCost::better_than` is antitone in its left
/// argument — the same soundness lemma as
/// `dtr_cost::LexCost::better_than`. Once every position is done the
/// floors are never read, so the fold equals [`sum_failure_costs`]
/// bit-for-bit.
fn fold_done(
    scenarios_len: usize,
    weights: Option<&[f64]>,
    scratch: &SweepScratch<VecCost>,
    floors: Option<&[VecCost]>,
    acc: &mut VecCost,
) {
    acc.reset();
    for pos in 0..scenarios_len {
        let c = if scratch.is_done(pos) {
            &scratch.costs[pos]
        } else if let Some(f) = floors {
            &f[pos]
        } else {
            continue;
        };
        match weights {
            None => acc.add_assign(c),
            Some(sw) => acc.add_scaled_assign(c, sw[pos]),
        }
    }
}

/// Incumbent-bounded compound k-class sweep — the k-class analogue of
/// `dtr_core::parallel::sum_set_costs_bounded`, over a scenario slice
/// (+ optional per-scenario weights). Scenarios are evaluated in the
/// caller-supplied `order` (a permutation of positions, typically
/// costliest-under-the-incumbent first); the sweep is abandoned as soon
/// as the scenario-order fold over the evaluated subset — with every
/// unevaluated scenario standing in at its per-class floor (`floors`,
/// aligned with `scenarios`; see [`MtrEvaluator::lambda_floor`] and the
/// load-aware [`MtrEvaluator::scenario_floor`]) —
/// stops beating `incumbent`, which proves no completion can beat it
/// either. When a delta-state `cache` (pointed at the incumbent via
/// [`MtrEvaluator::cache_begin`]) is supplied, evaluations run through
/// [`MtrEvaluator::cost_cached`] instead of the plain incremental path
/// — same bits, a fraction of the work. A [`Sweep::Complete`] result
/// is bit-for-bit [`sum_failure_costs`]; a [`Sweep::Cut`] result
/// only replaces sweeps whose candidate the full fold would reject.
/// With `threads > 1` the order is processed in fixed rounds of
/// `threads · 4` scenarios with a cutoff check between rounds.
///
/// `seeds` carries pre-computed `(position, cost)` pairs for **this
/// candidate `w`** — the eager failure-sweep prefix fanned out by the
/// speculative batch (see the parallel-search contract in
/// `DETERMINISM.md` and `dtr_core::parallel::sum_set_costs_bounded`).
/// A seeded position substitutes its seeded cost when the walk reaches
/// it instead of re-evaluating; it is *not* pre-marked done, so walk
/// order, cut decisions and `evaluated` counts are exactly those of
/// the unseeded sweep, and any seed set yields identical bits.
#[allow(clippy::too_many_arguments)]
pub fn sum_failure_costs_bounded(
    ev: &MtrEvaluator<'_>,
    w: &MtrWeightSetting,
    scenarios: &[Scenario],
    weights: Option<&[f64]>,
    threads: usize,
    incumbent: &VecCost,
    order: &[u32],
    seeds: &[(u32, VecCost)],
    floors: Option<&[VecCost]>,
    cache: Option<&MtrScenarioCache>,
    scratch: &mut SweepScratch<VecCost>,
) -> Sweep<VecCost> {
    assert!(threads >= 1);
    let n = scenarios.len();
    assert_eq!(order.len(), n, "order must be a permutation of positions");
    if let Some(sw) = weights {
        assert_eq!(sw.len(), n, "one weight per scenario");
    }
    if let Some(f) = floors {
        assert_eq!(f.len(), n, "one floor vector per scenario");
    }
    let k = ev.num_classes();
    // Only reshape on arity/size changes: the per-position vectors are
    // overwritten before any read (the `done` flags gate the fold), so
    // a warm scratch re-sweeps without touching its allocations.
    if scratch.costs.len() != n || scratch.costs.iter().any(|c| c.len() != k) {
        scratch.costs.clear();
        scratch.costs.resize(n, VecCost::zeros(k));
    }
    scratch.reset_done(n);
    let mut acc = VecCost::zeros(k);

    let workers = threads.min(n);
    if workers <= 1 {
        let check_every = (n / 128).max(1);
        let mut ws = ev.acquire_workspace();
        for (e, &pos) in order.iter().enumerate() {
            let pos = pos as usize;
            // Non-resident positions of a budget-bounded cache take the
            // plain per-class path — the same bits, just uncached;
            // seeded positions reuse the speculative fan-out's bits.
            match seeds.iter().find(|s| s.0 as usize == pos) {
                Some(s) => scratch.costs[pos].clone_from(&s.1),
                None => {
                    scratch.costs[pos] = match cache {
                        Some(c) if c.is_resident(pos) => {
                            ev.cost_cached(&mut ws, w, scenarios[pos], c, pos)
                        }
                        _ => ev.cost_with(&mut ws, w, scenarios[pos]),
                    }
                }
            }
            scratch.set_done(pos);
            let evaluated = e + 1;
            if evaluated < n && evaluated % check_every == 0 {
                fold_done(n, weights, scratch, floors, &mut acc);
                if !acc.better_than(incumbent) {
                    ev.release_workspace(ws);
                    let floor_cut = floors.is_some() && {
                        fold_done(n, weights, scratch, None, &mut acc);
                        acc.better_than(incumbent)
                    };
                    return Sweep::Cut {
                        evaluated,
                        floor_cut,
                    };
                }
            }
        }
        ev.release_workspace(ws);
        fold_done(n, weights, scratch, floors, &mut acc);
        return Sweep::Complete(acc);
    }

    let round = workers * 4;
    let mut evaluated = 0usize;
    while evaluated < n {
        let batch = &order[evaluated..(evaluated + round).min(n)];
        let chunk = batch.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let mut ws = ev.acquire_workspace();
                        let costs: Vec<(u32, VecCost)> = part
                            .iter()
                            .map(|&pos| {
                                if let Some(s) = seeds.iter().find(|s| s.0 == pos) {
                                    return (pos, s.1.clone());
                                }
                                let c = match cache {
                                    Some(c) if c.is_resident(pos as usize) => ev.cost_cached(
                                        &mut ws,
                                        w,
                                        scenarios[pos as usize],
                                        c,
                                        pos as usize,
                                    ),
                                    _ => ev.cost_with(&mut ws, w, scenarios[pos as usize]),
                                };
                                (pos, c)
                            })
                            .collect();
                        ev.release_workspace(ws);
                        costs
                    })
                })
                .collect();
            for h in handles {
                for (pos, c) in h.join().expect("bounded-sweep worker panicked") {
                    scratch.costs[pos as usize] = c;
                    scratch.set_done(pos as usize);
                }
            }
        });
        evaluated += batch.len();
        if evaluated < n {
            fold_done(n, weights, scratch, floors, &mut acc);
            if !acc.better_than(incumbent) {
                let floor_cut = floors.is_some() && {
                    fold_done(n, weights, scratch, None, &mut acc);
                    acc.better_than(incumbent)
                };
                return Sweep::Cut {
                    evaluated,
                    floor_cut,
                };
            }
        }
    }
    fold_done(n, weights, scratch, floors, &mut acc);
    Sweep::Complete(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig};
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::TrafficMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn testbed() -> (Network, Vec<TrafficMatrix>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(Point::ORIGIN)).collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut tms = vec![TrafficMatrix::zeros(6); 2];
        for tm in tms.iter_mut() {
            for s in 0..6 {
                for t in 0..6 {
                    if s != t {
                        tm.set(s, t, rng.gen_range(1e3..5e4));
                    }
                }
            }
        }
        (net, tms)
    }

    fn scenario_zoo(net: &Network) -> Vec<Scenario> {
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(Scenario::all_link_failures(net));
        scenarios.extend(Scenario::all_node_failures(net));
        scenarios
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let serial = failure_costs(&ev, &w, &scenarios, 1);
        let threaded = failure_costs(&ev, &w, &scenarios, 4);
        assert_eq!(serial, threaded);
        assert_eq!(
            sum_failure_costs(&ev, &w, &scenarios, None, 1),
            sum_failure_costs(&ev, &w, &scenarios, None, 3)
        );
    }

    #[test]
    fn batched_matches_reference_per_scenario() {
        let (net, tms) = testbed();
        let config = MtrConfig::new(vec![
            ClassSpec::sla("voice", 25e-3),
            ClassSpec::congestion("bulk").relaxed(0.2),
        ]);
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let costs = failure_costs(&ev, &w, &scenarios, 2);
        for (i, &sc) in scenarios.iter().enumerate() {
            assert_eq!(costs[i], ev.evaluate(&w, sc).cost, "{sc}");
        }
    }

    #[test]
    fn weighted_sum_scales_components() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let weights = vec![0.5; scenarios.len()];
        let weighted = sum_failure_costs(&ev, &w, &scenarios, Some(&weights), 2);
        let plain = sum_failure_costs(&ev, &w, &scenarios, None, 1);
        for (a, b) in weighted.components().iter().zip(plain.components()) {
            assert!((a - 0.5 * b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn empty_scenarios_sum_to_zero() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        assert_eq!(sum_failure_costs(&ev, &w, &[], None, 4), VecCost::zeros(2));
    }

    #[test]
    fn bounded_sweep_completes_bit_for_bit_under_unbeatable_incumbent() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let weights = vec![0.5; scenarios.len()];
        let never = VecCost::new(vec![f64::MAX; 2]);
        let order: Vec<u32> = (0..scenarios.len() as u32).rev().collect();
        let mut scratch = SweepScratch::new();
        for weighting in [None, Some(weights.as_slice())] {
            for threads in [1, 4] {
                let got = sum_failure_costs_bounded(
                    &ev,
                    &w,
                    &scenarios,
                    weighting,
                    threads,
                    &never,
                    &order,
                    &[],
                    None,
                    None,
                    &mut scratch,
                );
                let want = sum_failure_costs(&ev, &w, &scenarios, weighting, 1);
                assert_eq!(got, Sweep::Complete(want), "threads={threads}");
                // Per-position costs match the plain sweep.
                assert_eq!(scratch.costs, failure_costs(&ev, &w, &scenarios, 1));
            }
        }
    }

    #[test]
    fn bounded_sweep_cuts_against_a_zero_incumbent() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let order: Vec<u32> = (0..scenarios.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        let got = sum_failure_costs_bounded(
            &ev,
            &w,
            &scenarios,
            None,
            1,
            &VecCost::zeros(2),
            &order,
            &[],
            None,
            None,
            &mut scratch,
        );
        assert_eq!(
            got,
            Sweep::Cut {
                evaluated: 1,
                floor_cut: false
            }
        );
    }

    #[test]
    fn floors_hasten_cuts_without_changing_completions() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let w = MtrWeightSetting::uniform(2, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let floors: Vec<VecCost> = scenarios
            .iter()
            .map(|&sc| VecCost::new(ev.scenario_floor(sc)))
            .collect();
        // Sanity: the load-aware floors are non-trivial on this testbed.
        let mut floor_sum = VecCost::zeros(2);
        for f in &floors {
            floor_sum.add_assign(f);
        }
        assert!(floor_sum.components().iter().any(|&c| c > 0.0));
        // Per-component soundness: every floor bounds its scenario's
        // exact cost from below.
        let exact = failure_costs(&ev, &w, &scenarios, 1);
        for ((f, c), sc) in floors.iter().zip(&exact).zip(&scenarios) {
            for (fk, ck) in f.components().iter().zip(c.components()) {
                assert!(fk <= ck, "floor exceeds exact component under {sc}");
            }
        }
        let order: Vec<u32> = (0..scenarios.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        // Beatable incumbent: floors never change a completed sweep.
        let never = VecCost::new(vec![f64::MAX; 2]);
        for threads in [1, 3] {
            let got = sum_failure_costs_bounded(
                &ev,
                &w,
                &scenarios,
                None,
                threads,
                &never,
                &order,
                &[],
                Some(&floors),
                None,
                &mut scratch,
            );
            let want = sum_failure_costs(&ev, &w, &scenarios, None, 1);
            assert_eq!(got, Sweep::Complete(want), "threads={threads}");
        }
        // An incumbent below the summed floors is cut without finishing.
        let below = floor_sum.scale(0.5);
        let got = sum_failure_costs_bounded(
            &ev,
            &w,
            &scenarios,
            None,
            1,
            &below,
            &order,
            &[],
            Some(&floors),
            None,
            &mut scratch,
        );
        assert!(
            matches!(got, Sweep::Cut { .. }),
            "expected a cut, got {got:?}"
        );
    }
}
