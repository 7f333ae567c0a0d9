//! Parallel failure-cost sums.
//!
//! Phase 2's objective `K̄fail = ⟨Σ_l Λfail,l, Σ_l Φfail,l⟩` (Eq. 7)
//! requires one full two-class evaluation per critical scenario. The
//! scenarios are independent, so they fan out over `std::thread::scope`
//! workers in contiguous chunks. Each worker runs the evaluator's
//! scenario-batched [`Evaluator::evaluate_all`] on its chunk, which
//! checks a private workspace out of the evaluator's pool: every thread
//! gets its own scratch buffers and no-failure baseline, and within a
//! chunk only the destinations each failure actually touches are
//! re-routed. Per-scenario costs land back in input order and are
//! reduced **in scenario order**, so the floating-point sum — and
//! therefore the whole optimization trajectory — is identical for every
//! thread count (and bit-for-bit identical to serial per-scenario
//! evaluation).
//!
//! [`evaluate_set`] is the [`crate::scenario::ScenarioSet`]-native form:
//! the same sharding over stable scenario *indices*, materializing each
//! `Copy` scenario inside the worker instead of allocating a scenario
//! vector per sweep. Since the engine handles every scenario kind
//! incrementally, one sharded sweep serves the single-link universe and
//! the node / SRLG / double-link / probabilistic ensembles alike.

use dtr_cost::{Evaluator, LexCost, ScenarioCache, ScenarioFloor};
use dtr_routing::{Scenario, WeightSetting};

/// Map `f` over `items` on up to `threads` scoped workers (contiguous
/// chunks, results spliced back in input order — so the output is
/// identical to a serial map for every thread count). The shared
/// fan-out primitive of the speculative move batches and the
/// manufactured-sample kernels.
pub fn parallel_map<T, C, F>(items: &[T], threads: usize, f: F) -> Vec<C>
where
    T: Sync,
    C: Send,
    F: Fn(&T) -> C + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel-map worker panicked"));
        }
    });
    out
}

/// Fan the elements of `parts` out over scoped worker threads, one
/// worker per element, and join them all (in spawn order) before
/// returning. This is the only sanctioned thread fan-out primitive
/// outside this module and `dtr_mtr::parallel` — the static pass
/// (`dtr-analysis`, lint `policy-thread`) rejects direct
/// `thread::scope`/`thread::spawn` elsewhere, so sharded sweeps that
/// live near their data (e.g. the cache capture sweeps) route through
/// here instead of open-coding the scope.
pub fn scoped_fanout<T: Send>(parts: Vec<T>, f: impl Fn(T) + Sync) {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = parts.into_iter().map(|p| s.spawn(move || f(p))).collect();
        for h in handles {
            h.join().expect("scoped fan-out worker panicked");
        }
    });
}

/// Per-scenario costs of `w` under every scenario, in input order.
pub fn failure_costs(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    scenarios: &[Scenario],
    threads: usize,
) -> Vec<LexCost> {
    assert!(threads >= 1);
    let workers = threads.min(scenarios.len());
    if workers <= 1 {
        return ev.evaluate_all(w, scenarios);
    }
    // Contiguous chunks, one per worker; results spliced back in order.
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
            // or the scenario-order reduction (parallel == serial to the
            // bit) silently breaks. Static counterpart: dtr-analysis
            // determinism lints.
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

/// Ordered sum of [`failure_costs`]: the compound `K̄fail`.
pub fn sum_failure_costs(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    scenarios: &[Scenario],
    threads: usize,
) -> LexCost {
    failure_costs(ev, w, scenarios, threads)
        .iter()
        .fold(LexCost::ZERO, |acc, c| acc.add(c))
}

/// Ordered weighted sum: `⟨Σ p_i·Λ_i, Σ p_i·Φ_i⟩` over the scenario batch.
/// This is the probabilistic-ensemble compound cost; `weights` must match
/// `scenarios` in length.
pub fn weighted_sum_failure_costs(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    scenarios: &[Scenario],
    weights: &[f64],
    threads: usize,
) -> LexCost {
    assert_eq!(weights.len(), scenarios.len(), "one weight per scenario");
    failure_costs(ev, w, scenarios, threads)
        .iter()
        .zip(weights)
        .fold(LexCost::ZERO, |acc, (c, &p)| {
            acc.add(&LexCost::new(c.lambda * p, c.phi * p))
        })
}

/// Sharded evaluation of a [`crate::scenario::ScenarioSet`]: the costs of
/// `w` under the scenarios at `indices`, in index order, **without
/// materializing** a scenario vector. Indices are partitioned into
/// contiguous chunks, one per worker; each worker checks one workspace
/// out of the evaluator's pool (its own scratch buffers and cached
/// no-failure baseline) and materializes each `Copy` scenario on the fly
/// with [`crate::scenario::ScenarioSet::scenario`]. Results are spliced
/// back in index order, so parallel equals serial to the bit — for every
/// scenario kind the set can hold (link, node, SRLG, double-link, and
/// their probabilistically weighted ensembles).
pub fn evaluate_set<S: crate::scenario::ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    indices: &[usize],
    threads: usize,
) -> Vec<LexCost> {
    assert!(threads >= 1);
    let mut out = vec![LexCost::ZERO; indices.len()];
    let workers = threads.min(indices.len());
    if workers <= 1 {
        sweep_chunk(ev, w, set, indices, &mut out);
        return out;
    }
    let chunk = indices.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (part, dst))| {
                s.spawn(move || {
                    sweep_chunk(ev, w, set, part, dst);
                    k * chunk
                })
            })
            .collect();
        let mut expect = 0usize;
        for h in handles {
            let start = h.join().expect("scenario-evaluation worker panicked");
            // Order stamp: workers write disjoint pre-chunked slices, so
            // joining them in spawn order must walk the output in index
            // order — the runtime mirror of the dtr-analysis determinism
            // contract (parallel == serial to the bit).
            debug_assert_eq!(expect, start, "evaluate_set chunk out of index order");
            expect = start + chunk;
        }
    });
    out
}

/// Worker kernel of [`evaluate_set`]: evaluate the scenarios at `part`
/// into `dst` in place, one pooled workspace for the whole chunk. The
/// kernel is allocation-free in steady state (registered in
/// `crates/analysis/hot_paths.toml`; `tests/alloc_free.rs` proves the
/// sweep around it) — callers own the output buffer.
fn sweep_chunk<S: crate::scenario::ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    part: &[usize],
    dst: &mut [LexCost],
) {
    debug_assert_eq!(part.len(), dst.len());
    let mut ws = ev.acquire_workspace();
    for (d, &i) in dst.iter_mut().zip(part) {
        *d = ev.cost_with(&mut ws, w, set.scenario(i));
    }
    ev.release_workspace(ws);
}

/// Per-scenario costs of `w` over a [`crate::scenario::ScenarioSet`]'s
/// selected indices, in index order (alias of [`evaluate_set`], kept for
/// the original slice-era name).
pub fn set_failure_costs<S: crate::scenario::ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    indices: &[usize],
    threads: usize,
) -> Vec<LexCost> {
    evaluate_set(ev, w, set, indices, threads)
}

/// Reusable buffers of an incumbent-bounded sweep
/// ([`sum_set_costs_bounded`], `dtr_mtr::parallel::sum_failure_costs_bounded`);
/// one per search run, warmed after the first sweep (no steady-state
/// allocation).
#[derive(Clone, Debug)]
pub struct SweepScratch<C> {
    /// Per-*position* raw scenario costs (aligned with the scenario
    /// positions of the sweep); fully populated on [`Sweep::Complete`].
    pub costs: Vec<C>,
    done: Vec<bool>,
}

impl<C> SweepScratch<C> {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        SweepScratch {
            costs: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Mark all `n` positions not yet evaluated.
    pub fn reset_done(&mut self, n: usize) {
        self.done.clear();
        self.done.resize(n, false);
    }

    /// Record that position `pos` holds its evaluated cost.
    pub fn set_done(&mut self, pos: usize) {
        self.done[pos] = true;
    }

    /// Whether position `pos` has been evaluated in this sweep.
    pub fn is_done(&self, pos: usize) -> bool {
        self.done[pos]
    }
}

impl<C> Default for SweepScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of an incumbent-bounded sweep, for DTR [`LexCost`] and
/// k-class costs alike.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sweep<C> {
    /// All scenarios evaluated; the compound cost is bit-for-bit the
    /// plain index-order weighted fold ([`sum_set_costs`] /
    /// `dtr_mtr::parallel::sum_failure_costs`).
    Complete(C),
    /// The partial fold proved the candidate cannot beat the incumbent;
    /// `evaluated` scenarios were evaluated before the sweep was
    /// abandoned (the rest are the caller's `scenario_evals_skipped`).
    Cut {
        /// Scenarios evaluated before the proof fired.
        evaluated: usize,
        /// `true` when the floors were *necessary* for this cut: the
        /// same partial fold without floor stand-ins would still have
        /// beaten the incumbent, so the skip is attributable to the
        /// floors (`SearchStats::skipped_floor`) rather than to the
        /// plain cutoff.
        floor_cut: bool,
    },
}

/// Index-order weighted fold over a sweep's evaluated subset, with each
/// not-yet-evaluated position standing in at its [`ScenarioFloor`]
/// (zero when no floors are supplied). Every stand-in bounds its
/// scenario's contribution from below **componentwise** and IEEE
/// addition is monotone in each addend, so the fold bounds the completed
/// compound cost from below in both components — and equals it exactly,
/// bit-for-bit, once every position is done (floors are then never
/// read). The componentwise bound carries through the lexicographic
/// `better_than` (see the antitone lemma on [`LexCost::better_than`]).
fn fold_bound<S: crate::scenario::ScenarioSet + ?Sized>(
    set: &S,
    indices: &[usize],
    scratch: &SweepScratch<LexCost>,
    floors: Option<&[ScenarioFloor]>,
) -> LexCost {
    let weighted = set.weighted();
    let mut acc = LexCost::ZERO;
    for (pos, &i) in indices.iter().enumerate() {
        if scratch.is_done(pos) {
            let c = &scratch.costs[pos];
            acc = if weighted {
                let p = set.weight(i);
                acc.add(&LexCost::new(c.lambda * p, c.phi * p))
            } else {
                acc.add(c)
            };
        } else if let Some(f) = floors {
            let fl = f[pos];
            if fl.lambda > 0.0 || fl.phi > 0.0 {
                acc = if weighted {
                    let p = set.weight(i);
                    acc.add(&LexCost::new(fl.lambda * p, fl.phi * p))
                } else {
                    acc.add(&LexCost::new(fl.lambda, fl.phi))
                };
            }
        }
    }
    acc
}

/// Incumbent-bounded compound sweep: evaluates the scenarios at
/// `indices` in the caller-supplied `order` (a permutation of positions
/// `0..indices.len()`, typically costliest-under-the-incumbent first)
/// and abandons the sweep as soon as the index-order fold over the
/// evaluated subset — with every unevaluated scenario standing in at
/// its [`ScenarioFloor`] (`floors`, aligned with `indices`; see
/// `Evaluator::scenario_floor` for the Λ + load-aware Φ bound) — proves
/// the candidate cannot be lexicographically better than `incumbent`.
///
/// The proof is float-exact, not heuristic: per-scenario contributions
/// are non-negative, IEEE addition of non-negative terms is monotone,
/// and `better_than` is antitone in its left argument (see the lemma on
/// [`LexCost::better_than`]) — so `!partial.better_than(incumbent)`
/// implies the full sweep's total cannot beat the incumbent either.
/// Consequently:
///
/// * a [`Sweep::Complete`] result is **bit-for-bit** the
///   [`sum_set_costs`] value (the final fold runs over all positions in
///   index order, regardless of the evaluation order), and
/// * a [`Sweep::Cut`] result only ever replaces a sweep whose
///   candidate the full fold would have rejected anyway,
///
/// which is why a hill climber that accepts only strictly-better
/// compound costs keeps its trajectory unchanged to the bit.
///
/// With `threads > 1` the evaluation order is processed in fixed rounds
/// of `threads · 4` scenarios (contiguous chunks, per-thread pooled
/// workspaces, cutoff check between rounds), so the cut decision — and
/// the accepted-move costs — stay deterministic for a given thread
/// count; only the amount of post-cutoff wasted work varies with it.
///
/// `seeds` carries pre-computed `(position, cost)` pairs for **this
/// candidate `w`** — the eager failure-sweep prefix the speculative
/// batch fanned out alongside the normal-conditions cost (see the
/// parallel-search contract in `DETERMINISM.md`). A seeded position
/// substitutes its seeded cost when the walk reaches it instead of
/// re-evaluating; it is *not* pre-marked done, so the walk order, the
/// cut decisions, `evaluated` counts and every fold are exactly those
/// of the unseeded sweep. Because each seed was computed by the same
/// bit-exact per-scenario evaluation the walk would have performed
/// (`cost_with` ≡ `cost_cached`, the pinned cache invariant), ANY seed
/// set — including an empty or partially wasted one — yields the
/// identical result; seeds only move work onto the speculative fan-out.
#[allow(clippy::too_many_arguments)]
pub fn sum_set_costs_bounded<S: crate::scenario::ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    indices: &[usize],
    threads: usize,
    incumbent: &LexCost,
    order: &[u32],
    seeds: &[(u32, LexCost)],
    floors: Option<&[ScenarioFloor]>,
    cache: Option<&ScenarioCache>,
    scratch: &mut SweepScratch<LexCost>,
) -> Sweep<LexCost> {
    assert!(threads >= 1);
    let n = indices.len();
    assert_eq!(order.len(), n, "order must be a permutation of positions");
    if let Some(f) = floors {
        assert_eq!(f.len(), n, "one floor per scenario position");
    }
    scratch.costs.clear();
    scratch.costs.resize(n, LexCost::ZERO);
    scratch.reset_done(n);

    let workers = threads.min(n);
    if workers <= 1 {
        // Serial: evaluate in priority order, prove-or-continue after
        // every scenario (re-folding the evaluated subset costs O(n) LexCost
        // adds — noise next to one scenario evaluation).
        let check_every = (n / 128).max(1);
        let mut ws = ev.acquire_workspace();
        for (e, &pos) in order.iter().enumerate() {
            let pos = pos as usize;
            // Non-resident positions of a budget-bounded cache take the
            // plain repair-seeded path — the same bits, just uncached;
            // seeded positions reuse the speculative fan-out's bits.
            scratch.costs[pos] = match seeds.iter().find(|s| s.0 as usize == pos) {
                Some(&(_, c)) => c,
                None => {
                    let sc = set.scenario(indices[pos]);
                    match cache {
                        Some(c) if c.is_resident(pos) => ev.cost_cached(&mut ws, w, sc, c, pos),
                        _ => ev.cost_with(&mut ws, w, sc),
                    }
                }
            };
            scratch.set_done(pos);
            let evaluated = e + 1;
            if evaluated < n
                && evaluated % check_every == 0
                && !fold_bound(set, indices, scratch, floors).better_than(incumbent)
            {
                ev.release_workspace(ws);
                // The cut is floor-attributed iff the evaluated subset
                // alone (floor-less fold) would *not* have proven it.
                let floor_cut = floors.is_some()
                    && fold_bound(set, indices, scratch, None).better_than(incumbent);
                return Sweep::Cut {
                    evaluated,
                    floor_cut,
                };
            }
        }
        ev.release_workspace(ws);
        return Sweep::Complete(fold_bound(set, indices, scratch, floors));
    }

    // Parallel: fixed rounds over the priority order; sharded evaluation
    // inside a round, cutoff check between rounds.
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
                        let costs: Vec<(u32, LexCost)> = part
                            .iter()
                            .map(|&pos| {
                                if let Some(s) = seeds.iter().find(|s| s.0 == pos) {
                                    return (pos, s.1);
                                }
                                let sc = set.scenario(indices[pos as usize]);
                                let c = match cache {
                                    Some(c) if c.is_resident(pos as usize) => {
                                        ev.cost_cached(&mut ws, w, sc, c, pos as usize)
                                    }
                                    _ => ev.cost_with(&mut ws, w, sc),
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
        if evaluated < n && !fold_bound(set, indices, scratch, floors).better_than(incumbent) {
            let floor_cut =
                floors.is_some() && fold_bound(set, indices, scratch, None).better_than(incumbent);
            return Sweep::Cut {
                evaluated,
                floor_cut,
            };
        }
    }
    Sweep::Complete(fold_bound(set, indices, scratch, floors))
}

/// Compound (weight-aware) cost of `w` over a scenario set's indices:
/// the plain ordered sum for uniform sets, the probability-weighted sum
/// for weighted ones. Both reductions run in index order — the exact
/// float-add sequence of the seed's per-scenario accumulation.
pub fn sum_set_costs<S: crate::scenario::ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    indices: &[usize],
    threads: usize,
) -> LexCost {
    let costs = evaluate_set(ev, w, set, indices, threads);
    if set.weighted() {
        costs
            .iter()
            .zip(indices)
            .fold(LexCost::ZERO, |acc, (c, &i)| {
                let p = set.weight(i);
                acc.add(&LexCost::new(c.lambda * p, c.phi * p))
            })
    } else {
        costs.iter().fold(LexCost::ZERO, |acc, c| acc.add(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::ClassMatrices;

    fn ring(n: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(Point::ORIGIN)).collect();
        for i in 0..n {
            b.add_duplex_link(ids[i], ids[(i + 1) % n], 100.0, 1e-3)
                .unwrap();
        }
        b.build().unwrap()
    }

    fn setup(n: usize) -> (Network, ClassMatrices) {
        let net = ring(n);
        let mut tm = ClassMatrices::zeros(n);
        for s in 0..n {
            tm.delay.set(s, (s + 1) % n, 5.0);
            tm.throughput.set(s, (s + 2) % n, 10.0);
        }
        (net, tm)
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        assert_eq!(scenarios.len(), 6);
        let serial = failure_costs(&ev, &w, &scenarios, 1);
        let parallel = failure_costs(&ev, &w, &scenarios, 4);
        assert_eq!(serial, parallel);
        let s1 = sum_failure_costs(&ev, &w, &scenarios, 1);
        let s4 = sum_failure_costs(&ev, &w, &scenarios, 4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn sum_matches_manual_accumulation() {
        let (net, tm) = setup(5);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let costs = failure_costs(&ev, &w, &scenarios, 1);
        let manual = costs.iter().fold(LexCost::ZERO, |a, c| a.add(c));
        assert_eq!(manual, sum_failure_costs(&ev, &w, &scenarios, 1));
    }

    #[test]
    fn empty_scenarios_sum_to_zero() {
        let (net, tm) = setup(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        assert_eq!(sum_failure_costs(&ev, &w, &[], 4), LexCost::ZERO);
    }

    #[test]
    fn weighted_sum_scales_each_scenario() {
        let (net, tm) = setup(5);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let weights = vec![0.5; scenarios.len()];
        let weighted = weighted_sum_failure_costs(&ev, &w, &scenarios, &weights, 2);
        let plain = sum_failure_costs(&ev, &w, &scenarios, 1);
        assert!((weighted.lambda - 0.5 * plain.lambda).abs() < 1e-9);
        assert!((weighted.phi - 0.5 * plain.phi).abs() < 1e-9);
    }

    #[test]
    fn evaluate_set_matches_slice_path_and_is_thread_invariant() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let via_set_serial = evaluate_set(&ev, &w, &set, &indices, 1);
        let via_set_parallel = evaluate_set(&ev, &w, &set, &indices, 4);
        let via_slice = failure_costs(&ev, &w, &crate::scenario::ScenarioSet::scenarios(&set), 1);
        assert_eq!(via_set_serial, via_set_parallel);
        assert_eq!(via_set_serial, via_slice);
    }

    #[test]
    fn weighted_set_sum_reduces_in_index_order() {
        use crate::ext::probabilistic::FailureModel;
        use crate::scenario::{Probabilistic, ScenarioSet};
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let universe = crate::universe::FailureUniverse::of(&net);
        let model = FailureModel::length_proportional(&net, &universe);
        let set = Probabilistic::with_model(&net, model);
        let indices = set.all_indices();
        let serial = sum_set_costs(&ev, &w, &set, &indices, 1);
        let parallel = sum_set_costs(&ev, &w, &set, &indices, 4);
        assert_eq!(serial, parallel);
        // And the sum is the exact in-order weighted fold.
        let costs = evaluate_set(&ev, &w, &set, &indices, 1);
        let manual = costs
            .iter()
            .zip(&indices)
            .fold(LexCost::ZERO, |a, (c, &i)| {
                let p = set.weight(i);
                a.add(&LexCost::new(c.lambda * p, c.phi * p))
            });
        assert_eq!(manual, serial);
    }

    #[test]
    fn bounded_sweep_completes_bit_for_bit_under_unbeatable_incumbent() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let never = LexCost::new(f64::INFINITY, f64::INFINITY);
        let order: Vec<u32> = (0..indices.len() as u32).rev().collect(); // any permutation
        let mut scratch = SweepScratch::new();
        for threads in [1, 4] {
            let got = sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &indices,
                threads,
                &never,
                &order,
                &[],
                None,
                None,
                &mut scratch,
            );
            let want = sum_set_costs(&ev, &w, &set, &indices, 1);
            assert_eq!(got, Sweep::Complete(want), "threads={threads}");
            // Per-position costs match the plain sweep.
            let costs = evaluate_set(&ev, &w, &set, &indices, 1);
            assert_eq!(scratch.costs, costs);
        }
    }

    #[test]
    fn bounded_sweep_cuts_against_a_zero_incumbent() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let order: Vec<u32> = (0..indices.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        // Nothing is strictly better than zero cost, so the serial sweep
        // must cut after the very first evaluation.
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            1,
            &LexCost::ZERO,
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
        let (net, tm) = setup(7);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let mut ws = ev.acquire_workspace();
        let floors: Vec<ScenarioFloor> = indices
            .iter()
            .map(|&i| ev.scenario_floor(&mut ws, crate::scenario::ScenarioSet::scenario(&set, i)))
            .collect();
        ev.release_workspace(ws);
        let total = sum_set_costs(&ev, &w, &set, &indices, 1);
        let order: Vec<u32> = (0..indices.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        for threads in [1, 3] {
            // Beatable incumbent: the floored sweep must still complete
            // with the exact bit-for-bit total.
            let above = LexCost::new(total.lambda + 1.0, total.phi);
            let got = sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &indices,
                threads,
                &above,
                &order,
                &[],
                Some(&floors),
                None,
                &mut scratch,
            );
            assert_eq!(got, Sweep::Complete(total), "threads={threads}");
            // An incumbent below the summed floors is unbeatable from
            // position zero: the floored sweep cuts at its first check,
            // and the cut is attributed to the floors whenever the
            // evaluated subset alone would not have proven it.
            let floor_sum: f64 = floors.iter().map(|f| f.phi).sum();
            assert!(floor_sum > 0.0, "testbed floors are degenerate");
            let below_floors = LexCost::new(0.0, floor_sum * 0.5);
            match sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &indices,
                threads,
                &below_floors,
                &order,
                &[],
                Some(&floors),
                None,
                &mut scratch,
            ) {
                Sweep::Cut { evaluated, .. } => {
                    assert!(evaluated < indices.len(), "threads={threads}")
                }
                Sweep::Complete(c) => assert!(!c.better_than(&below_floors)),
            }
        }
    }

    #[test]
    fn bounded_sweep_cut_is_sound_for_every_incumbent_prefix() {
        // For incumbents slightly below the true total, the sweep must
        // cut; for incumbents above it, it must complete with the exact
        // sum — under any evaluation order and thread count.
        let (net, tm) = setup(7);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let total = sum_set_costs(&ev, &w, &set, &indices, 1);
        let mut order: Vec<u32> = (0..indices.len() as u32).collect();
        order.reverse();
        let mut scratch = SweepScratch::new();
        for threads in [1, 3] {
            let below = LexCost::new(total.lambda, total.phi * 0.5);
            match sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &indices,
                threads,
                &below,
                &order,
                &[],
                None,
                None,
                &mut scratch,
            ) {
                Sweep::Cut { evaluated, .. } => assert!(evaluated <= indices.len()),
                Sweep::Complete(c) => {
                    // Completing is allowed (the cut is opportunistic),
                    // but the sum must be exact and not better.
                    assert_eq!(c, total);
                    assert!(!c.better_than(&below));
                }
            }
            let above = LexCost::new(total.lambda + 1.0, total.phi);
            let got = sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &indices,
                threads,
                &above,
                &order,
                &[],
                None,
                None,
                &mut scratch,
            );
            assert_eq!(got, Sweep::Complete(total), "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let (net, tm) = setup(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let wide = failure_costs(&ev, &w, &scenarios, 64);
        let narrow = failure_costs(&ev, &w, &scenarios, 1);
        assert_eq!(wide, narrow);
    }
}
