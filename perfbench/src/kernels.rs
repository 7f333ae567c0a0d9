//! Warm, single-threaded timings of the public layer kernels, taken from
//! outside on a workload's robust weight setting and critical set.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use dtr_core::search::{duplex_weights, set_duplex_weights};
use dtr_core::{parallel, ScenarioSet};
use dtr_cost::{Evaluator, ScenarioCache};
use dtr_mtr::{MtrEvaluator, MtrWeightSetting};
use dtr_net::{LinkId, Network, NodeId};
use dtr_routing::workspace::{route_destination, route_destination_repair, DestRouting};
use dtr_routing::{route_class_with, spf, ClassRouting, Scenario, SpfWorkspace, WeightSetting};
use dtr_traffic::TrafficMatrix;

use crate::report::Report;

/// Samples a timed kernel collects at least (enough for a p95 tail).
const MIN_SAMPLES: usize = 200;
/// Wall-clock cap per kernel once [`MIN_TAIL_SAMPLES`] are in.
const MAX_KERNEL_S: f64 = 2.0;
/// Samples below which a kernel keeps going past the cap (a median tail).
const MIN_TAIL_SAMPLES: usize = 20;

/// Repeat `pass` (one sweep, returning its samples) until at least
/// [`MIN_SAMPLES`] are in, or the time cap is hit with at least
/// [`MIN_TAIL_SAMPLES`].
fn sample(mut pass: impl FnMut(&mut Vec<f64>)) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        pass(&mut out);
        let enough = out.len() >= MIN_SAMPLES;
        let capped = t0.elapsed().as_secs_f64() >= MAX_KERNEL_S && out.len() >= MIN_TAIL_SAMPLES;
        if enough || capped {
            return out;
        }
    }
}

/// Time one call in microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e6
}

/// A different weight in `1..=wmax`.
fn bump(w: u32, wmax: u32) -> u32 {
    w % wmax + 1
}

/// `w` with one duplex link's weights changed in both classes.
fn dtr_move(w: &WeightSetting, net: &Network, rep: LinkId, wmax: u32) -> WeightSetting {
    let mut cand = w.clone();
    let (wd, wt) = duplex_weights(w, rep);
    set_duplex_weights(&mut cand, net, rep, bump(wd, wmax), bump(wt, wmax));
    cand
}

/// `w` with one duplex link's weights changed in every class.
fn mtr_move(w: &MtrWeightSetting, net: &Network, rep: LinkId) -> MtrWeightSetting {
    let mut cand = w.clone();
    for k in 0..w.num_classes() {
        cand.set_duplex(net, k, rep, bump(w.get(k, rep), w.wmax()));
    }
    cand
}

/// Candidate moves timed through the delta-state cache and the refresh.
const CACHED_MOVES: usize = 24;

/// `dtr-cost` engine kernels.
pub fn dtr_cost(
    r: &mut Report,
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    crit: &[Scenario],
    wmax: u32,
) {
    let net = ev.net();
    let reps = net.duplex_representatives();
    let mut ws = ev.acquire_workspace();
    black_box(ev.cost_with(&mut ws, w, Scenario::Normal));

    let moves: Vec<WeightSetting> = reps.iter().map(|&l| dtr_move(w, net, l, wmax)).collect();
    let s = sample(|out| {
        for cand in &moves {
            out.push(time_us(|| ev.cost_with(&mut ws, cand, Scenario::Normal)));
        }
    });
    r.set_timed("cost.cost_with_normal.us", &s);

    black_box(ev.cost_with(&mut ws, w, Scenario::Normal));
    let s = sample(|out| {
        for &sc in crit {
            out.push(time_us(|| ev.cost_with(&mut ws, w, sc)));
        }
    });
    r.set_timed("cost.cost_with_failure.us", &s);

    let s = sample(|out| {
        for &sc in crit {
            out.push(time_us(|| ev.scenario_floor(&mut ws, sc)));
        }
    });
    r.set_timed("cost.scenario_floor.us", &s);

    let mut cache = ScenarioCache::new();
    ev.cache_rebuild_begin(&mut ws, &mut cache, w, crit.len());
    for (pos, &sc) in crit.iter().enumerate() {
        ev.cost_capture(&mut ws, w, sc, &mut cache, pos);
    }
    let resident: usize = cache
        .capture_split()
        .1
        .iter()
        .map(|e| e.resident_bytes())
        .sum();
    r.set("cost.cache.resident_bytes", resident as f64);

    let cached_moves = &moves[..moves.len().min(CACHED_MOVES)];
    let s = sample(|out| {
        for cand in cached_moves {
            ev.cache_begin(&mut cache, cand);
            for (pos, &sc) in crit.iter().enumerate() {
                out.push(time_us(|| ev.cost_cached(&mut ws, cand, sc, &cache, pos)));
            }
        }
    });
    r.set_timed("cost.cost_cached.us", &s);

    // A chain of accepted moves, each refreshing every cached scenario.
    let mut incumbent = w.clone();
    let mut next = 0usize;
    let s = sample(|out| {
        for _ in 0..CACHED_MOVES {
            let cand = dtr_move(&incumbent, net, reps[next % reps.len()], wmax);
            next += 1;
            let us = time_us(|| ev.cache_refresh(&mut ws, &mut cache, &cand, |pos| crit[pos]));
            out.push(us / 1e3);
            incumbent = cand;
        }
    });
    r.set_timed("cost.cache_refresh.ms", &s);
    ev.release_workspace(ws);
}

/// `dtr-core::parallel::evaluate_set` over the full universe on one
/// thread and on `threads`.
pub fn dtr_parallel<S: ScenarioSet + Sync>(
    r: &mut Report,
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    set: &S,
    threads: usize,
) {
    let all = set.all_indices();
    let reference = parallel::evaluate_set(ev, w, set, &all, 1);
    let time_ms = |t: usize| {
        let s = sample_calls(|| {
            let t0 = Instant::now();
            let out = parallel::evaluate_set(ev, w, set, &all, t);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.lambda.to_bits() == b.lambda.to_bits()
                        && a.phi.to_bits() == b.phi.to_bits()),
                "evaluate_set on {t} threads differs from 1 thread"
            );
            ms
        });
        crate::stats::median(&s)
    };
    let t1 = time_ms(1);
    let tn = time_ms(threads);
    r.set("core.parallel.evaluate_set_t1.ms", t1);
    r.set("core.parallel.evaluate_set_tN.ms", tn);
    r.set("core.parallel.scaling", t1 / tn);
    r.note("core.parallel.threads", threads.to_string());
}

/// Repeat a whole-call timing at least 5 times and for about a second.
fn sample_calls(mut f: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || (t0.elapsed().as_secs_f64() < 1.0 && out.len() < 50) {
        out.push(f());
    }
    out
}

/// Destinations with demand in `tm`.
fn demand_dests(tm: &TrafficMatrix) -> Vec<usize> {
    let n = tm.num_nodes();
    (0..n)
        .filter(|&t| (0..n).any(|s| tm.demand(s, t) > 0.0))
        .collect()
}

/// `dtr-routing` kernels over `(weights, matrix)` per class.
pub fn routing(
    r: &mut Report,
    net: &Network,
    classes: &[(&[u32], &TrafficMatrix)],
    crit: &[Scenario],
) {
    let mask = net.fresh_mask();
    let dests: Vec<Vec<usize>> = classes.iter().map(|(_, tm)| demand_dests(tm)).collect();
    let mut dist = Vec::new();
    let mut heap = BinaryHeap::new();
    let s = sample(|out| {
        for ((weights, _), ds) in classes.iter().zip(&dests) {
            for &t in ds {
                out.push(time_us(|| {
                    spf::dist_to_into(net, NodeId::new(t), weights, &mask, &mut dist, &mut heap)
                }));
            }
        }
    });
    r.set_timed("routing.dist_to_into.us", &s);

    let mut sws = SpfWorkspace::new();
    let mut routed = ClassRouting::empty();
    let s = sample(|out| {
        for (weights, tm) in classes {
            let us = time_us(|| route_class_with(net, weights, tm, &mask, &mut sws, &mut routed));
            out.push(us / 1e3);
        }
    });
    r.set_timed("routing.route_class_with.ms", &s);

    let masks: Vec<_> = crit.iter().map(|sc| sc.mask(net)).collect();
    let bases: Vec<Vec<DestRouting>> = classes
        .iter()
        .zip(&dests)
        .map(|((weights, tm), ds)| {
            ds.iter()
                .map(|&t| {
                    let mut b = DestRouting::default();
                    route_destination(net, weights, tm, &mask, t, &mut sws, &mut b);
                    b
                })
                .collect()
        })
        .collect();
    let mut repaired = DestRouting::default();
    let s = sample(|out| {
        for (((weights, tm), ds), base) in classes.iter().zip(&dests).zip(&bases) {
            for (&t, b) in ds.iter().zip(base) {
                for m in &masks {
                    out.push(time_us(|| {
                        route_destination_repair(net, weights, tm, m, t, b, &mut sws, &mut repaired)
                    }));
                }
            }
        }
    });
    r.set_timed("routing.route_destination_repair.us", &s);
}

/// `dtr-mtr` engine kernels.
pub fn mtr_cost(r: &mut Report, ev: &MtrEvaluator<'_>, w: &MtrWeightSetting, crit: &[Scenario]) {
    let net = ev.net();
    let moves: Vec<MtrWeightSetting> = net
        .duplex_representatives()
        .into_iter()
        .map(|l| mtr_move(w, net, l))
        .collect();
    let mut ws = ev.acquire_workspace();
    black_box(ev.cost_with(&mut ws, w, Scenario::Normal));
    let s = sample(|out| {
        for cand in &moves {
            out.push(time_us(|| ev.cost_with(&mut ws, cand, Scenario::Normal)));
        }
    });
    r.set_timed("mtr.cost_normal.us", &s);

    black_box(ev.cost_with(&mut ws, w, Scenario::Normal));
    let s = sample(|out| {
        for &sc in crit {
            out.push(time_us(|| ev.cost_with(&mut ws, w, sc)));
        }
    });
    r.set_timed("mtr.cost_failure.us", &s);
    ev.release_workspace(ws);

    let s = sample(|out| {
        for &sc in crit {
            out.push(time_us(|| ev.scenario_floor(sc)));
        }
    });
    r.set_timed("mtr.scenario_floor.us", &s);
}
