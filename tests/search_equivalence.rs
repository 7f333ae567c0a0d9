//! Trajectory-pinning suite for the speculative, cutoff-aware search
//! stack.
//!
//! The batched-move kernel (`dtr_core::search::speculative_sweep`) and
//! the incumbent-bounded failure sweeps
//! (`dtr_core::parallel::sum_set_costs_bounded`,
//! `dtr_mtr::parallel::sum_failure_costs_bounded`) promise that the
//! search trajectory is **bit-for-bit** the serial, cutoff-free one:
//! same best setting, same best costs, and the same full accept/reject
//! sequence — for every speculation window `K`, every thread count, and
//! cutoff on or off. This suite pins that promise for Phase 1, Phase 1b,
//! Phase 2 (single-link, SRLG, probabilistically weighted, and
//! slice-adapted node-failure ensembles) and both MTR phases, by
//! comparing every configuration against the `K = 1, threads = 1,
//! cutoff = off` anchor — which *is* the seed path.
//!
//! The per-proposal trace (`MoveOutcome`) is recorded in all runs, so a
//! divergence anywhere in the accept/reject stream fails loudly, not
//! just a divergence of the end state.

use dtr::core::ext::probabilistic::FailureModel;
use dtr::core::search::{MoveOutcome, SearchStats};
use dtr::core::{phase1, phase1b, phase2, PortfolioParams};
use dtr::mtr::{
    robust as mtr_robust, search as mtr_search, ClassSpec, MtrConfig, MtrEvaluator, MtrParams,
};
use dtr::prelude::*;
use dtr::traffic::{gravity, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small 2-connected testbed: 8-ring with three chords, gravity load.
fn testbed() -> (Network, ClassMatrices) {
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..8)
        .map(|i| b.add_node(Point::new((i as f64 * 0.7).cos(), (i as f64 * 0.7).sin())))
        .collect();
    for i in 0..8 {
        b.add_duplex_link(n[i], n[(i + 1) % 8], 1e6, 2e-3).unwrap();
    }
    b.add_duplex_link(n[0], n[4], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[1], n[5], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[2], n[6], 1e6, 2e-3).unwrap();
    let net = b.build().unwrap();
    let tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 3e6,
        ..gravity::GravityConfig::paper_default(8, 17)
    });
    (net, tm)
}

/// The `(speculation, threads, cutoff, phi_floors)` grid. The first
/// entry is the anchor: the plain serial loop. Φ floors only matter
/// under the cutoff, so the floor dimension is swept within the
/// cutoff-on configurations (floors on AND off at several
/// speculation/thread shapes).
const CONFIGS: [(usize, usize, bool, bool); 8] = [
    (1, 1, false, false),
    (1, 1, true, false),
    (1, 1, true, true),
    (8, 1, false, false),
    (8, 1, true, true),
    (1, 4, true, false),
    (1, 4, true, true),
    (8, 4, true, true),
];

fn params_for(
    seed: u64,
    (speculation, threads, cutoff, phi_floors): (usize, usize, bool, bool),
) -> Params {
    Params {
        speculation,
        threads,
        cutoff,
        phi_floors,
        record_trace: true,
        // Enough sweeps to exercise accepts, rejects, the constraint
        // gate, diversification restarts and the cutoff — the grid runs
        // each phase six times, so keep individual runs short.
        max_iterations: 60,
        ..Params::quick(seed)
    }
}

fn assert_phase1_equal(a: &phase1::Phase1Output, b: &phase1::Phase1Output, cfg: &str) {
    assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
    assert_eq!(a.best_cost, b.best_cost, "{cfg}: best cost diverged");
    assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
    assert_eq!(a.converged, b.converged, "{cfg}");
    assert_eq!(a.archive.entries(), b.archive.entries(), "{cfg}: archive");
    assert_eq!(a.store.total(), b.store.total(), "{cfg}: sample count");
    for i in 0..a.store.num_links() {
        assert_eq!(a.store.count(i), b.store.count(i), "{cfg}: samples of {i}");
    }
    assert_eq!(a.stats.iterations, b.stats.iterations, "{cfg}");
    assert_eq!(a.stats.evaluations, b.stats.evaluations, "{cfg}");
    assert_eq!(a.stats.diversifications, b.stats.diversifications, "{cfg}");
}

fn assert_phase2_equal(a: &phase2::Phase2Output, b: &phase2::Phase2Output, cfg: &str) {
    assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
    assert_eq!(a.best_kfail, b.best_kfail, "{cfg}: kfail diverged");
    assert_eq!(a.best_normal, b.best_normal, "{cfg}: normal cost diverged");
    assert_eq!(
        a.constraint_rejections, b.constraint_rejections,
        "{cfg}: constraint gate diverged"
    );
    assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
    assert_eq!(a.stats.iterations, b.stats.iterations, "{cfg}");
    assert_eq!(a.stats.evaluations, b.stats.evaluations, "{cfg}");
    assert_eq!(a.stats.diversifications, b.stats.diversifications, "{cfg}");
}

#[test]
fn phase1_trajectory_is_invariant_across_speculation_and_threads() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let anchor = phase1::run(&ev, &universe, &params_for(3, CONFIGS[0]));
    assert!(
        anchor.trace.contains(&MoveOutcome::Accept) && anchor.trace.contains(&MoveOutcome::Reject),
        "anchor trace must exercise both outcomes"
    );
    for cfg in &CONFIGS[1..] {
        let out = phase1::run(&ev, &universe, &params_for(3, *cfg));
        assert_phase1_equal(&anchor, &out, &format!("{cfg:?}"));
    }
}

#[test]
fn phase1b_sample_stream_is_invariant_across_batching() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let mk = |cfg: (usize, usize, bool, bool)| {
        let params = params_for(5, cfg);
        let mut p1 = phase1::run(&ev, &universe, &params);
        p1.converged = false; // force the top-up
        let stats = phase1b::run(&ev, &universe, &params, &mut p1);
        (p1, stats)
    };
    let (anchor, anchor_stats) = mk(CONFIGS[0]);
    assert!(anchor_stats.rounds >= 1);
    for cfg in &CONFIGS[1..] {
        let (out, stats) = mk(*cfg);
        assert_eq!(stats, anchor_stats, "{cfg:?}: phase1b stats diverged");
        assert_eq!(out.store.total(), anchor.store.total(), "{cfg:?}");
        for i in 0..anchor.store.num_links() {
            assert_eq!(
                out.store.count(i),
                anchor.store.count(i),
                "{cfg:?}: samples of {i}"
            );
            // The recorded sample *values* must match, not just counts:
            // the tail statistics summarize them.
            assert_eq!(
                out.store.lambda_stats(i, 0.5),
                anchor.store.lambda_stats(i, 0.5),
                "{cfg:?}: λ samples of {i}"
            );
            assert_eq!(
                out.store.phi_stats(i, 0.5),
                anchor.store.phi_stats(i, 0.5),
                "{cfg:?}: Φ samples of {i}"
            );
        }
    }
}

#[test]
fn phase2_trajectory_is_invariant_on_the_single_link_universe() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(7, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let anchor = phase2::run(&ev, &universe, &all, &params_for(7, CONFIGS[0]), &p1);
    assert_eq!(anchor.stats.scenario_evals_skipped, 0);
    assert!(
        anchor.trace.contains(&MoveOutcome::ConstraintReject),
        "quick run should exercise the constraint gate"
    );
    let mut saw_skip = false;
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &universe, &all, &params_for(7, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("{cfg:?}"));
        // The per-cause skip counters partition the total exactly.
        assert_eq!(
            out.stats.scenario_evals_skipped,
            out.stats.skipped_floor + out.stats.skipped_cache + out.stats.skipped_cutoff,
            "{cfg:?}: skip counters do not partition the total"
        );
        saw_skip |= out.stats.scenario_evals_skipped > 0;
    }
    assert!(saw_skip, "the cutoff never skipped a scenario evaluation");
}

#[test]
fn phase2_trajectory_is_invariant_on_srlg_and_weighted_ensembles() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(11, CONFIGS[0]));

    // SRLG: single links plus conduit-style groups of three.
    let reps = net.duplex_representatives();
    let groups: Vec<Vec<LinkId>> = reps.chunks_exact(3).map(|g| g.to_vec()).collect();
    let srlg = Srlg::explicit(&net, &groups);
    let idx: Vec<usize> = srlg.all_indices();
    let anchor = phase2::run(&ev, &srlg, &idx, &params_for(11, CONFIGS[0]), &p1);
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &srlg, &idx, &params_for(11, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("srlg {cfg:?}"));
    }

    // Probabilistic: the weighted compound objective.
    let model = FailureModel::length_proportional(&net, &universe);
    let prob = Probabilistic::with_model(&net, model);
    let idx: Vec<usize> = prob.all_indices();
    let anchor = phase2::run(&ev, &prob, &idx, &params_for(13, CONFIGS[0]), &p1);
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &prob, &idx, &params_for(13, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("prob {cfg:?}"));
    }
}

#[test]
fn phase2_slice_path_is_invariant_and_matches_the_set_path() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(19, CONFIGS[0]));

    // Node failures through the SliceSet adapter (traffic-removing
    // scenarios — the hardest kind for the incremental engine).
    let nodes: Vec<Scenario> = net.nodes().map(Scenario::Node).collect();
    let anchor = phase2::run_scenarios(&ev, &nodes, &params_for(19, CONFIGS[0]), &p1, None);
    for cfg in &CONFIGS[1..] {
        let out = phase2::run_scenarios(&ev, &nodes, &params_for(19, *cfg), &p1, None);
        assert_phase2_equal(&anchor, &out, &format!("nodes {cfg:?}"));
    }

    // Weighted slice: same trajectory as uniform (scale-invariant
    // acceptance), objective scaled by the mass.
    let weights = vec![0.5; nodes.len()];
    let halved = phase2::run_scenarios(
        &ev,
        &nodes,
        &params_for(19, CONFIGS[0]),
        &p1,
        Some(&weights),
    );
    assert_eq!(halved.best, anchor.best);
    assert_eq!(halved.trace, anchor.trace);

    // And the slice path is exactly the set path over the same scenarios.
    let slice_set = SliceSet::new(&nodes, None);
    let idx: Vec<usize> = (0..nodes.len()).collect();
    let via_set = phase2::run(&ev, &slice_set, &idx, &params_for(19, CONFIGS[0]), &p1);
    assert_phase2_equal(&anchor, &via_set, "slice == set");
}

/// The portfolio search must be bit-for-bit reproducible for a given
/// `(seed, replicas, rendezvous_period)` at **any** thread count and
/// speculation window — replica seeds derive only from `(seed, r)`,
/// rendezvous merges run in replica index order, and each chain keeps
/// the classic single-chain thread-invariance (the parallel-search
/// contract in `DETERMINISM.md`). `threads = 1` runs the sharded cache
/// refresh serially, `threads = 4` shards it, so the grid also pins the
/// refresh-sharding on/off equivalence inside portfolio runs.
#[test]
fn phase2_portfolio_is_thread_invariant() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(37, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let run = |replicas: usize, threads: usize, speculation: usize| {
        let params = Params {
            portfolio: PortfolioParams {
                replicas,
                rendezvous_period: 4,
            },
            ..params_for(37, (speculation, threads, true, true))
        };
        phase2::run(&ev, &universe, &all, &params, &p1)
    };

    // replicas == 1 stays the classic search, bit for bit, and reports
    // no per-replica traces.
    let classic = phase2::run(
        &ev,
        &universe,
        &all,
        &params_for(37, (1, 1, true, true)),
        &p1,
    );
    let single = run(1, 4, 8);
    assert_phase2_equal(&classic, &single, "replicas=1 == classic");
    assert!(single.replica_traces.is_empty());

    // replicas == 3: identical output across the thread/speculation
    // grid, including every replica's full accept/reject trace.
    let anchor = run(3, 1, 1);
    assert_eq!(anchor.replica_traces.len(), 3);
    assert!(
        anchor.replica_traces.contains(&anchor.trace),
        "the reported trace must be the winning replica's"
    );
    for (threads, speculation) in [(1usize, 8usize), (4, 1), (4, 8)] {
        let cfg = format!("portfolio threads={threads} K={speculation}");
        let out = run(3, threads, speculation);
        assert_phase2_equal(&anchor, &out, &cfg);
        assert_eq!(anchor.replica_traces, out.replica_traces, "{cfg}");
    }
}

/// Mask the attribution-only cache gauges that legitimately differ
/// between a restored run and an uninterrupted one: restore rebuilds
/// the delta-state cache with a capture sweep charged to
/// `cache_rebuild_evals`, and the residency/fallback gauges track that
/// physical work. Everything else — including the logical
/// `evaluations` — must match bit for bit ("The checkpoint contract",
/// `DETERMINISM.md`). Both engines share the one `SearchStats`.
fn masked_stats(s: &SearchStats) -> SearchStats {
    let mut m = *s;
    m.cache_rebuild_evals = 0;
    m.cache_resident_scenarios = 0;
    m.cache_fallback_evals = 0;
    m
}

/// Kill-at-any-boundary / restore / continue must reproduce the
/// uninterrupted Phase-2 run bit for bit: same best setting and costs,
/// same full accept/reject trace, same logical stats — for cutoff and
/// cache configurations on and off, at every checkpoint the cadence
/// produced. The killed prefix must itself report a usable best-so-far
/// with `Terminated::Deadline`.
#[test]
fn phase2_kill_restore_continue_is_bit_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(43, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();

    for cfg in [(1, 1, false, false), (1, 1, true, true), (8, 4, true, true)] {
        let params = Params {
            checkpoint_every: 1,
            max_iterations: 30,
            ..params_for(43, cfg)
        };
        let full = phase2::run(&ev, &universe, &all, &params, &p1);
        assert_eq!(full.terminated, Terminated::Converged);

        // Sweep the kill point across every boundary of the run.
        let mut kill = 1u64;
        loop {
            let mut sink = MemorySink::new();
            let mut ctl = RunControl {
                sink: Some(&mut sink),
                kill_after: Some(kill),
            };
            let killed = phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl)
                .expect("in-memory checkpointing cannot fail");
            if killed.terminated == Terminated::Converged {
                // The run outlived the kill grid: the uncut trajectory.
                assert_eq!(killed.best, full.best, "{cfg:?}: converged-before-kill");
                break;
            }
            assert_eq!(
                killed.terminated,
                Terminated::Deadline,
                "{cfg:?} kill {kill}"
            );
            let snap = sink
                .latest()
                .expect("cadence 1 checkpoints every boundary")
                .to_vec();
            let resumed = phase2::resume(
                &ev,
                &universe,
                &all,
                &params,
                &snap,
                &mut RunControl::none(),
            )
            .expect("snapshot restores");
            let label = format!("{cfg:?} kill {kill}");
            // A kill landing on the final boundary snapshots an
            // already-converged chain; resume then reports `Restored`.
            assert!(
                matches!(
                    resumed.terminated,
                    Terminated::Converged | Terminated::Restored
                ),
                "{label}: {:?}",
                resumed.terminated
            );
            assert_phase2_equal(&full, &resumed, &label);
            assert_eq!(
                masked_stats(&full.stats),
                masked_stats(&resumed.stats),
                "{label}: full stats diverged beyond the rebuild gauges"
            );
            kill += 3;
        }
    }
}

/// Checkpoint byte streams are reproducible across a crash: with the
/// cutoff off (no restore-time cache rebuild mutating the attribution
/// gauges), every snapshot a resumed run writes is **byte-identical**
/// to the one the uninterrupted run wrote at the same boundary — the
/// encode ∘ decode round trip is the identity on live search state.
#[test]
fn phase2_resumed_checkpoints_are_byte_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(47, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let params = Params {
        checkpoint_every: 1,
        max_iterations: 30,
        ..params_for(47, (1, 1, false, false))
    };

    let mut full_sink = MemorySink::new();
    let full = phase2::run_controlled(
        &ev,
        &universe,
        &all,
        &params,
        &p1,
        &mut RunControl::with_sink(&mut full_sink),
    )
    .unwrap();
    assert!(full_sink.snapshots.len() >= 4, "run too short to straddle");

    let kill = (full_sink.snapshots.len() / 2) as u64;
    let mut sink = MemorySink::new();
    let mut ctl = RunControl {
        sink: Some(&mut sink),
        kill_after: Some(kill),
    };
    phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl).unwrap();
    let snap = sink.latest().unwrap().to_vec();
    let mut resume_sink = MemorySink::new();
    let resumed = phase2::resume(
        &ev,
        &universe,
        &all,
        &params,
        &snap,
        &mut RunControl::with_sink(&mut resume_sink),
    )
    .unwrap();
    assert_phase2_equal(&full, &resumed, "resumed");

    // The resumed run re-emits boundaries kill+1.. — align the tails.
    let tail = &full_sink.snapshots[kill as usize..];
    assert_eq!(resume_sink.snapshots.len(), tail.len());
    for (i, (a, b)) in tail.iter().zip(&resume_sink.snapshots).enumerate() {
        assert_eq!(
            a,
            b,
            "snapshot at boundary {} differs",
            kill as usize + i + 1
        );
    }
}

/// The portfolio variant of the kill/restore equivalence: rendezvous
/// boundaries, 3 replicas, elite merges and per-replica traces all
/// survive the crash bit for bit.
#[test]
fn phase2_portfolio_kill_restore_continue_is_bit_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(53, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let params = Params {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        checkpoint_every: 1,
        max_iterations: 30,
        ..params_for(53, (8, 4, true, true))
    };
    let full = phase2::run(&ev, &universe, &all, &params, &p1);
    assert_eq!(full.replica_traces.len(), 3);

    for kill in [1u64, 2] {
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(kill),
        };
        let killed = phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl).unwrap();
        assert_eq!(killed.terminated, Terminated::Deadline, "kill {kill}");
        let snap = sink.latest().unwrap().to_vec();
        let resumed = phase2::resume(
            &ev,
            &universe,
            &all,
            &params,
            &snap,
            &mut RunControl::none(),
        )
        .unwrap();
        let label = format!("portfolio kill {kill}");
        assert_phase2_equal(&full, &resumed, &label);
        assert_eq!(full.replica_traces, resumed.replica_traces, "{label}");
        assert_eq!(
            masked_stats(&full.stats),
            masked_stats(&resumed.stats),
            "{label}"
        );
    }
}

fn mtr_testbed() -> (Network, Vec<TrafficMatrix>) {
    let (net, _) = testbed();
    let mut rng = StdRng::seed_from_u64(23);
    let mut tms = vec![TrafficMatrix::zeros(8); 2];
    for tm in tms.iter_mut() {
        for s in 0..8 {
            for t in 0..8 {
                if s != t {
                    tm.set(s, t, rng.gen_range(1e3..4e4));
                }
            }
        }
    }
    (net, tms)
}

/// The MTR search walks the same `(speculation, threads, cutoff,
/// phi_floors)` grid as DTR ([`CONFIGS`]): both engines run one driver,
/// whose bounded sweeps always go through the delta-state cache.
fn mtr_params_for(
    seed: u64,
    (speculation, threads, cutoff, phi_floors): (usize, usize, bool, bool),
) -> MtrParams {
    MtrParams {
        speculation,
        threads,
        cutoff,
        phi_floors,
        record_trace: true,
        ..MtrParams::quick(seed)
    }
}

#[test]
fn mtr_regular_trajectory_is_invariant() {
    let (net, tms) = mtr_testbed();
    let config = MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::congestion("bulk").relaxed(0.2),
    ]);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let universe = FailureUniverse::of(&net);
    let anchor = mtr_search::regular(&ev, &universe, &mtr_params_for(29, CONFIGS[0]));
    assert!(anchor.trace.contains(&MoveOutcome::Accept));
    for cfg in &CONFIGS[1..] {
        let out = mtr_search::regular(&ev, &universe, &mtr_params_for(29, *cfg));
        let cfg = format!("{cfg:?}");
        assert_eq!(anchor.best, out.best, "{cfg}");
        assert_eq!(anchor.best_cost, out.best_cost, "{cfg}");
        assert_eq!(anchor.trace, out.trace, "{cfg}");
        assert_eq!(anchor.archive.entries(), out.archive.entries(), "{cfg}");
        assert_eq!(anchor.store.total(), out.store.total(), "{cfg}");
        assert_eq!(anchor.stats.evaluations, out.stats.evaluations, "{cfg}");
        assert_eq!(anchor.converged, out.converged, "{cfg}");
    }
}

#[test]
fn mtr_robust_trajectory_is_invariant() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(31, CONFIGS[0]));
    let scenarios = universe.scenarios();
    let run = |cfg: (usize, usize, bool, bool)| {
        mtr_robust::run(
            &ev,
            &scenarios,
            &mtr_params_for(31, cfg),
            &reg.best_cost,
            &reg.archive,
            None,
        )
    };
    let anchor = run(CONFIGS[0]);
    assert_eq!(anchor.stats.scenario_evals_skipped, 0);
    let mut saw_skip = false;
    for cfg in &CONFIGS[1..] {
        let out = run(*cfg);
        let cfg = format!("{cfg:?}");
        assert_eq!(anchor.best, out.best, "{cfg}");
        assert_eq!(anchor.best_kfail, out.best_kfail, "{cfg}");
        assert_eq!(anchor.best_normal, out.best_normal, "{cfg}");
        assert_eq!(
            anchor.constraint_rejections, out.constraint_rejections,
            "{cfg}"
        );
        assert_eq!(anchor.trace, out.trace, "{cfg}");
        assert_eq!(anchor.stats.evaluations, out.stats.evaluations, "{cfg}");
        assert_eq!(
            out.stats.scenario_evals_skipped,
            out.stats.skipped_floor + out.stats.skipped_cache + out.stats.skipped_cutoff,
            "{cfg}: skip counters do not partition the total"
        );
        saw_skip |= out.stats.scenario_evals_skipped > 0;
    }
    assert!(
        saw_skip,
        "the MTR cutoff never skipped a scenario evaluation"
    );
}

/// The MTR run of [`phase2_portfolio_is_thread_invariant`]: the
/// robust portfolio run is bit-for-bit reproducible at any thread count
/// and speculation window, with the sharded refresh on (`threads = 4`)
/// or off (`threads = 1`).
#[test]
fn mtr_robust_portfolio_is_thread_invariant() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(41, CONFIGS[0]));
    let scenarios = universe.scenarios();
    let run = |replicas: usize, threads: usize, speculation: usize| {
        let params = MtrParams {
            portfolio: PortfolioParams {
                replicas,
                rendezvous_period: 4,
            },
            ..mtr_params_for(41, (speculation, threads, true, true))
        };
        mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None)
    };
    let assert_same = |a: &dtr::mtr::robust::MtrRobustOutput,
                       b: &dtr::mtr::robust::MtrRobustOutput,
                       cfg: &str| {
        assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
        assert_eq!(a.best_kfail, b.best_kfail, "{cfg}: kfail diverged");
        assert_eq!(a.best_normal, b.best_normal, "{cfg}: normal cost diverged");
        assert_eq!(a.constraint_rejections, b.constraint_rejections, "{cfg}");
        assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
        assert_eq!(a.replica_traces, b.replica_traces, "{cfg}");
        assert_eq!(a.stats.iterations, b.stats.iterations, "{cfg}");
        assert_eq!(a.stats.evaluations, b.stats.evaluations, "{cfg}");
        assert_eq!(a.stats.diversifications, b.stats.diversifications, "{cfg}");
    };

    // replicas == 1 stays the classic robust search, bit for bit.
    let classic = mtr_robust::run(
        &ev,
        &scenarios,
        &mtr_params_for(41, (1, 1, true, true)),
        &reg.best_cost,
        &reg.archive,
        None,
    );
    let single = run(1, 4, 8);
    assert_same(&classic, &single, "replicas=1 == classic");
    assert!(single.replica_traces.is_empty());

    // replicas == 3: identical output across the thread/speculation
    // grid, including every replica's full accept/reject trace.
    let anchor = run(3, 1, 1);
    assert_eq!(anchor.replica_traces.len(), 3);
    assert!(
        anchor.replica_traces.contains(&anchor.trace),
        "the reported trace must be the winning replica's"
    );
    for (threads, speculation) in [(1usize, 8usize), (4, 1), (4, 8)] {
        let cfg = format!("mtr portfolio threads={threads} K={speculation}");
        let out = run(3, threads, speculation);
        assert_same(&anchor, &out, &cfg);
    }
}

/// Kill/restore/continue bit-identity for the MTR robust search, with
/// the cutoff off and on (the cutoff-on restore rebuilds the delta-state
/// cache from the snapshot's incumbent).
#[test]
fn mtr_robust_kill_restore_continue_is_bit_identical() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(37, CONFIGS[0]));
    let scenarios = universe.scenarios();

    for cfg in [(1, 1, false, false), (1, 1, true, true), (8, 4, true, true)] {
        let params = MtrParams {
            checkpoint_every: 1,
            ..mtr_params_for(37, cfg)
        };
        let full = mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(full.terminated, Terminated::Converged);

        for kill in [1u64, 4, 9] {
            let mut sink = MemorySink::new();
            let mut ctl = RunControl {
                sink: Some(&mut sink),
                kill_after: Some(kill),
            };
            let killed = mtr_robust::run_controlled(
                &ev,
                &scenarios,
                &params,
                &reg.best_cost,
                &reg.archive,
                None,
                &mut ctl,
            )
            .unwrap();
            let label = format!("{cfg:?} kill {kill}");
            if killed.terminated == Terminated::Converged {
                assert_eq!(killed.best, full.best, "{label}: converged-before-kill");
                continue;
            }
            let snap = sink.latest().unwrap().to_vec();
            let resumed = mtr_robust::resume(
                &ev,
                &scenarios,
                &params,
                &reg.best_cost,
                None,
                &snap,
                &mut RunControl::none(),
            )
            .expect("snapshot restores");
            assert!(
                matches!(
                    resumed.terminated,
                    Terminated::Converged | Terminated::Restored
                ),
                "{label}: {:?}",
                resumed.terminated
            );
            assert_eq!(full.best, resumed.best, "{label}: best setting diverged");
            assert_eq!(full.best_kfail, resumed.best_kfail, "{label}");
            assert_eq!(full.best_normal, resumed.best_normal, "{label}");
            assert_eq!(
                full.constraint_rejections, resumed.constraint_rejections,
                "{label}"
            );
            assert_eq!(full.trace, resumed.trace, "{label}: accept/reject diverged");
            assert_eq!(
                masked_stats(&full.stats),
                masked_stats(&resumed.stats),
                "{label}: stats diverged beyond the cache gauges"
            );
        }
    }
}

#[test]
fn mtr_portfolio_kill_restore_continue_is_bit_identical() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(43, CONFIGS[0]));
    let scenarios = universe.scenarios();
    let params = MtrParams {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        checkpoint_every: 1,
        ..mtr_params_for(43, (8, 4, true, true))
    };
    let full = mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
    assert_eq!(full.replica_traces.len(), 3);

    for kill in [1u64, 2] {
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(kill),
        };
        let killed = mtr_robust::run_controlled(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            &reg.archive,
            None,
            &mut ctl,
        )
        .unwrap();
        assert_eq!(killed.terminated, Terminated::Deadline, "kill {kill}");
        let snap = sink.latest().unwrap().to_vec();
        let resumed = mtr_robust::resume(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            None,
            &snap,
            &mut RunControl::none(),
        )
        .unwrap();
        let label = format!("mtr portfolio kill {kill}");
        assert_eq!(full.best, resumed.best, "{label}");
        assert_eq!(full.best_kfail, resumed.best_kfail, "{label}");
        assert_eq!(full.best_normal, resumed.best_normal, "{label}");
        assert_eq!(full.trace, resumed.trace, "{label}");
        assert_eq!(full.replica_traces, resumed.replica_traces, "{label}");
        assert_eq!(
            masked_stats(&full.stats),
            masked_stats(&resumed.stats),
            "{label}"
        );
    }
}

/// The MTR run of [`phase2_resumed_checkpoints_are_byte_identical`]:
/// with the cutoff off, every snapshot a resumed run writes is
/// byte-identical to the uninterrupted run's at the same boundary.
#[test]
fn mtr_resumed_checkpoints_are_byte_identical() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(47, CONFIGS[0]));
    let scenarios = universe.scenarios();
    let params = MtrParams {
        checkpoint_every: 1,
        ..mtr_params_for(47, (1, 1, false, false))
    };
    let run = |ctl: &mut RunControl<'_>| {
        mtr_robust::run_controlled(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            &reg.archive,
            None,
            ctl,
        )
        .unwrap()
    };

    let mut full_sink = MemorySink::new();
    let full = run(&mut RunControl::with_sink(&mut full_sink));
    assert!(full_sink.snapshots.len() >= 4, "run too short to straddle");

    let kill = (full_sink.snapshots.len() / 2) as u64;
    let mut sink = MemorySink::new();
    run(&mut RunControl {
        sink: Some(&mut sink),
        kill_after: Some(kill),
    });
    let snap = sink.latest().unwrap().to_vec();
    let mut resume_sink = MemorySink::new();
    let resumed = mtr_robust::resume(
        &ev,
        &scenarios,
        &params,
        &reg.best_cost,
        None,
        &snap,
        &mut RunControl::with_sink(&mut resume_sink),
    )
    .unwrap();
    assert_eq!(full.best, resumed.best, "resumed");
    assert_eq!(full.trace, resumed.trace, "resumed");

    let tail = &full_sink.snapshots[kill as usize..];
    assert_eq!(resume_sink.snapshots.len(), tail.len());
    for (i, (a, b)) in tail.iter().zip(&resume_sink.snapshots).enumerate() {
        assert_eq!(
            a,
            b,
            "snapshot at boundary {} differs",
            kill as usize + i + 1
        );
    }
}
