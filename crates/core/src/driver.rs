//! The robust-search driver — one local search over a critical failure
//! set, bounded by the normal-conditions constraints, shared by DTR
//! Phase 2 ([`crate::phase2`]) and the k-class MTR robust phase
//! (`dtr_mtr::robust`).
//!
//! Both minimize a compound failure cost (the sum, optionally
//! probability-weighted, of per-scenario costs over the critical set)
//! subject to a feasibility gate on the candidate's normal-conditions
//! cost (Eqs. 5–6, or their per-class generalization). Everything that
//! differs between the engines — cost, weight and move types, the gate,
//! the evaluator calls, the delta-state cache and the snapshot encoding
//! of costs and weights — sits behind [`RobustEngine`]; everything else
//! lives here once: the per-replica chain state, the sweep body, the
//! boundary-driven driver, the portfolio rendezvous and the snapshot
//! codec.
//!
//! # The batched + cutoff kernel
//!
//! The hill climber itself — not the per-evaluation engine — is the hot
//! loop at paper scale, so both of its costs are restructured around the
//! facts that the RNG move stream is deterministic and that the compound
//! cost is a non-negative weighted sum:
//!
//! * **Speculative batched moves** — the next `K` candidate moves of a
//!   sweep are pre-drawn and their normal-conditions costs evaluated
//!   concurrently on pooled workspaces
//!   ([`crate::search::speculative_sweep`]); acceptance is replayed
//!   serially in draw order and speculation past the first accepted move
//!   is discarded. Most moves die at the constraint gate, so the
//!   speculated costs are almost never wasted.
//! * **Monotone early-cutoff sweeps** — a candidate that survives the
//!   gate pays the critical-set failure sweep through an
//!   incumbent-bounded kernel ([`RobustEngine::bounded_sweep`]), which
//!   abandons the sweep as soon as the partial fold *proves* the
//!   candidate cannot beat the incumbent (scenarios are evaluated
//!   highest-excess-over-floor under the incumbent first to make that
//!   proof fire early). Skipped evaluations land in
//!   [`SearchStats::scenario_evals_skipped`].
//!
//! Both mechanisms are float-exact: accepted moves always complete their
//! sweep (whose index-order reduction is bit-for-bit the plain fold), and
//! the cutoff only fires on moves the full sweep would reject. The best
//! setting, its costs, and the full accept/reject sequence are therefore
//! identical for every speculation window, thread count, and cutoff
//! setting — pinned by `tests/search_equivalence.rs`.
//!
//! Under the cutoff every failure sweep runs through the engine's
//! **delta-state scenario cache**, pointed at the incumbent: per
//! scenario, only destinations whose effective routing the candidate
//! diff really moves are repaired from the resident incumbent state. A
//! byte budget bounds the cache; non-resident scenarios take the plain
//! path, which returns the same bits.

use std::time::{Duration, Instant};

use dtr_net::{LinkId, Network};
use dtr_persist::{CheckpointSink, Decoder, Encoder, SnapshotError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::parallel::{self, Sweep, SweepScratch};
use crate::params::{replica_seed, PortfolioParams};
use crate::search::{
    speculative_sweep, Archive, Decision, Fingerprint, MoveOutcome, SearchCost, SearchStats,
    SpecBuffers, StopRule, Terminated,
};

/// The engine-independent knobs of a robust search, taken from
/// `Params` (DTR) or `MtrParams` (MTR); the field meanings are those of
/// the same-named fields there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustParams {
    /// Maximum IGP weight.
    pub wmax: u32,
    /// Stop-rule relative-improvement threshold.
    pub c: f64,
    /// Stop-rule trailing diversification window.
    pub p2: usize,
    /// Stale sweeps before a diversification restart.
    pub div_interval_2: usize,
    /// Archive capacity.
    pub archive_size: usize,
    /// Sweep backstop per chain.
    pub max_iterations: usize,
    /// Worker threads (results are identical for every value).
    pub threads: usize,
    /// Speculation window `K` (results are identical for every value).
    pub speculation: usize,
    /// Incumbent-bounded sweeps through the delta-state cache.
    pub cutoff: bool,
    /// Load-aware Φ component in the per-scenario floors.
    pub phi_floors: bool,
    /// Record the per-proposal accept/reject trace.
    pub record_trace: bool,
    /// Portfolio/replica search shape.
    pub portfolio: PortfolioParams,
    /// Residency budget of the delta-state cache.
    pub cache_budget_bytes: usize,
    /// Wall-clock deadline, checked at boundaries only.
    pub deadline_ms: Option<u64>,
    /// Checkpoint cadence in boundaries (0 = never).
    pub checkpoint_every: usize,
    /// Master RNG seed.
    pub seed: u64,
}

/// What an engine plugs into the driver: its cost, weight and move
/// types, the feasibility gate, the failure sweeps, the delta-state
/// cache and the snapshot encoding of its values. An engine value binds
/// one evaluator to one critical scenario list (positions `0..len()`)
/// and the normal-conditions benchmark the gate compares against.
pub trait RobustEngine: Sync {
    /// A complete weight setting.
    type Weights: Clone + Fingerprint + Send + Sync;
    /// Lexicographic (compound) cost.
    type Cost: SearchCost + Send + Sync;
    /// New weights of one physical link (one per class).
    type Move: PartialEq + Send + Sync;
    /// Weight-independent lower bound of one scenario's cost.
    type Floor: Send + Sync;
    /// Delta-state scenario cache pointed at the incumbent.
    type Cache: Send + Sync;

    /// Snapshot kind tag (`dtr_persist::KIND_*`).
    const KIND: u32;
    /// Whether a diversification restart point that passes the gate and
    /// beats the best k-failure cost becomes the new best (the MTR rule;
    /// DTR's best only ever advances on accepted moves).
    const PROMOTE_RESTARTS: bool;

    /// The network under optimization.
    fn net(&self) -> &Network;
    /// Number of critical scenarios.
    fn len(&self) -> usize;
    /// `true` when the critical set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Components of [`Self::Cost`] (the evaluation-order key length).
    fn num_components(&self) -> usize;

    /// Draw a uniform move in `[1, wmax]` per class.
    fn draw(&self, wmax: u32, rng: &mut StdRng) -> Self::Move;
    /// The current weights of the physical link `rep`.
    fn read(&self, w: &Self::Weights, rep: LinkId) -> Self::Move;
    /// Set the physical link `rep` (both directions) to `mv`.
    fn apply(&self, w: &mut Self::Weights, rep: LinkId, mv: &Self::Move);

    /// Normal-conditions cost.
    fn normal_cost(&self, w: &Self::Weights) -> Self::Cost;
    /// The constraint gate on a normal-conditions cost.
    fn feasible(&self, normal: &Self::Cost) -> bool;
    /// Plain costs of `w` at the scenario `positions` (the eager seed
    /// prefix of a bounded sweep).
    fn seed_costs(&self, w: &Self::Weights, positions: &[u32]) -> Vec<(u32, Self::Cost)>;
    /// Plain compound cost over every position, `threads` workers.
    fn sum_costs(&self, w: &Self::Weights, threads: usize) -> Self::Cost;
    /// Index-order (weighted) fold of per-position costs — bit-for-bit
    /// [`Self::sum_costs`]'s reduction.
    fn fold(&self, costs: &[Self::Cost]) -> Self::Cost;
    /// Component `k` of position `pos`'s (weighted) excess over its
    /// floor — the evaluation-order key.
    fn excess(&self, pos: usize, cost: &Self::Cost, floor: &Self::Floor, k: usize) -> f64;
    /// Per-position floors (Λ, plus the load-aware Φ when `phi_floors`).
    fn floors(&self, phi_floors: bool) -> Vec<Self::Floor>;

    /// An empty cache under `budget_bytes`.
    fn new_cache(&self, budget_bytes: usize) -> Self::Cache;
    /// Leading positions resident in the cache.
    fn resident(&self, cache: &Self::Cache) -> usize;
    /// Capture the cache on `w`, writing every position's exact cost.
    fn rebuild_cache(
        &self,
        w: &Self::Weights,
        threads: usize,
        cache: &mut Self::Cache,
        costs: &mut Vec<Self::Cost>,
    );
    /// Re-point the cache at the accepted incumbent `w`.
    fn refresh_cache(&self, w: &Self::Weights, threads: usize, cache: &mut Self::Cache);
    /// Incumbent-bounded sweep of candidate `w` through the cache.
    #[allow(clippy::too_many_arguments)]
    fn bounded_sweep(
        &self,
        w: &Self::Weights,
        threads: usize,
        incumbent: &Self::Cost,
        order: &[u32],
        seeds: &[(u32, Self::Cost)],
        floors: &[Self::Floor],
        cache: &mut Self::Cache,
        scratch: &mut SweepScratch<Self::Cost>,
    ) -> Sweep<Self::Cost>;

    /// Append `w` to a snapshot.
    fn put_weights(&self, enc: &mut Encoder, w: &Self::Weights);
    /// Read a setting written by [`Self::put_weights`], validated
    /// against the network and `wmax`.
    fn take_weights(&self, rd: &mut Decoder<'_>, wmax: u32)
        -> Result<Self::Weights, SnapshotError>;
    /// Append a cost to a snapshot.
    fn put_cost(&self, enc: &mut Encoder, c: &Self::Cost);
    /// Read a cost written by [`Self::put_cost`].
    fn take_cost(&self, rd: &mut Decoder<'_>) -> Result<Self::Cost, SnapshotError>;
    /// Append the engine's config fingerprint (gate parameters and the
    /// normal-conditions benchmark).
    fn put_config_tail(&self, enc: &mut Encoder);
    /// Check (or, where the resuming caller does not supply it, adopt)
    /// the fingerprint written by [`Self::put_config_tail`].
    fn take_config_tail(&mut self, rd: &mut Decoder<'_>) -> Result<(), SnapshotError>;
}

/// Result of a robust search.
#[derive(Clone, Debug)]
pub struct RobustOutput<W, C> {
    /// The robust weight setting.
    pub best: W,
    /// Its compound failure cost over the critical set.
    pub best_kfail: C,
    /// Its normal-conditions cost (passes the constraint gate).
    pub best_normal: C,
    /// Moves rejected by the normal-conditions constraints (cheap
    /// rejections — they skip the failure sweep).
    pub constraint_rejections: usize,
    /// Per-proposal accept/reject sequence (empty unless
    /// `record_trace`). In a portfolio run this is the winning
    /// replica's trace.
    pub trace: Vec<MoveOutcome>,
    /// Per-replica accept/reject traces of a portfolio run, in replica
    /// index order (empty unless `record_trace` and
    /// `portfolio.replicas > 1`). Bit-for-bit reproducible for a given
    /// `(seed, replicas, rendezvous_period)` at any thread count — the
    /// parallel-search contract in `DETERMINISM.md`.
    pub replica_traces: Vec<Vec<MoveOutcome>>,
    /// Effort spent (portfolio runs merge per-replica stats in replica
    /// index order via [`SearchStats::merge`]).
    pub stats: SearchStats,
    /// Why the run returned (convergence, deadline/kill, or an
    /// already-terminal restored snapshot). Never affects *what* is
    /// returned — see "The checkpoint contract" in `DETERMINISM.md`.
    pub terminated: Terminated,
}

/// External control of a robust search run: an optional checkpoint
/// sink fed every `checkpoint_every` boundaries, and a deterministic
/// kill-point for the fault-injection harness.
///
/// A *boundary* is one chain sweep for a single-chain run and one
/// rendezvous (fan-out + elite merge) for a portfolio run — the only
/// points where all chain state is consistent, hence the only points
/// where snapshots are taken and termination is decided.
pub struct RunControl<'a> {
    /// Where checkpoints go. `None` disables checkpointing even when
    /// `checkpoint_every` is set.
    pub sink: Option<&'a mut dyn CheckpointSink>,
    /// Deterministic kill-point: stop (as if the deadline fired) once
    /// this many boundaries have completed, counted across restores —
    /// so a resumed run's kill indices stay globally aligned with an
    /// uninterrupted run's.
    pub kill_after: Option<u64>,
}

impl<'a> RunControl<'a> {
    /// No checkpointing, no kill-point: plain `run` behaviour.
    pub fn none() -> Self {
        RunControl {
            sink: None,
            kill_after: None,
        }
    }

    /// Checkpoint into `sink` every `checkpoint_every` boundaries.
    pub fn with_sink(sink: &'a mut dyn CheckpointSink) -> Self {
        RunControl {
            sink: Some(sink),
            kill_after: None,
        }
    }
}

/// Evaluation-order state of the cutoff sweeps: positions,
/// highest-excess-under-the-incumbent first, the shared per-position
/// cost scratch, the per-position floors that stand in for scenarios a
/// bounded sweep has not reached yet, and the delta-state cache.
struct SweepState<E: RobustEngine> {
    order: Vec<u32>,
    scratch: SweepScratch<E::Cost>,
    floors: Vec<E::Floor>,
    cache: E::Cache,
}

impl<E: RobustEngine> SweepState<E> {
    /// Floors are only computed when the cutoff will read them; they
    /// depend only on (topology, traffic, mask, cost parameters) —
    /// never on the weights under search — so one computation stays
    /// valid for the whole run.
    fn new(e: &E, params: &RobustParams) -> Self {
        SweepState {
            order: (0..e.len() as u32).collect(),
            scratch: SweepScratch::new(),
            floors: if params.cutoff {
                e.floors(params.phi_floors)
            } else {
                Vec::new()
            },
            cache: e.new_cache(params.cache_budget_bytes),
        }
    }

    /// Re-sort the evaluation order by the incumbent's per-scenario
    /// (weighted) excess over its floor, componentwise descending, ties
    /// by position — so the order, and therefore the deterministic skip
    /// accounting, is fully pinned. The floors already stand in for
    /// unevaluated scenarios, so what advances a bounded sweep's partial
    /// fold toward the incumbent is exactly each evaluated scenario's
    /// excess; front-loading the largest excesses makes a losing
    /// candidate's proof fire as early as possible.
    fn refresh(&mut self, e: &E) {
        let (costs, floors) = (&self.scratch.costs, &self.floors);
        let key = |pos: u32, k: usize| {
            let p = pos as usize;
            e.excess(p, &costs[p], &floors[p], k)
        };
        self.order.sort_by(|&a, &b| {
            for k in 0..e.num_components() {
                let o = key(b, k).total_cmp(&key(a, k));
                if o.is_ne() {
                    return o;
                }
            }
            a.cmp(&b)
        });
    }
}

/// Full compound sweep (init, diversification restarts): bit-for-bit
/// [`RobustEngine::sum_costs`]. Under the cutoff it rebuilds the
/// delta-state cache on `w`, whose capture sweep also refreshes the
/// per-position costs and the evaluation order.
fn full_sweep<E: RobustEngine>(
    e: &E,
    params: &RobustParams,
    w: &E::Weights,
    stats: &mut SearchStats,
    st: &mut SweepState<E>,
) -> E::Cost {
    stats.evaluations += e.len();
    if !params.cutoff {
        return e.sum_costs(w, params.threads);
    }
    e.rebuild_cache(w, params.threads, &mut st.cache, &mut st.scratch.costs);
    let resident = e.resident(&st.cache);
    stats.cache_resident_scenarios = stats.cache_resident_scenarios.max(resident);
    stats.cache_fallback_evals += e.len() - resident;
    let kfail = e.fold(&st.scratch.costs);
    st.refresh(e);
    kfail
}

/// The candidate cost the speculative fan-out hands back: the
/// normal-conditions cost plus the eager failure-sweep seed prefix
/// (empty for gate-failing candidates and for serial or cutoff-off
/// runs — see the bounded kernels' seed contract).
type SpecCost<C> = (C, Vec<(u32, C)>);

/// One replica's persistent search state: everything the classic
/// single-chain loop keeps across sweeps, owned per replica so portfolio
/// chains can run concurrently between rendezvous (the parallel-search
/// contract in `DETERMINISM.md`). `params` is the replica-local copy —
/// derived master seed, `1/replicas` share of the worker threads; every
/// other knob matches the run's. With `replicas == 1` the chain *is* the
/// classic search, bit for bit.
struct Chain<E: RobustEngine> {
    params: RobustParams,
    rng: StdRng,
    stats: SearchStats,
    constraint_rejections: usize,
    trace: Vec<MoveOutcome>,
    st: SweepState<E>,
    current: E::Weights,
    current_normal: E::Cost,
    current_kfail: E::Cost,
    best: E::Weights,
    best_kfail: E::Cost,
    best_normal: E::Cost,
    stop: StopRule<E::Cost>,
    reps: Vec<LinkId>,
    stale_sweeps: usize,
    spec: SpecBuffers<E::Weights, E::Move, SpecCost<E::Cost>>,
    seed_prefix: Vec<u32>,
    /// Replica-local archive (a clone of the normal-conditions phase's):
    /// diversification restarts sample from it, and rendezvous merges
    /// offer the other replicas' elites into it in replica index order.
    archive: Archive<E::Weights, E::Cost>,
    done: bool,
}

impl<E: RobustEngine> Chain<E> {
    /// Start a chain from the best archived setting (initial full sweep
    /// included).
    fn new(e: &E, params: RobustParams, archive: &Archive<E::Weights, E::Cost>) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0x2545_f491_4f6c_dd1d);
        let mut stats = SearchStats::default();
        let mut st = SweepState::new(e, &params);
        let archive = archive.clone();
        let (current, current_normal) = archive
            .best()
            .cloned()
            .expect("the normal-conditions phase archives at least its best setting");
        let current_kfail = full_sweep(e, &params, &current, &mut stats, &mut st);
        Chain {
            rng,
            stats,
            constraint_rejections: 0,
            trace: Vec::new(),
            st,
            best: current.clone(),
            best_kfail: current_kfail.clone(),
            best_normal: current_normal.clone(),
            current,
            current_normal,
            current_kfail,
            stop: StopRule::new(params.p2, params.c),
            reps: e.net().duplex_representatives(),
            stale_sweeps: 0,
            spec: SpecBuffers::new(),
            seed_prefix: Vec::new(),
            archive,
            done: false,
            params,
        }
    }

    /// Finish a single-chain run (no portfolio).
    fn into_output(self, terminated: Terminated) -> RobustOutput<E::Weights, E::Cost> {
        RobustOutput {
            best: self.best,
            best_kfail: self.best_kfail,
            best_normal: self.best_normal,
            constraint_rejections: self.constraint_rejections,
            trace: self.trace,
            replica_traces: Vec::new(),
            stats: self.stats,
            terminated,
        }
    }
}

/// Replica `r`'s parameter block: the run's own for a single chain;
/// otherwise a derived seed and an equal share of the worker threads.
fn chain_params(params: &RobustParams, r: usize) -> RobustParams {
    let replicas = params.portfolio.replicas;
    if replicas == 1 {
        return *params;
    }
    RobustParams {
        seed: replica_seed(params.seed, r),
        threads: (params.threads / replicas).max(1),
        ..*params
    }
}

// ---------------------------------------------------------------------
// Snapshot codec ("The checkpoint contract", DETERMINISM.md).
//
// A snapshot captures every bit of chain state the trajectory depends
// on: the RNG stream position, current/best settings and costs, the
// stop-rule trailing history, the shuffled representative order, the
// replica-local archive, stats and trace. The delta-state scenario
// cache is NOT serialized: its entries are a pure function of the
// current incumbent, so restore rebuilds them with a capture sweep
// that is bit-identical to the refreshed cache it replaces (pinned by
// the cache equivalence suites); the per-position cost scratch and the
// evaluation order fall out of the same sweep, and the floors are
// weight-independent and recomputed.

const SEC_CONFIG: u32 = 0x10;
const SEC_CHAIN: u32 = 0x20;

fn put_stats(enc: &mut Encoder, s: &SearchStats) {
    enc.put_usize(s.iterations);
    enc.put_usize(s.evaluations);
    enc.put_usize(s.diversifications);
    enc.put_usize(s.scenario_evals_skipped);
    enc.put_usize(s.skipped_floor);
    enc.put_usize(s.skipped_cache);
    enc.put_usize(s.skipped_cutoff);
    enc.put_usize(s.speculative_wasted);
    enc.put_usize(s.cache_rebuild_evals);
    enc.put_usize(s.cache_resident_scenarios);
    enc.put_usize(s.cache_fallback_evals);
}

fn take_stats(rd: &mut Decoder<'_>) -> Result<SearchStats, SnapshotError> {
    Ok(SearchStats {
        iterations: rd.take_usize()?,
        evaluations: rd.take_usize()?,
        diversifications: rd.take_usize()?,
        scenario_evals_skipped: rd.take_usize()?,
        skipped_floor: rd.take_usize()?,
        skipped_cache: rd.take_usize()?,
        skipped_cutoff: rd.take_usize()?,
        speculative_wasted: rd.take_usize()?,
        cache_rebuild_evals: rd.take_usize()?,
        cache_resident_scenarios: rd.take_usize()?,
        cache_fallback_evals: rd.take_usize()?,
    })
}

/// Serialize one chain into an open snapshot. Steady-state
/// allocation-free: every write appends into the encoder's reusable
/// buffer, which stops growing once it has seen the largest snapshot
/// (registered in `crates/analysis/hot_paths.toml`, proven by
/// `tests/alloc_free.rs`).
fn encode_chain<E: RobustEngine>(enc: &mut Encoder, e: &E, ch: &Chain<E>) {
    enc.begin_section(SEC_CHAIN);
    for word in ch.rng.state() {
        enc.put_u64(word);
    }
    put_stats(enc, &ch.stats);
    enc.put_usize(ch.constraint_rejections);
    enc.put_usize(ch.trace.len());
    for m in &ch.trace {
        enc.put_u8(match m {
            MoveOutcome::ConstraintReject => 0,
            MoveOutcome::Reject => 1,
            MoveOutcome::Accept => 2,
        });
    }
    e.put_weights(enc, &ch.current);
    e.put_cost(enc, &ch.current_normal);
    e.put_cost(enc, &ch.current_kfail);
    e.put_weights(enc, &ch.best);
    e.put_cost(enc, &ch.best_kfail);
    e.put_cost(enc, &ch.best_normal);
    enc.put_usize(ch.stop.history().len());
    for c in ch.stop.history() {
        e.put_cost(enc, c);
    }
    enc.put_usize(ch.reps.len());
    for r in &ch.reps {
        enc.put_u32(r.index() as u32);
    }
    enc.put_usize(ch.stale_sweeps);
    enc.put_usize(ch.archive.len());
    for (w, normal) in ch.archive.entries() {
        e.put_weights(enc, w);
        e.put_cost(enc, normal);
    }
    enc.put_bool(ch.done);
    enc.end_section();
}

/// Rebuild one chain from an open snapshot. `params` is the
/// replica-local parameter block the resumed run would hand a fresh
/// chain. Decoding allocates freely — restore runs once, outside every
/// sweep kernel.
fn decode_chain<E: RobustEngine>(
    rd: &mut Decoder<'_>,
    e: &E,
    params: RobustParams,
) -> Result<Chain<E>, SnapshotError> {
    rd.section(SEC_CHAIN)?;
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = rd.take_u64()?;
    }
    let rng = StdRng::from_state(state);
    let mut stats = take_stats(rd)?;
    let constraint_rejections = rd.take_usize()?;
    let trace_len = rd.take_len(1)?;
    let mut trace = Vec::with_capacity(trace_len);
    for _ in 0..trace_len {
        trace.push(match rd.take_u8()? {
            0 => MoveOutcome::ConstraintReject,
            1 => MoveOutcome::Reject,
            2 => MoveOutcome::Accept,
            _ => return Err(SnapshotError::Corrupt("move outcome out of range")),
        });
    }
    let num_links = e.net().num_links();
    let current = e.take_weights(rd, params.wmax)?;
    let current_normal = e.take_cost(rd)?;
    let current_kfail = e.take_cost(rd)?;
    let best = e.take_weights(rd, params.wmax)?;
    let best_kfail = e.take_cost(rd)?;
    let best_normal = e.take_cost(rd)?;
    // Every encoded cost is at least 8 bytes.
    let hist_len = rd.take_len(8)?;
    let mut history = Vec::with_capacity(hist_len);
    for _ in 0..hist_len {
        history.push(e.take_cost(rd)?);
    }
    let mut stop = StopRule::new(params.p2, params.c);
    stop.restore_history(history);
    let reps_len = rd.take_len(4)?;
    let mut reps = Vec::with_capacity(reps_len);
    for _ in 0..reps_len {
        let x = rd.take_u32()? as usize;
        if x >= num_links {
            return Err(SnapshotError::Corrupt("representative link out of range"));
        }
        reps.push(LinkId::new(x));
    }
    let stale_sweeps = rd.take_usize()?;
    let arch_len = rd.take_len(8)?;
    let mut archive = Archive::new(params.archive_size);
    for _ in 0..arch_len {
        let w = e.take_weights(rd, params.wmax)?;
        let normal = e.take_cost(rd)?;
        // Entries were stored best-first, so re-offering in order
        // reproduces the archive exactly (each entry appends; the
        // fingerprints are recomputed).
        archive.offer(&w, normal);
    }
    let done = rd.take_bool()?;

    // Rebuild the evaluation-order state. The delta-state cache is a
    // pure function of the restored incumbent: a capture sweep over
    // `current` reproduces, bit for bit, the entries and per-position
    // costs the refreshed cache held at the checkpoint, and the floors
    // are weight-independent. The physical re-evaluations are
    // attributed to `cache_rebuild_evals`, never to the logical
    // `evaluations`.
    let mut st = SweepState::new(e, &params);
    if params.cutoff && !e.is_empty() {
        e.rebuild_cache(
            &current,
            params.threads,
            &mut st.cache,
            &mut st.scratch.costs,
        );
        stats.cache_rebuild_evals += e.len();
        stats.cache_resident_scenarios = stats.cache_resident_scenarios.max(e.resident(&st.cache));
        st.refresh(e);
    }
    Ok(Chain {
        params,
        rng,
        stats,
        constraint_rejections,
        trace,
        st,
        current,
        current_normal,
        current_kfail,
        best,
        best_kfail,
        best_normal,
        stop,
        reps,
        stale_sweeps,
        spec: SpecBuffers::new(),
        seed_prefix: Vec::new(),
        archive,
        done,
    })
}

/// Write the whole run state (config fingerprint + every chain) into
/// `enc`, leaving it ready for `finish()`. Steady-state
/// allocation-free like [`encode_chain`].
fn encode_snapshot<E: RobustEngine>(
    enc: &mut Encoder,
    e: &E,
    params: &RobustParams,
    boundary: u64,
    chains: &[Chain<E>],
) {
    enc.begin(E::KIND);
    enc.begin_section(SEC_CONFIG);
    enc.put_u64(params.seed);
    enc.put_usize(params.portfolio.replicas);
    enc.put_usize(params.portfolio.rendezvous_period);
    enc.put_usize(e.len());
    enc.put_usize(e.net().num_links());
    enc.put_u32(params.wmax);
    enc.put_usize(params.p2);
    enc.put_f64(params.c);
    enc.put_usize(params.div_interval_2);
    enc.put_usize(params.max_iterations);
    enc.put_usize(params.archive_size);
    e.put_config_tail(enc);
    enc.put_u64(boundary);
    enc.put_usize(chains.len());
    enc.end_section();
    for ch in chains {
        encode_chain(enc, e, ch);
    }
}

/// Check the stored config fingerprint against the resuming run and
/// recover the boundary counter. Only trajectory-determining knobs are
/// fingerprinted: `threads`, `speculation`, `cutoff`, `phi_floors` and
/// the cache budget may all legally differ between the saving and the
/// resuming process — the determinism contract makes the continued
/// trajectory identical regardless.
fn decode_config<E: RobustEngine>(
    rd: &mut Decoder<'_>,
    e: &mut E,
    params: &RobustParams,
) -> Result<u64, SnapshotError> {
    rd.section(SEC_CONFIG)?;
    let mismatch = |what| Err(SnapshotError::Mismatch(what));
    if rd.take_u64()? != params.seed {
        return mismatch("seed differs");
    }
    if rd.take_usize()? != params.portfolio.replicas {
        return mismatch("replica count differs");
    }
    if rd.take_usize()? != params.portfolio.rendezvous_period {
        return mismatch("rendezvous period differs");
    }
    if rd.take_usize()? != e.len() {
        return mismatch("critical-set size differs");
    }
    if rd.take_usize()? != e.net().num_links() {
        return mismatch("link count differs");
    }
    if rd.take_u32()? != params.wmax {
        return mismatch("wmax differs");
    }
    if rd.take_usize()? != params.p2 {
        return mismatch("stop window differs");
    }
    if rd.take_f64()?.to_bits() != params.c.to_bits() {
        return mismatch("stop threshold differs");
    }
    if rd.take_usize()? != params.div_interval_2 {
        return mismatch("diversification interval differs");
    }
    if rd.take_usize()? != params.max_iterations {
        return mismatch("iteration cap differs");
    }
    if rd.take_usize()? != params.archive_size {
        return mismatch("archive size differs");
    }
    e.take_config_tail(rd)?;
    let boundary = rd.take_u64()?;
    if rd.take_usize()? != params.portfolio.replicas {
        return Err(SnapshotError::Corrupt("chain count differs from replicas"));
    }
    Ok(boundary)
}

/// Boundary bookkeeping: checkpoint when the cadence is due, then
/// decide whether the run ends here (injected kill-point or wall-clock
/// deadline). The decision only reads *whether* to stop — never which
/// move to accept — so every prefix of the trajectory matches an
/// uncontrolled run's bit for bit.
fn at_boundary<E: RobustEngine>(
    enc: &mut Encoder,
    e: &E,
    params: &RobustParams,
    boundary: u64,
    chains: &[Chain<E>],
    deadline: Option<Instant>,
    ctl: &mut RunControl<'_>,
) -> Result<Option<Terminated>, SnapshotError> {
    if params.checkpoint_every != 0 && boundary.is_multiple_of(params.checkpoint_every as u64) {
        if let Some(sink) = ctl.sink.as_mut() {
            encode_snapshot(enc, e, params, boundary, chains);
            sink.store(enc.finish())?;
        }
    }
    if ctl.kill_after.is_some_and(|k| boundary >= k) {
        return Ok(Some(Terminated::Deadline));
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Ok(Some(Terminated::Deadline));
    }
    Ok(None)
}

/// Boundary-driven driver behind [`run_controlled`] and [`resume`]:
/// sweeps chains between boundaries, checkpoints and decides
/// termination only at boundaries, and assembles the output.
fn drive<E: RobustEngine>(
    e: &E,
    params: &RobustParams,
    mut chains: Vec<Chain<E>>,
    start_boundary: u64,
    restored: bool,
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Weights, E::Cost>, SnapshotError> {
    let deadline = params
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut enc = Encoder::new();
    let mut boundary = start_boundary;
    let mut terminated = if restored && chains.iter().all(|c| c.done) {
        Terminated::Restored
    } else {
        Terminated::Converged
    };

    if params.portfolio.replicas == 1 {
        let mut ch = chains.pop().expect("exactly one chain");
        if !e.is_empty() {
            while !ch.done {
                chain_sweep(e, &mut ch);
                boundary += 1;
                if let Some(t) = at_boundary(
                    &mut enc,
                    e,
                    params,
                    boundary,
                    std::slice::from_ref(&ch),
                    deadline,
                    ctl,
                )? {
                    terminated = t;
                    break;
                }
            }
        }
        return Ok(ch.into_output(terminated));
    }

    // Portfolio search (parallel-search contract, `DETERMINISM.md`):
    // independent chains from distinct derived seeds, each granted an
    // equal share of the worker threads, exchanging archive elites at
    // fixed rendezvous points. Every cross-replica step — elite
    // collection, archive offers, the final winner pick and stat
    // merge — happens in replica index order on the coordinating
    // thread, so the output depends only on
    // `(seed, replicas, rendezvous_period)`, never on thread count.
    if !e.is_empty() {
        let mut elites: Vec<(E::Weights, E::Cost)> = Vec::new();
        while chains.iter().any(|c| !c.done) {
            parallel::scoped_fanout(
                chains.iter_mut().filter(|c| !c.done).collect(),
                |ch: &mut Chain<E>| {
                    for _ in 0..params.portfolio.rendezvous_period {
                        chain_sweep(e, ch);
                        if ch.done {
                            break;
                        }
                    }
                },
            );
            // Rendezvous: collect every replica's elite in index order,
            // then offer the batch into every archive in that same
            // order. `Archive::offer` dedups by fingerprint, so repeat
            // offers across rendezvous are no-ops and the merge is
            // idempotent.
            elites.clear();
            elites.extend(
                chains
                    .iter()
                    .map(|c| (c.best.clone(), c.best_normal.clone())),
            );
            for ch in chains.iter_mut() {
                for (w, normal) in &elites {
                    ch.archive.offer(w, normal.clone());
                }
            }
            boundary += 1;
            if let Some(t) = at_boundary(&mut enc, e, params, boundary, &chains, deadline, ctl)? {
                terminated = t;
                break;
            }
        }
    }

    // Winner: best k-failure cost, lowest replica index on ties.
    let mut win = 0usize;
    for r in 1..chains.len() {
        if chains[r].best_kfail.better_than(&chains[win].best_kfail) {
            win = r;
        }
    }
    let mut stats = SearchStats::default();
    let mut constraint_rejections = 0usize;
    for c in &chains {
        stats.merge(&c.stats);
        constraint_rejections += c.constraint_rejections;
    }
    let mut replica_traces: Vec<Vec<MoveOutcome>> = Vec::new();
    if params.record_trace {
        replica_traces.extend(chains.iter_mut().map(|c| std::mem::take(&mut c.trace)));
    }
    let trace = replica_traces.get(win).cloned().unwrap_or_default();
    let winner = chains.swap_remove(win);
    Ok(RobustOutput {
        best: winner.best,
        best_kfail: winner.best_kfail,
        best_normal: winner.best_normal,
        constraint_rejections,
        trace,
        replica_traces,
        stats,
        terminated,
    })
}

/// One sweep of one chain — the robust loop body (speculative batched
/// moves, constraint gate, bounded failure sweeps, diversification and
/// the stop rule). Sets `ch.done` when the chain's stop rule or the
/// iteration backstop fires; a done chain is never swept again.
fn chain_sweep<E: RobustEngine>(e: &E, ch: &mut Chain<E>) {
    if ch.done {
        return;
    }
    if ch.stats.iterations >= ch.params.max_iterations {
        ch.done = true;
        return;
    }
    let params = ch.params;
    let n = e.len();
    let Chain {
        rng,
        stats,
        constraint_rejections,
        trace,
        st,
        current,
        current_normal,
        current_kfail,
        best,
        best_kfail,
        best_normal,
        stop,
        reps,
        stale_sweeps,
        spec,
        seed_prefix,
        archive,
        done,
        ..
    } = ch;

    stats.iterations += 1;
    reps.shuffle(rng);
    let mut improved = false;
    let mut wasted = 0usize;

    // Eager failure-sweep prefix (parallel-search contract,
    // `DETERMINISM.md`): alongside each gate-passing candidate's
    // normal-conditions cost, the speculative fan-out pre-computes the
    // first few scenarios of the bounded sweep's priority order on the
    // worker threads. The seeds substitute bit-identical values in the
    // bounded kernel, so a stale snapshot (the order re-sorts after an
    // accept) wastes at most the seed work, never changes bits.
    seed_prefix.clear();
    if params.threads > 1 && params.cutoff {
        let l = params.threads.min(st.order.len());
        seed_prefix.extend_from_slice(&st.order[..l]);
    }
    let seed_prefix: &[u32] = seed_prefix;

    speculative_sweep(
        reps,
        rng,
        params.speculation,
        params.threads,
        current,
        spec,
        &mut wasted,
        |rng| e.draw(params.wmax, rng),
        |w, rep| e.read(w, rep),
        |w, rep, mv| e.apply(w, rep, mv),
        |w| {
            let normal = e.normal_cost(w);
            let seeds = if !seed_prefix.is_empty() && e.feasible(&normal) {
                e.seed_costs(w, seed_prefix)
            } else {
                Vec::new()
            };
            (normal, seeds)
        },
        |cand_w, _rep, cost: &SpecCost<E::Cost>| {
            let (normal, seeds) = cost;
            // Cheap constraint gate: one normal-conditions evaluation
            // (speculated ahead of the replay cursor).
            stats.evaluations += 1;
            if !e.feasible(normal) {
                *constraint_rejections += 1;
                if params.record_trace {
                    trace.push(MoveOutcome::ConstraintReject);
                }
                return Decision::Reject;
            }
            stats.evaluations += n;
            let outcome = if params.cutoff {
                let outcome = e.bounded_sweep(
                    cand_w,
                    params.threads,
                    current_kfail,
                    &st.order,
                    seeds,
                    &st.floors,
                    &mut st.cache,
                    &mut st.scratch,
                );
                // Attribute plain-path (non-resident) evaluations of
                // this bounded sweep. The canonical evaluation set is
                // the `evaluated`-long prefix of the deterministic
                // order, so the counter is thread-invariant.
                let resident = e.resident(&st.cache);
                stats.cache_fallback_evals += match &outcome {
                    Sweep::Complete(_) => n - resident,
                    Sweep::Cut { evaluated, .. } => st.order[..*evaluated]
                        .iter()
                        .filter(|&&p| p as usize >= resident)
                        .count(),
                };
                outcome
            } else {
                Sweep::Complete(e.sum_costs(cand_w, params.threads))
            };
            match outcome {
                Sweep::Complete(kfail) if kfail.better_than(current_kfail) => {
                    *current_kfail = kfail.clone();
                    if params.cutoff {
                        // Re-point the cache at the new incumbent so the
                        // next candidate's diff is again a single duplex
                        // move. The delta-state refresh keeps
                        // affected-set coverage *exact*, so no periodic
                        // full rebuild is needed.
                        e.refresh_cache(cand_w, params.threads, &mut st.cache);
                        st.refresh(e);
                    }
                    current_normal.clone_from(normal);
                    improved = true;
                    if kfail.better_than(best_kfail) {
                        best.clone_from(cand_w);
                        *best_kfail = kfail;
                        best_normal.clone_from(normal);
                    }
                    if params.record_trace {
                        trace.push(MoveOutcome::Accept);
                    }
                    Decision::Accept
                }
                Sweep::Complete(_) => {
                    if params.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
                Sweep::Cut {
                    evaluated,
                    floor_cut,
                } => {
                    let skips = n - evaluated;
                    stats.scenario_evals_skipped += skips;
                    // Bounded sweeps always run through the delta-state
                    // cache.
                    if floor_cut {
                        stats.skipped_floor += skips;
                    } else {
                        stats.skipped_cache += skips;
                    }
                    if params.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
            }
        },
    );
    stats.speculative_wasted += wasted;

    *stale_sweeps = if improved { 0 } else { *stale_sweeps + 1 };
    if *stale_sweeps >= params.div_interval_2 {
        stats.diversifications += 1;
        *stale_sweeps = 0;
        if stop.record(best_kfail.clone()) {
            *done = true;
            return;
        }
        // Restart from a random archived setting. An archive entry may
        // fail the gate slightly (accepted under the sample-acceptance
        // slack); it still serves as a diversification point — only
        // *accepted moves* must be feasible.
        let (w, normal) = archive.sample(rng).expect("archive is non-empty");
        current.clone_from(w);
        current_normal.clone_from(normal);
        *current_kfail = full_sweep(e, &params, current, stats, st);
        if E::PROMOTE_RESTARTS
            && e.feasible(current_normal)
            && current_kfail.better_than(best_kfail)
        {
            best.clone_from(current);
            best_kfail.clone_from(current_kfail);
            best_normal.clone_from(current_normal);
        }
    }
}

/// Build the chain vector [`drive`] runs: one classic chain, or
/// `replicas` portfolio chains from distinct derived seeds, each with
/// an equal share of the worker threads (initial full sweeps fan out
/// across replicas).
fn build_chains<E: RobustEngine>(
    e: &E,
    params: &RobustParams,
    archive: &Archive<E::Weights, E::Cost>,
) -> Vec<Chain<E>> {
    let replicas = params.portfolio.replicas;
    if replicas == 1 {
        return vec![Chain::new(e, *params, archive)];
    }
    let mut slots: Vec<Option<Chain<E>>> = Vec::new();
    slots.resize_with(replicas, || None);
    parallel::scoped_fanout(
        slots.iter_mut().enumerate().collect(),
        |(r, slot): (usize, &mut Option<Chain<E>>)| {
            *slot = Some(Chain::new(e, chain_params(params, r), archive));
        },
    );
    slots
        .into_iter()
        .map(|s| s.expect("every replica slot is initialised"))
        .collect()
}

/// Run a robust search from `archive` (the normal-conditions phase's
/// acceptable settings, best first) under external control: checkpoints
/// into `ctl.sink` every `params.checkpoint_every` boundaries and
/// honours `ctl.kill_after` and `params.deadline_ms`. The only fallible
/// step is storing a snapshot.
pub fn run_controlled<E: RobustEngine>(
    e: &E,
    params: RobustParams,
    archive: &Archive<E::Weights, E::Cost>,
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Weights, E::Cost>, SnapshotError> {
    let chains = build_chains(e, &params, archive);
    drive(e, &params, chains, 0, false, ctl)
}

/// Restore a robust search from `snapshot` bytes and continue it under
/// `ctl`. The engine's critical set and the trajectory-determining
/// `params` knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); the engine checks or adopts
/// its own fingerprint tail. The archive travels inside the snapshot.
/// The wall-clock deadline, when set, is a fresh budget for this call.
pub fn resume<E: RobustEngine>(
    mut e: E,
    params: RobustParams,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Weights, E::Cost>, SnapshotError> {
    let mut rd = dtr_persist::open(snapshot, E::KIND)?;
    let boundary = decode_config(&mut rd, &mut e, &params)?;
    let chains = (0..params.portfolio.replicas)
        .map(|r| decode_chain(&mut rd, &e, chain_params(&params, r)))
        .collect::<Result<Vec<_>, _>>()?;
    rd.finish()?;
    drive(&e, &params, chains, boundary, true, ctl)
}
