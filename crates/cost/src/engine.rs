//! The allocation-free, incremental, delta-state evaluation engine.
//!
//! [`crate::Evaluator::evaluate`] is the readable reference
//! implementation: it recomputes everything from scratch and allocates
//! its full [`crate::CostBreakdown`]. The local search does not need the
//! breakdown — it needs millions of scalar [`crate::LexCost`] answers —
//! so this module provides the machinery that produces *the same bits*
//! without the per-evaluation work:
//!
//! 1. **Workspaces** ([`EvalWorkspace`]): every scratch vector an
//!    evaluation needs (Dijkstra heap, distance fields, load buffers,
//!    the scenario mask, per-pair delays) lives in a per-thread workspace
//!    drawn from the evaluator's pool. After warm-up, an evaluation of
//!    **any** scenario kind performs **zero** heap allocations
//!    (`tests/alloc_free.rs` pins this for link, SRLG and node sweeps,
//!    and for the delta-state cached path).
//! 2. **Baseline caching**: the workspace keeps, per traffic class, the
//!    full no-failure routing of the *current* weight setting as
//!    replayable [`DestRouting`] records (one per demand destination).
//! 3. **Mask-diff incremental SPF across scenarios**: each scenario is
//!    reduced to its *down-set* — the directed links its mask fails: one
//!    duplex pair (`Link`), several pairs (`Srlg`, `DoubleLink`), or a
//!    router's full incidence set (`Node`). Only destinations whose
//!    no-failure shortest-path DAG uses a down link ([`dag_uses_any`])
//!    are re-routed; all other destinations replay their recorded load
//!    accumulations bit-for-bit. Probabilistic ensembles are sets of
//!    these same scenarios — their per-scenario weights are applied by
//!    the caller in scenario-index order, so the weighted sum is also
//!    bit-stable.
//! 4. **Incremental SPF across search moves**: when the weight setting
//!    changes (a Phase-1/Phase-2 neighbor move re-draws one duplex
//!    link's weights), the baseline is diffed against the new weights
//!    and only destinations whose distance field is provably affected
//!    ([`weight_change_affects`]) are touched. Those are **repaired in
//!    place** from their routing under the old weights
//!    ([`route_destination_reweight`]: an orphan worklist seeded from
//!    the grown DAG links, then a label-correcting Dijkstra seeded from
//!    the orphans' boundary and the dropped links) — integer distances
//!    make the repair bit-equal to a from-scratch route, and the order
//!    comes out as the same permutation by a linear merge. The cache's
//!    accept-path baseline update ([`Evaluator::cache_refresh_begin`])
//!    runs the same repair. A from-scratch [`route_destination`] runs
//!    only where no baseline exists yet.
//! 5. **Delta-state scenario cache across moves × scenarios**
//!    ([`ScenarioCache`]): the robust phase's sweep evaluates the *same
//!    scenarios* for a stream of candidates that differ from the
//!    incumbent by one duplex link. The cache keeps **persistent
//!    per-scenario state** of the incumbent — see the next section — so
//!    a candidate's per-scenario cost ([`Evaluator::cost_cached`])
//!    repairs only the mask ∩ move-affected destinations, refolds only
//!    the links whose contributor set changed, and re-runs the SLA delay
//!    DP only for destinations whose routing or on-DAG link delays
//!    changed. The accept path re-points the cache at the new incumbent
//!    incrementally ([`Evaluator::cache_refresh`]).
//! 6. **Incumbent-bounded sweeps**
//!    ([`Evaluator::evaluate_all_bounded`], and the set-native
//!    `dtr_core::parallel::sum_set_costs_bounded` with per-scenario
//!    [`ScenarioFloor`]s — the propagation Λ floor from
//!    [`Evaluator::lambda_floor`] paired with the load-aware congestion
//!    Φ floor from [`Evaluator::phi_floor`]): compound failure costs
//!    are non-negative sums, so a partial fold that stops beating the
//!    search's incumbent *proves* the candidate will be rejected — the
//!    rest of the sweep is skipped without perturbing the trajectory.
//!    Floors are weight-independent, so they are computed once per
//!    search and stand in for every scenario a bounded sweep has not
//!    reached yet.
//! 7. **Repair-seeded routing everywhere**: the plain
//!    [`Evaluator::cost_with`]/`cost_scenario` path — capture sweeps,
//!    reference anchors, every uncached failure sweep — seeds
//!    [`route_destination_repair`] from the workspace's resident
//!    no-failure baseline (an orphan worklist seeded from the down links
//!    on the baseline DAG, then a boundary Dijkstra), instead of a
//!    from-scratch Dijkstra per mask-affected destination. With item 4
//!    this makes every re-route in the engine a repair. Integer
//!    distances make the repair bit-equal to the full route, so this is
//!    purely a constant-factor win on the route bound (the
//!    `dtr_routing::workspace` module docs give the exactness and
//!    order-permutation arguments).
//!
//! The "same bits" guarantee is a workspace-wide contract — parallel ==
//! serial, cached == uncached, repair == full-route, and cross-process
//! reproducibility — enforced dynamically by the equivalence suites and
//! statically by the `dtr-analysis` pass; `DETERMINISM.md` at the
//! workspace root states the contract and how to run and extend the
//! pass (this module's kernels are registered allocation-free in
//! `crates/analysis/hot_paths.toml`).
//!
//! # The delta-state model
//!
//! Before this engine, a fully cached scenario evaluation still paid a
//! *replay floor*: every destination's recorded load-adds were re-issued
//! into a zeroed load vector, the per-link delays recomputed from
//! scratch, and the end-to-end delay DP re-run for every delay
//! destination — even when the candidate's one-duplex-link diff provably
//! touched none of them. The [`ScenarioCache`] now keeps, per scenario,
//! the *folded* state of the incumbent, and candidates pay only for
//! their diff:
//!
//! * **What persists per scenario**: the recomputed routings of every
//!   mask-affected destination (exactly the affected set — maintained
//!   exactly by capture and refresh), the resident per-class per-link
//!   **load vectors**, per-class **per-link contributor lists**
//!   ([`LinkContrib`]: `(destination, share)` pairs in destination-index
//!   order), the resident **per-link delays**, and the resident **SLA
//!   pair-delay triples** segmented by destination. The cache also holds
//!   the incumbent's no-failure **baseline** routings per class (the
//!   effective routing of every destination the mask does not touch).
//! * **When a destination is changed**: the conservative
//!   [`weight_change_affects`] pre-screen is sharpened into an *exact*
//!   per-candidate baseline diff ([`baseline_unchanged`], computed once
//!   per candidate against the workspace's maintained candidate
//!   baseline and shared by the whole scenario sweep): a destination is
//!   baseline-changed only when its distance field or DAG really moved.
//!   A changed destination's *scenario* routing is still reused from the
//!   entry whenever the diff provably cannot touch it; otherwise it is
//!   **repaired** from the candidate baseline
//!   ([`route_destination_repair`]: orphan detection plus a boundary
//!   Dijkstra over the invalidated region — integer distances make the
//!   repair bit-equal to a from-scratch route) instead of paying a full
//!   Dijkstra.
//! * **When a link is refolded**: the links appearing in a changed
//!   destination's old or new adds are *dirty*; when few links are
//!   dirty, only those are refolded from the stored contributor lists —
//!   and when a large move dirtied most of the network, the engine
//!   instead replays every destination's effective adds in destination
//!   order (the identical float sequence, cheaper than per-link
//!   merges). Every clean link's load and delay, and every untouched
//!   destination's pair-delay segment, is read back from the resident
//!   state.
//! * **Why the per-link destination-ordered fold is bit-exact**: a
//!   from-scratch evaluation accumulates `loads[l]` by iterating
//!   destinations in index order and replaying each destination's adds;
//!   the sub-sequence of adds landing on link `l` is therefore "one
//!   share per contributing destination, in destination-index order"
//!   (the ECMP push emits at most one add per (destination, link) pair —
//!   see [`DestRouting::load_adds`]). Refolding link `l` as a merge of
//!   the stored contributor list (minus changed destinations) with the
//!   changed destinations' fresh shares, in destination-index order,
//!   performs the **exact same float additions in the exact same
//!   order** — so a clean link's resident load and a dirty link's
//!   refolded load are both bit-for-bit the from-scratch value.
//!   Downstream, per-link delays are a per-link pure function of the
//!   total load (patched only where a refold ran; a patched delay that
//!   comes out bit-identical is pruned), and a destination's pair-delay
//!   segment is reused unless its routing changed or a bit-changed delay
//!   lies on its DAG ([`dag_uses_any`] over the changed-delay links —
//!   a conservative superset of the DP's on-DAG reads). The final Λ and
//!   Φ folds run over the assembled per-pair and per-link values in the
//!   reference order, so they reproduce [`Evaluator::cost_with`] — and
//!   therefore the reference path — bit for bit.
//!
//! # Node failures: masks that also remove traffic
//!
//! A node failure downs every link incident to the dead router `v` *and*
//! removes the traffic `v` sources and sinks. The engine still evaluates
//! it against the **base** traffic matrices, without cloning, because the
//! mask makes the traffic change self-enforcing:
//!
//! * if `v` was reachable towards a destination `t`, the first hop of
//!   `v`'s shortest path is on `t`'s DAG — a down link — so
//!   [`dag_uses_any`] flags `t` and it is re-routed. Under the node mask
//!   `v` has no surviving out-link, so `v`'s demand lands in the dropped
//!   accumulator and contributes no load addition — the per-link float
//!   adds are exactly those of routing with `v`'s row zeroed;
//! * a destination is only *replayed* when `v` was already unreachable
//!   in its baseline (degenerate topologies), where `v`'s demand never
//!   produced a load addition in the first place;
//! * the dead node is skipped as a destination, and the shared SLA
//!   kernel ([`delay::pair_delays_into`]) is told to skip it as a
//!   sender, so the emitted `(s, t, ξ)` triples match the reference's
//!   zeroed-matrix emission pair for pair.
//!
//! The only reference quantity the engine does not reproduce for node
//! scenarios is the `dropped` accounting (the reference removes the dead
//! node's demand before routing; the engine records it as dropped) —
//! `dropped` is diagnostic and never part of [`crate::LexCost`].
//!
//! # Equivalence guarantees
//!
//! Bit-for-bit equivalence with the reference path is not best-effort —
//! it is load-bearing (the optimization trajectory must not depend on
//! which engine evaluated a candidate) and pinned for **every**
//! `Scenario` kind by `tests/engine_equivalence.rs` and the randomized
//! differential harness `tests/scenario_engine_equivalence.rs`
//! (including randomized move/accept chains through the delta-state
//! cache, its refreshes, and full rebuilds). It holds because a replayed
//! destination re-issues the exact floating-point additions, in the
//! exact order, that a fresh computation would perform; a re-routed
//! destination runs [`route_destination`] — the kernel the reference
//! path is built on — or one of its repairs, which produce its record
//! bit for bit; and the delta-state folds preserve the
//! reference accumulation order per link and per pair (see above).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Source of unique per-[`Evaluator`] identities (see
/// [`EvalWorkspace::owner`]); 0 is reserved for "never owned".
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh evaluator identity — shared across every evaluator family
/// that pools owner-gated workspaces (`dtr-cost` and `dtr-mtr`), so an
/// id can never collide between them.
pub fn next_engine_id() -> u64 {
    NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed)
}

use dtr_net::{LinkId, LinkMask};
use dtr_routing::workspace::{
    dag_uses_any, route_destination, route_destination_repair, route_destination_reweight,
    weight_change_affects, DestRouting, WeightChange,
};
use dtr_routing::{delay, Class, Scenario, SpfWorkspace, WeightSetting};
use dtr_traffic::TrafficMatrix;

use crate::delay_model;
use crate::lexico::LexCost;
use crate::params::DelayAggregation;
use crate::{congestion, sla, Evaluator};

/// Marker for "this destination was replayed from the baseline".
/// Deliberately outside the [`CACHED_BIT`] range (high bit clear) so the
/// `scratch_map` decode is order-independent: no sentinel can alias a
/// tagged cache-entry slot regardless of which test runs first.
const NOT_RECOMPUTED: u32 = 0x7fff_fffe;

/// Tag bit marking a `scratch_map` slot that resolves into the scenario
/// cache's recomputed routings instead of the recompute scratch.
const CACHED_BIT: u32 = 0x8000_0000;

/// Tag marking a `scratch_map` slot that resolves into the workspace's
/// candidate baseline (a move-touched destination the scenario mask does
/// not affect) on the delta-state path.
const WS_BASE: u32 = 0x7fff_ffff;

/// Per-link contributor lists of one scenario's effective routing state
/// (CSR over directed links): for every link, the `(destination index,
/// share)` pairs that fold into its load, sorted by destination index.
///
/// Because the ECMP push emits at most one add per (destination, link)
/// pair, a link's row holds one entry per contributing destination, and
/// folding the row in order reproduces the from-scratch accumulation of
/// that link's load bit for bit (see the module docs). Shared with the
/// `dtr-mtr` delta-state cache.
#[derive(Clone, Debug, Default)]
pub struct LinkContrib {
    /// `off[l]..off[l+1]` indexes `entries` for link `l`.
    off: Vec<u32>,
    /// `(destination index, share)` pairs, destination-ascending per link.
    entries: Vec<(u32, f64)>,
    /// Fill-cursor scratch of [`rebuild`](Self::rebuild).
    cursor: Vec<u32>,
}

impl LinkContrib {
    /// The contributor row of link `l`, destination-ascending.
    #[inline]
    pub fn row(&self, l: usize) -> &[(u32, f64)] {
        &self.entries[self.off[l] as usize..self.off[l + 1] as usize]
    }

    /// Rebuild the CSR from per-destination contribution sequences:
    /// `adds_of(di)` yields destination `di`'s effective `(link, share)`
    /// adds. Destinations are scanned in ascending index order, so every
    /// link's row comes out sorted by destination.
    pub fn rebuild<'a, F>(&mut self, num_links: usize, num_dests: usize, mut adds_of: F)
    where
        F: FnMut(usize) -> &'a [(u32, f64)],
    {
        self.off.clear();
        self.off.resize(num_links + 1, 0);
        let mut total = 0usize;
        for di in 0..num_dests {
            for &(l, _) in adds_of(di) {
                self.off[l as usize + 1] += 1;
                total += 1;
            }
        }
        // The CSR stores u32 offsets; a count past u32::MAX must fail
        // loudly here, not wrap the prefix sums into silent mis-sizing.
        assert!(
            total <= u32::MAX as usize,
            "contributor count {total} exceeds the u32 CSR offset space"
        );
        for l in 0..num_links {
            self.off[l + 1] += self.off[l];
        }
        self.entries.clear();
        self.entries.resize(total, (0, 0.0));
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.off[..num_links]);
        for di in 0..num_dests {
            for &(l, share) in adds_of(di) {
                let c = &mut self.cursor[l as usize];
                self.entries[*c as usize] = (di as u32, share);
                *c += 1;
            }
        }
    }

    /// Bytes of resident CSR state, from element counts (see
    /// [`ScenarioEntry::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.off.len() + self.cursor.len()) * size_of::<u32>()
            + self.entries.len() * size_of::<(u32, f64)>()
    }
}

/// `true` when a destination's candidate baseline routing is bit-for-bit
/// its cached incumbent baseline routing, proven from the candidate's
/// freshly maintained distance field:
///
/// * the distance fields are bitwise equal, and
/// * every changed link is off the shortest-path DAG under **both** its
///   old and its new weight (`dist[u] != dist[v] + w` for both; links
///   with an unreachable endpoint are never on a DAG).
///
/// Unchanged links keep their DAG status trivially (same weight, same
/// distances), so the two DAGs coincide on every link — and
/// [`route_destination`] is a deterministic function of (distances, DAG
/// membership, traffic), so the full record (order, load adds, drops) is
/// identical. This is the *exact* per-destination baseline diff: the
/// conservative [`weight_change_affects`] pre-screen errs towards
/// "changed" (e.g. a lowered weight that fails to create a shortcut),
/// and every such false positive would otherwise re-run the per-scenario
/// delay DP for nothing.
pub fn baseline_unchanged(
    net: &dtr_net::Network,
    cand_dist: &[u64],
    inc_dist: &[u64],
    diff: &[WeightChange],
) -> bool {
    if cand_dist != inc_dist {
        return false;
    }
    diff.iter().all(|c| {
        let link = net.link(c.link);
        let (u, v) = (link.src.index(), link.dst.index());
        if cand_dist[u] == dtr_routing::UNREACHABLE || cand_dist[v] == dtr_routing::UNREACHABLE {
            return true;
        }
        cand_dist[u] != cand_dist[v] + u64::from(c.old)
            && cand_dist[u] != cand_dist[v] + u64::from(c.new)
    })
}

/// Candidate load of one link under the delta-state model: merge the
/// stored contributor row (skipping changed destinations' stale shares)
/// with the changed destinations' fresh `(_, dest, share)` adds for this
/// link, folding in destination-index order — the exact float-add
/// sequence a from-scratch accumulation over destinations performs for
/// this link. `fresh` must be destination-ascending and disjoint from
/// the unchanged row entries (fresh destinations are changed by
/// definition).
pub fn refold_link(
    row: &[(u32, f64)],
    fresh: &[(u32, u32, f64)],
    is_changed: impl Fn(u32) -> bool,
) -> f64 {
    let mut acc = 0.0f64;
    let mut i = 0usize;
    let mut j = 0usize;
    loop {
        while i < row.len() && is_changed(row[i].0) {
            i += 1;
        }
        match (i < row.len(), j < fresh.len()) {
            (false, false) => break,
            (true, false) => {
                acc += row[i].1;
                i += 1;
            }
            (false, true) => {
                acc += fresh[j].2;
                j += 1;
            }
            (true, true) => {
                if row[i].0 < fresh[j].1 {
                    acc += row[i].1;
                    i += 1;
                } else {
                    acc += fresh[j].2;
                    j += 1;
                }
            }
        }
    }
    acc
}

/// The effective `(link, share)` contribution sequence of destination
/// `di` under the cached incumbent: the entry's recomputed routing where
/// the mask affected it, the incumbent baseline elsewhere, nothing for
/// the excluded node. `list` is the entry's (ascending) affected list.
fn effective_adds<'a>(
    list: &'a [(u32, DestRouting)],
    base: &'a [DestRouting],
    dests: &[u32],
    excluded: Option<usize>,
    di: usize,
) -> &'a [(u32, f64)] {
    if Some(dests[di] as usize) == excluded {
        return &[];
    }
    match list.binary_search_by_key(&(di as u32), |e| e.0) {
        Ok(k) => list[k].1.load_adds(),
        Err(_) => base[di].load_adds(),
    }
}

/// Persistent per-scenario state of the cached incumbent: the recomputed
/// routings of exactly the mask-affected destinations, plus the folded
/// residents a candidate evaluation diffs against (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct ScenarioEntry {
    /// `(slot into the delay class's demand-destination list, routing)` —
    /// exactly the mask-affected destinations, ascending.
    delay: Vec<(u32, DestRouting)>,
    /// Same for the throughput class.
    tput: Vec<(u32, DestRouting)>,
    /// Resident per-class per-link loads of the incumbent (`[delay,
    /// tput]`).
    loads: [Vec<f64>; 2],
    /// Per-class per-link contributor lists, destination-ordered.
    contrib: [LinkContrib; 2],
    /// Resident per-link delays of the incumbent's total loads.
    link_delays: Vec<f64>,
    /// Resident SLA `(s, t, ξ)` triples of the incumbent, in reference
    /// emission order (delay destinations ascending, senders ascending).
    pairs: Vec<(usize, usize, f64)>,
    /// `pair_off[di]..pair_off[di+1]` indexes `pairs` for delay
    /// destination `di` (length = delay destinations + 1).
    pair_off: Vec<u32>,
    /// `true` when the SLA segments (`link_delays`, `pairs`, `pair_off`)
    /// are resident. Partially resident entries (see
    /// [`ScenarioCache::plan_residency`]) keep only the routing/load
    /// prefix; candidate evaluations recompute their delays and pair DP
    /// from scratch — bit-identically, just slower.
    sla_resident: bool,
}

impl ScenarioEntry {
    /// Bytes of resident delta-state this captured entry holds, computed
    /// from element counts (not vector capacities), so the figure is
    /// identical on every process and thread — the residency planner
    /// divides the cache budget by it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let routing_bytes = |list: &[(u32, DestRouting)]| {
            list.iter()
                .map(|(_, r)| size_of::<(u32, DestRouting)>() + r.resident_bytes())
                .sum::<usize>()
        };
        routing_bytes(&self.delay)
            + routing_bytes(&self.tput)
            + self.loads.iter().map(|l| l.len()).sum::<usize>() * size_of::<f64>()
            + self
                .contrib
                .iter()
                .map(LinkContrib::resident_bytes)
                .sum::<usize>()
            + self.link_delays.len() * size_of::<f64>()
            + self.pairs.len() * size_of::<(usize, usize, f64)>()
            + self.pair_off.len() * size_of::<u32>()
    }

    /// Bytes this entry would hold after [`demote`](Self::demote): the
    /// cheap routing/load prefix without the SLA segments. Measured on
    /// the (fully captured) calibration entry, this prices the
    /// partial-residency tier of [`ScenarioCache::plan_residency`].
    pub fn partial_bytes(&self) -> usize {
        use std::mem::size_of;
        self.resident_bytes()
            - self.link_delays.len() * size_of::<f64>()
            - self.pairs.len() * size_of::<(usize, usize, f64)>()
            - self.pair_off.len() * size_of::<u32>()
    }

    /// Drop the SLA segments (link delays, pair triples, segment
    /// offsets), turning a fully captured entry into a partially
    /// resident one. The freed state is recomputed on demand by
    /// [`Evaluator::cost_cached`] with bit-identical results, so
    /// demotion never changes any evaluation — only its speed.
    pub fn demote(&mut self) {
        self.sla_resident = false;
        self.link_delays = Vec::new();
        self.pairs = Vec::new();
        self.pair_off = Vec::new();
    }
}

/// Delta-state scenario cache: the persistent per-scenario evaluation
/// state of an *incumbent* weight setting, enabling candidate sweeps
/// that pay only for their diff (see the module docs and
/// [`Evaluator::cost_cached`]).
///
/// Build it with [`Evaluator::cache_rebuild_begin`] +
/// [`Evaluator::cost_capture`] sweeps over the incumbent, point
/// candidates at it with [`Evaluator::cache_begin`] (which computes the
/// per-class weight diff), evaluate through
/// [`Evaluator::cost_cached`], and re-point it at an accepted candidate
/// with [`Evaluator::cache_refresh`] — which maintains the affected-set
/// coverage *exactly*, so no periodic full rebuild is needed for
/// correctness or freshness.
///
/// ## Residency budget
///
/// Per-scenario entries hold per-link load vectors and SLA pair triples,
/// so at large node counts the cache's footprint grows roughly as
/// `scenarios × links` (quadratic-ish in network size for single-link
/// failure universes). A cache built with
/// [`with_budget`](Self::with_budget) therefore keeps only a *resident
/// prefix* of its positions: after the first capture,
/// [`plan_residency`](Self::plan_residency) divides the byte budget by
/// the measured entry size, and positions past the resident count are
/// never captured — callers evaluate them through the plain
/// (repair-seeded) `cost_scenario` path instead, which is bit-for-bit
/// identical (determinism invariant 2), just slower. The eviction order
/// is deterministic by construction: always the positions `resident..`,
/// i.e. the tail of the caller's fixed position order, independent of
/// thread count and wall clock.
#[derive(Debug)]
pub struct ScenarioCache {
    /// Per-class weights of the cached incumbent (`[delay, tput]`).
    weights: [Vec<u32>; 2],
    /// The incumbent's no-failure baseline routing per class, aligned
    /// with the evaluator's demand-destination lists.
    base: [Vec<DestRouting>; 2],
    /// Per-position scenario entries (positions are caller-defined and
    /// must match the `pos` arguments of capture/evaluate calls).
    entries: Vec<ScenarioEntry>,
    /// Per-class weight diff of the current candidate vs `weights`,
    /// refreshed by [`Evaluator::cache_begin`].
    diff: [Vec<WeightChange>; 2],
    /// Globally unique stamp of the current (incumbent, candidate diff)
    /// pair, advanced by every rebuild / begin / refresh. Workspaces use
    /// it to compute their per-candidate exact baseline diff flags once
    /// and reuse them across the candidate's whole scenario sweep.
    generation: u64,
    /// Residency budget in bytes (`usize::MAX` = unbounded).
    budget: usize,
    /// Positions `0..resident` are fully captured and delta-evaluated;
    /// positions `resident..resident + partial` keep the partial tier
    /// (see [`ScenarioEntry::demote`]); the rest fall back to the plain
    /// path (see the type docs).
    resident: usize,
    /// Number of partially resident positions after the full prefix.
    partial: usize,
    /// Per-class "the incumbent baseline really moved under the pending
    /// refresh diff" flags, filled by
    /// [`Evaluator::cache_refresh_begin`] and read (shared, read-only)
    /// by the per-entry refresh kernels.
    refresh_changed: [Vec<bool>; 2],
}

impl Default for ScenarioCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioCache {
    /// Fresh, empty, unbounded cache: every position is resident.
    pub fn new() -> Self {
        ScenarioCache {
            weights: Default::default(),
            base: Default::default(),
            entries: Vec::new(),
            diff: Default::default(),
            generation: 0,
            budget: usize::MAX,
            resident: 0,
            partial: 0,
            refresh_changed: Default::default(),
        }
    }

    /// Fresh cache bounded to `bytes` of per-scenario resident state.
    /// The resident count is planned at the first capture of every
    /// rebuild (see [`plan_residency`](Self::plan_residency)).
    pub fn with_budget(bytes: usize) -> Self {
        ScenarioCache {
            budget: bytes,
            ..Self::new()
        }
    }

    /// The configured residency budget in bytes (`usize::MAX` =
    /// unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// How many positions are currently resident (captured and
    /// delta-evaluated, fully or partially); the
    /// `cache_resident_scenarios` stat.
    pub fn resident_scenarios(&self) -> usize {
        self.resident + self.partial
    }

    /// How many positions hold the *full* delta-state (SLA segments
    /// included); positions `full..resident_scenarios()` are the
    /// partial tier.
    pub fn full_resident_scenarios(&self) -> usize {
        self.resident
    }

    /// `true` when position `pos` is resident (fully or partially) —
    /// callers route non-resident positions through the plain
    /// evaluation path, which returns the same bits.
    #[inline]
    pub fn is_resident(&self, pos: usize) -> bool {
        pos < self.resident + self.partial
    }

    /// Plan the resident prefix for a rebuild over `positions` slots:
    /// divide the budget by the measured size of the already-captured
    /// entry 0, then spend the remainder on a *partially* resident band
    /// (routings + loads, SLA segments dropped — see
    /// [`ScenarioEntry::demote`]) priced at
    /// [`partial_bytes`](ScenarioEntry::partial_bytes). Deterministic
    /// because entry sizes are a pure function of (incumbent weights,
    /// scenario) element counts — never of vector capacities, thread
    /// count or timing. Call after capturing position 0; positions in
    /// `full_resident_scenarios()..resident_scenarios()` must then be
    /// captured and demoted, and positions `>= resident_scenarios()`
    /// left uncaptured. With a budget smaller than even one partial
    /// entry, both counts are 0 and the cache degrades to the plain
    /// path entirely.
    pub fn plan_residency(&mut self, positions: usize) {
        self.partial = 0;
        if self.budget == usize::MAX {
            self.resident = positions;
            return;
        }
        let per_full = self
            .entries
            .first()
            .map_or(0, ScenarioEntry::resident_bytes);
        let per_partial = self.entries.first().map_or(0, ScenarioEntry::partial_bytes);
        self.resident = match self.budget.checked_div(per_full) {
            Some(fit) => fit.min(positions),
            // Zero-sized entry (nothing captured): keep everything.
            None => positions,
        };
        if self.resident < positions {
            let leftover = self.budget - self.resident * per_full;
            self.partial = match leftover.checked_div(per_partial) {
                Some(fit) => fit.min(positions - self.resident),
                None => positions - self.resident,
            };
        }
        if self.resident == 0 && self.partial > 0 {
            // The calibration entry was captured fully but planned into
            // the partial band: strip its SLA segments now.
            self.entries[0].demote();
        }
    }

    /// Split the cache into its shared incumbent baseline and the
    /// per-position entries, for sharded capture sweeps (entries are
    /// position-disjoint, so each worker takes a contiguous chunk; see
    /// [`Evaluator::cost_capture_into`]).
    pub fn capture_split(&mut self) -> (&[Vec<DestRouting>; 2], &mut [ScenarioEntry]) {
        (&self.base, &mut self.entries)
    }

    /// Split the cache into the shared read-only refresh context and
    /// the per-position entries, for sharded refresh sweeps between
    /// [`Evaluator::cache_refresh_begin`] and
    /// [`Evaluator::cache_refresh_finish`]. Entries are
    /// position-disjoint, so each worker takes a contiguous chunk; see
    /// [`Evaluator::cache_refresh_entry`] and the parallel-search
    /// contract in `DETERMINISM.md`.
    pub fn refresh_split(&mut self) -> (RefreshCtx<'_>, &mut [ScenarioEntry]) {
        (
            RefreshCtx {
                base: &self.base,
                diff: &self.diff,
                changed: &self.refresh_changed,
            },
            &mut self.entries,
        )
    }
}

/// Shared read-only inputs of a sharded refresh sweep: the (already
/// updated) incumbent baseline, the pending weight diff, and the exact
/// per-destination "baseline really moved" flags — everything a
/// [`Evaluator::cache_refresh_entry`] call reads besides its own entry.
/// Obtained from [`ScenarioCache::refresh_split`].
#[derive(Clone, Copy, Debug)]
pub struct RefreshCtx<'a> {
    base: &'a [Vec<DestRouting>; 2],
    diff: &'a [Vec<WeightChange>; 2],
    changed: &'a [Vec<bool>; 2],
}

/// Outcome of an incumbent-bounded batch evaluation
/// ([`Evaluator::evaluate_all_bounded`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BoundedCosts {
    /// Every scenario was evaluated; per-scenario costs in input order,
    /// bit-for-bit those of [`Evaluator::evaluate_all`].
    Complete(Vec<LexCost>),
    /// The input-order partial sum proved the total cannot beat the
    /// incumbent; the sweep was abandoned after `evaluated` scenarios.
    Cut {
        /// Scenarios evaluated before the proof fired.
        evaluated: usize,
    },
}

/// Routing-independent per-scenario lower bound of [`LexCost`]: the
/// propagation-delay Λ floor ([`Evaluator::lambda_floor`]) paired with
/// the load-aware congestion Φ floor ([`Evaluator::phi_floor`]). Both
/// components bound their cost component from below for **every** weight
/// setting under the scenario mask, so incumbent-bounded sweeps can use
/// them as stand-ins for scenarios not yet evaluated (see the soundness
/// lemma on [`Evaluator::phi_floor`]). Floors depend only on the
/// topology, traffic, mask and cost parameters — never on weights — so
/// one computation per search is valid for its whole lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScenarioFloor {
    /// Lower bound on the scenario's `Λ` component.
    pub lambda: f64,
    /// Lower bound on the scenario's `Φ` component.
    pub phi: f64,
}

/// The cached no-failure routing of one traffic class under the
/// workspace's current weight setting.
#[derive(Debug, Default)]
struct ClassBaseline {
    /// Weights this baseline was computed with (diffed on every reuse).
    weights: Vec<u32>,
    /// One replayable record per demand destination, aligned with the
    /// evaluator's per-class demand-destination list.
    state: Vec<DestRouting>,
    valid: bool,
}

/// Per-thread scratch for the incremental engine. Acquire one from
/// [`Evaluator::acquire_workspace`] (or implicitly via
/// [`Evaluator::cost`] / [`Evaluator::evaluate_all`]) and reuse it: all
/// buffers reach steady-state capacity after the first evaluation.
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    /// [`Evaluator::engine_id`] of the evaluator whose baseline this
    /// workspace holds; 0 = none yet. Two evaluators can share a link
    /// count while disagreeing on traffic or parameters, so baseline
    /// reuse is gated on identity, not on buffer sizes.
    owner: u64,
    spf: SpfWorkspace,
    mask: LinkMask,
    /// All-links-up mask for candidate-baseline routing inside the
    /// delta-state path (kept pristine; `mask` holds the scenario).
    up_mask: LinkMask,
    /// Directed link ids down under the current scenario.
    down: Vec<u32>,
    /// Weight diffs of the current `ensure_baseline` call.
    diff: Vec<WeightChange>,
    base: [ClassBaseline; 2],
    /// Recomputed per-destination routings of the current scenario
    /// (delay class only — their distance fields feed the delay DP).
    scratch: Vec<DestRouting>,
    /// Per-class destination index → resolution code: slot in
    /// `scratch`, [`NOT_RECOMPUTED`], [`WS_BASE`], or
    /// [`CACHED_BIT`]`| entry slot`.
    scratch_map: [Vec<u32>; 2],
    /// Throughput-class recompute scratch (result replayed immediately).
    tput_scratch: DestRouting,
    class_loads: [Vec<f64>; 2],
    total_loads: Vec<f64>,
    link_delays: Vec<f64>,
    node_delay: Vec<f64>,
    pair_delays: Vec<(usize, usize, f64)>,
    /// Delta-state epoch: stamps below are valid iff equal to this.
    epoch: u32,
    /// Per-class per-destination "changed under the candidate diff"
    /// stamps.
    changed: [Vec<u32>; 2],
    /// Per-link dirty stamps.
    link_mark: Vec<u32>,
    /// Links whose contributor set changed (union over classes).
    dirty: Vec<u32>,
    /// Dirty links whose per-link delay actually changed (bitwise).
    pair_dirty: Vec<u32>,
    /// Fresh `(link, dest, share)` adds of changed destinations, per
    /// class, sorted by `(link, dest)` before refolding.
    new_adds: [Vec<(u32, u32, f64)>; 2],
    /// Refresh scratch: rebuilt pair-segment offsets of one scenario.
    off_scratch: Vec<u32>,
    /// Refresh scratch: re-route target of the entry kernel (swapped
    /// with surviving routings, so its buffers recycle).
    refresh_tmp: DestRouting,
    /// Refresh scratch: the previous affected list of the entry being
    /// refreshed (drained back into the entry; capacity converges).
    refresh_list: Vec<(u32, DestRouting)>,
    /// Refresh scratch: recycled routing buffers of destinations that
    /// left an affected list. Contents are never read — re-routes fully
    /// overwrite them — so pooling cannot change any bit.
    routing_pool: Vec<DestRouting>,
    /// [`ScenarioCache`] generation the `base_same` flags were computed
    /// against (0 = never).
    cand_gen: u64,
    /// Per-class per-destination exact baseline diff of the current
    /// candidate vs the cache incumbent ([`baseline_unchanged`]),
    /// computed once per candidate and shared by its scenario sweep.
    base_same: [Vec<bool>; 2],
    /// Φ-floor scratch: per-node min hop counts of one destination.
    floor_hops: Vec<u64>,
    /// Φ-floor scratch: hop-Dijkstra heap.
    floor_heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    /// Φ-floor scratch: per-node surviving throughput demand sourced.
    floor_tput_out: Vec<f64>,
    /// Φ-floor scratch: per-node surviving throughput demand sunk.
    floor_tput_in: Vec<f64>,
    /// Φ-floor scratch: per-node surviving out-cut capacity.
    floor_cap_out: Vec<f64>,
    /// Φ-floor scratch: per-node surviving in-cut capacity.
    floor_cap_in: Vec<f64>,
}

impl EvalWorkspace {
    /// Fresh workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop any cached baseline (forces the next evaluation to rebuild
    /// it from scratch). Only needed by tests and diagnostics.
    pub fn invalidate(&mut self) {
        self.base[0].valid = false;
        self.base[1].valid = false;
    }

    /// Bind the workspace to an evaluator identity, (re)sizing the masks
    /// and dropping stale baselines when it changes hands.
    fn bind(&mut self, owner: u64, num_links: usize) {
        if self.owner != owner {
            self.owner = owner;
            self.mask = LinkMask::all_up(num_links);
            self.up_mask = LinkMask::all_up(num_links);
            self.invalidate();
        } else if self.up_mask.len() != num_links {
            self.up_mask = LinkMask::all_up(num_links);
        }
    }

    /// Advance the delta-state epoch, clearing stamps on wrap-around.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.changed[0].clear();
            self.changed[1].clear();
            self.link_mark.clear();
            self.epoch = 1;
        }
        self.epoch
    }
}

/// A shared pool of per-thread workspaces owned by an evaluator (the
/// [`Evaluator`] pools [`EvalWorkspace`]s; the MTR evaluator reuses the
/// same type for its own workspace). Lock contention is negligible: one
/// lock per *batch* of evaluations (or per single evaluation on the
/// compatibility path), against milliseconds of routing work.
#[derive(Debug)]
pub struct WorkspacePool<T = EvalWorkspace> {
    pool: Mutex<Vec<T>>,
}

impl<T> Default for WorkspacePool<T> {
    fn default() -> Self {
        WorkspacePool {
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default> WorkspacePool<T> {
    /// Pop a pooled workspace, or create a fresh one if the pool is dry.
    pub fn acquire(&self) -> T {
        self.pool
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Return a workspace so its warmed-up buffers get reused.
    pub fn release(&self, ws: T) {
        self.pool.lock().expect("workspace pool poisoned").push(ws);
    }
}

impl<'a> Evaluator<'a> {
    /// Check a workspace out of the evaluator's pool (creating one if
    /// the pool is dry). Return it with
    /// [`release_workspace`](Self::release_workspace) so its warmed-up
    /// buffers and cached baseline benefit later evaluations.
    pub fn acquire_workspace(&self) -> EvalWorkspace {
        self.pool.acquire()
    }

    /// Return a workspace to the pool.
    pub fn release_workspace(&self, ws: EvalWorkspace) {
        self.pool.release(ws);
    }

    /// Scenario-batched evaluation: the costs of `w` under every
    /// scenario, in input order — bit-for-bit what per-scenario
    /// [`Evaluator::evaluate`] would report, computed incrementally (one
    /// no-failure baseline, per-scenario recomputation only of the
    /// destinations each failure actually touches).
    pub fn evaluate_all(&self, w: &WeightSetting, scenarios: &[Scenario]) -> Vec<LexCost> {
        let mut ws = self.acquire_workspace();
        let out = scenarios
            .iter()
            .map(|&sc| self.cost_with(&mut ws, w, sc))
            .collect();
        self.release_workspace(ws);
        out
    }

    /// Incumbent-bounded batch evaluation: like
    /// [`evaluate_all`](Self::evaluate_all), but abandons the sweep as
    /// soon as the running input-order partial sum proves the batch's
    /// total cannot be lexicographically better than `incumbent`.
    ///
    /// Per-scenario costs are non-negative and IEEE addition of
    /// non-negative terms is monotone, so every prefix sum is a true
    /// lower bound of the completed sum; `better_than` is antitone in
    /// its left argument (see the lemma on [`LexCost::better_than`]), so
    /// `!prefix.better_than(incumbent)` proves that **no completion** of
    /// the sweep can beat the incumbent. Hill climbers that accept a
    /// candidate only when its compound cost beats the incumbent can
    /// therefore cut losing sweeps early without perturbing the search
    /// trajectory: a [`BoundedCosts::Complete`] result is bit-for-bit
    /// what `evaluate_all` returns, and a [`BoundedCosts::Cut`] result
    /// only ever replaces a sweep whose candidate would have been
    /// rejected anyway.
    ///
    /// `floors`, when given (one [`ScenarioFloor`] per scenario, e.g.
    /// from [`scenario_floor`](Self::scenario_floor)), tightens the
    /// rejection proof: the partial sum is extended by the summed floors
    /// of the scenarios not yet evaluated, which is still a lower bound
    /// of the completed sum (each floor bounds its scenario's cost from
    /// below componentwise, and the componentwise antitone lemma on
    /// [`LexCost::better_than`] carries the proof through the
    /// lexicographic comparison). Floors never change *whether* a sweep
    /// completes with a winning total — only how early a losing sweep is
    /// recognized.
    pub fn evaluate_all_bounded(
        &self,
        w: &WeightSetting,
        scenarios: &[Scenario],
        incumbent: &LexCost,
        floors: Option<&[ScenarioFloor]>,
    ) -> BoundedCosts {
        if let Some(fl) = floors {
            assert_eq!(fl.len(), scenarios.len(), "one floor per scenario");
        }
        // Suffix-summed floors: `suffix[i]` bounds the total cost of
        // scenarios `i..` from below for any weight setting.
        let mut suffix = vec![LexCost::ZERO; scenarios.len() + 1];
        if let Some(fl) = floors {
            for i in (0..scenarios.len()).rev() {
                suffix[i] = suffix[i + 1].add(&LexCost::new(fl[i].lambda, fl[i].phi));
            }
        }
        let mut ws = self.acquire_workspace();
        let mut costs = Vec::with_capacity(scenarios.len());
        let mut prefix = LexCost::ZERO;
        for &sc in scenarios {
            let c = self.cost_with(&mut ws, w, sc);
            prefix = prefix.add(&c);
            costs.push(c);
            if costs.len() < scenarios.len()
                && !prefix.add(&suffix[costs.len()]).better_than(incumbent)
            {
                self.release_workspace(ws);
                return BoundedCosts::Cut {
                    evaluated: costs.len(),
                };
            }
        }
        self.release_workspace(ws);
        BoundedCosts::Complete(costs)
    }

    /// Load- and routing-independent lower bound of the delay-class cost
    /// `Λ` under `scenario`: for every delay pair, any routing's
    /// end-to-end delay is at least the propagation-delay-shortest path
    /// under the scenario mask (Eq. 1 gives `D_l ≥ p_l`, queueing only
    /// adds), the SLA penalty (Eq. 2) is monotone in the pair delay, and
    /// pairs the mask disconnects pay the same disconnection penalty
    /// under every routing. Summing those per-pair floors therefore
    /// bounds `Λ` from below for **every** weight setting.
    ///
    /// Incumbent-bounded sweeps use these floors as stand-ins for
    /// scenarios not yet evaluated, which tightens the rejection proof
    /// from "the remaining scenarios cost at least nothing" to "at least
    /// their physical minimum" — on SLA-stressed workloads that is most
    /// of the incumbent's cost, so losing candidates are cut after a
    /// handful of scenarios instead of nearly all of them.
    ///
    /// The returned value is shaved by a relative `1e-9` guard so that
    /// floating-point evaluation-order effects (the floor and the real
    /// evaluation accumulate in different expression orders) can never
    /// lift the floor above an achievable `Λ`; the guard is orders of
    /// magnitude above the worst-case rounding slop and orders of
    /// magnitude below [`crate::LAMBDA_EPS`]'s resolution of genuine
    /// cost differences.
    pub fn lambda_floor(&self, scenario: Scenario) -> f64 {
        let mask = scenario.mask(self.net);
        let excluded = scenario.excluded_node().map(|v| v.index());
        let mut lambda = 0.0f64;
        for &t in &self.demand_dests[0] {
            let t = t as usize;
            if Some(t) == excluded {
                continue;
            }
            let dmin = dtr_routing::spf::min_cost_to(
                self.net,
                dtr_net::NodeId::new(t),
                &self.prop_delays,
                &mask,
            );
            for (s, &d) in dmin.iter().enumerate() {
                if s == t || Some(s) == excluded || self.traffic.delay.demand(s, t) <= 0.0 {
                    continue;
                }
                lambda += sla::pair_penalty(d, &self.params);
            }
        }
        lambda * (1.0 - 1e-9)
    }

    /// Load-aware, routing-independent lower bound of the congestion
    /// cost `Φ` under `scenario` — the congestion counterpart of
    /// [`lambda_floor`](Self::lambda_floor), computed entirely from
    /// workspace scratch (allocation-free after warm-up; registered in
    /// `crates/analysis/hot_paths.toml`).
    ///
    /// # Soundness
    ///
    /// `Φ` (see [`congestion::phi`]) sums `c_l · g(x_l / c_l)` over the
    /// links whose **throughput** load is positive, where `x_l` is the
    /// *total* load and `g` is the convex, non-decreasing Fortz–Thorup
    /// utilization cost with `g(0) = 0`. Three facts make cut-style
    /// floors sound for every weight setting:
    ///
    /// 1. **Jensen exactness over a cut.** Spreading a mandatory volume
    ///    `D` over links of total capacity `C` costs at least
    ///    `C · g(D / C)` = [`congestion::link_cost`]`(D, C)` — the convex
    ///    sum `Σ c_i g(x_i / c_i)` with `Σ x_i = D` is minimized by
    ///    loading every link to the same utilization `D / C`.
    /// 2. **Monotone in the volume, antitone in the capacity.** Counting
    ///    only part of the demand, or crediting the cut with *more*
    ///    capacity than survives, only lowers the bound — so restricting
    ///    to surviving (up-mask) links and throughput demand whose
    ///    destination is reachable is conservative.
    /// 3. **Every unit of throughput demand really crosses the cut, on
    ///    links Φ counts.** A routed unit from `s` to `t` crosses the
    ///    surviving out-cut of `s` at least once, the surviving in-cut
    ///    of `t` at least once, and traverses at least `minhop(s, t)`
    ///    links in total; each link it touches carries positive
    ///    throughput load, so Φ's per-link term applies — with
    ///    `x_l ≥` its throughput load (total load only adds).
    ///
    /// The three resulting bounds — per-source out-cuts, per-destination
    /// in-cuts, and the global min-hop volume over the whole surviving
    /// capacity — each bound the same Φ, but share links with one
    /// another, so they combine by **max**, not by sum. (The out-cuts are
    /// pairwise link-disjoint across sources, hence their *sum* is one
    /// bound; likewise the in-cuts.)
    ///
    /// Demand the mask disconnects is dropped from the bound (the
    /// reference evaluation routes none of it), and the excluded node of
    /// a node scenario sources and sinks nothing. Like `lambda_floor`,
    /// the result is shaved by a relative `1e-9` so cross-expression
    /// rounding can never lift the floor above an achievable Φ.
    pub fn phi_floor(&self, ws: &mut EvalWorkspace, scenario: Scenario) -> f64 {
        ws.bind(self.engine_id, self.net.num_links());
        let n = self.net.num_nodes();
        let EvalWorkspace {
            mask,
            floor_hops,
            floor_heap,
            floor_tput_out,
            floor_tput_in,
            floor_cap_out,
            floor_cap_in,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        let excluded = scenario.excluded_node().map(|v| v.index());

        // Surviving cut capacities: per-node out/in and network-wide.
        floor_cap_out.clear();
        floor_cap_out.resize(n, 0.0);
        floor_cap_in.clear();
        floor_cap_in.resize(n, 0.0);
        let mut cap_net = 0.0f64;
        for l in 0..self.net.num_links() {
            if mask.is_down(l) {
                continue;
            }
            let link = self.net.link(LinkId::new(l));
            let c = self.capacities[l];
            floor_cap_out[link.src.index()] += c;
            floor_cap_in[link.dst.index()] += c;
            cap_net += c;
        }

        // Surviving throughput demand per source / destination, and the
        // min-hop volume (each unit occupies at least `hops` links).
        floor_tput_out.clear();
        floor_tput_out.resize(n, 0.0);
        floor_tput_in.clear();
        floor_tput_in.resize(n, 0.0);
        let mut volume = 0.0f64;
        let tm = &self.traffic.throughput;
        for &t in &self.demand_dests[1] {
            let t = t as usize;
            if Some(t) == excluded {
                continue;
            }
            dtr_routing::spf::hops_to_into(
                self.net,
                dtr_net::NodeId::new(t),
                mask,
                floor_hops,
                floor_heap,
            );
            for s in 0..n {
                if s == t || Some(s) == excluded || floor_hops[s] == dtr_routing::UNREACHABLE {
                    continue;
                }
                let d = tm.demand(s, t);
                if d <= 0.0 {
                    continue;
                }
                floor_tput_out[s] += d;
                floor_tput_in[t] += d;
                volume += d * floor_hops[s] as f64;
            }
        }

        // Reachable demand leaving (entering) a node implies a surviving
        // out (in) link, so the cut capacities below are positive where
        // read — satisfying `link_cost`'s `c > 0` contract.
        let mut out_cut = 0.0f64;
        let mut in_cut = 0.0f64;
        for v in 0..n {
            if floor_tput_out[v] > 0.0 {
                out_cut += congestion::link_cost(floor_tput_out[v], floor_cap_out[v]);
            }
            if floor_tput_in[v] > 0.0 {
                in_cut += congestion::link_cost(floor_tput_in[v], floor_cap_in[v]);
            }
        }
        let volume_bound = if volume > 0.0 {
            congestion::link_cost(volume, cap_net)
        } else {
            0.0
        };
        out_cut.max(in_cut).max(volume_bound) * (1.0 - 1e-9)
    }

    /// Both components of the routing-independent per-scenario lower
    /// bound ([`lambda_floor`](Self::lambda_floor) +
    /// [`phi_floor`](Self::phi_floor)) as a [`ScenarioFloor`].
    pub fn scenario_floor(&self, ws: &mut EvalWorkspace, scenario: Scenario) -> ScenarioFloor {
        ScenarioFloor {
            lambda: self.lambda_floor(scenario),
            phi: self.phi_floor(ws, scenario),
        }
    }

    /// Scalar cost of one (weight setting, scenario) pair through the
    /// incremental engine, using the caller's workspace. Equals
    /// `self.evaluate(w, scenario).cost` bit-for-bit.
    pub fn cost_with(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
    ) -> LexCost {
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario, None)
    }

    /// Make `ws`'s per-class baselines describe the no-failure routing of
    /// `w`, repairing in place only destinations whose distance field the
    /// weight diff can actually touch (from-scratch routing only when no
    /// baseline exists yet).
    fn ensure_baseline(&self, ws: &mut EvalWorkspace, w: &WeightSetting) {
        ws.bind(self.engine_id, self.net.num_links());
        ws.mask.reset_all_up();
        let EvalWorkspace {
            spf,
            mask,
            diff,
            base,
            ..
        } = ws;
        for (ci, class) in Class::ALL.iter().enumerate() {
            let weights = w.weights(*class);
            let tm = self.class_matrix(*class);
            let dests = &self.demand_dests[ci];
            let b = &mut base[ci];
            if b.valid && b.weights.len() == weights.len() {
                diff.clear();
                diff.extend(
                    b.weights
                        .iter()
                        .zip(weights)
                        .enumerate()
                        .filter(|(_, (o, n))| o != n)
                        .map(|(l, (&o, &n))| WeightChange {
                            link: LinkId::new(l),
                            old: o,
                            new: n,
                        }),
                );
                if diff.is_empty() {
                    continue;
                }
                for (di, &t) in dests.iter().enumerate() {
                    if weight_change_affects(self.net, &b.state[di].dist, diff) {
                        route_destination_reweight(
                            self.net,
                            &b.weights,
                            weights,
                            diff,
                            tm,
                            mask,
                            t as usize,
                            spf,
                            &mut b.state[di],
                        );
                    }
                }
                b.weights.copy_from_slice(weights);
            } else {
                b.state.resize_with(dests.len(), DestRouting::default);
                for (di, &t) in dests.iter().enumerate() {
                    route_destination(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        spf,
                        &mut b.state[di],
                    );
                }
                b.weights.clear();
                b.weights.extend_from_slice(weights);
                b.valid = true;
            }
        }
    }

    /// Reset the cache to describe incumbent `w` with `positions`
    /// scenario slots (keeping allocations) and capture the incumbent's
    /// no-failure baseline routing per class. Every entry must then be
    /// (re-)captured with [`cost_capture`](Self::cost_capture) /
    /// [`cost_capture_into`](Self::cost_capture_into) before candidates
    /// evaluate through [`cost_cached`](Self::cost_cached).
    pub fn cache_rebuild_begin(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        positions: usize,
    ) {
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        // Route (or diff-update) the workspace baseline, then copy it
        // into the cache: both are the same `route_destination` bits.
        self.ensure_baseline(ws, w);
        for (ci, class) in Class::ALL.iter().enumerate() {
            cache.weights[ci].clear();
            cache.weights[ci].extend_from_slice(w.weights(*class));
            let dests = &self.demand_dests[ci];
            cache.base[ci].resize_with(dests.len(), DestRouting::default);
            for (di, slot) in cache.base[ci].iter_mut().enumerate() {
                slot.clone_from(&ws.base[ci].state[di]);
            }
        }
        cache.entries.resize_with(positions, ScenarioEntry::default);
        for e in &mut cache.entries {
            e.delay.clear();
            e.tput.clear();
        }
        // Unbounded caches are fully resident up front; bounded ones
        // start at zero until `plan_residency` measures the first
        // captured entry.
        cache.resident = if cache.budget == usize::MAX {
            positions
        } else {
            0
        };
        cache.partial = 0;
        cache.generation = next_engine_id();
    }

    /// Compute the per-class weight diff of candidate `w` against the
    /// cache's incumbent, preparing [`cost_cached`](Self::cost_cached)
    /// calls. Returns the total number of changed directed (class, link)
    /// slots.
    pub fn cache_begin(&self, cache: &mut ScenarioCache, w: &WeightSetting) -> usize {
        let mut changed = 0;
        for (ci, class) in Class::ALL.iter().enumerate() {
            let weights = w.weights(*class);
            assert_eq!(
                cache.weights[ci].len(),
                weights.len(),
                "cache incumbent and candidate disagree on link count"
            );
            cache.diff[ci].clear();
            cache.diff[ci].extend(
                cache.weights[ci]
                    .iter()
                    .zip(weights)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(l, (&o, &n))| WeightChange {
                        link: LinkId::new(l),
                        old: o,
                        new: n,
                    }),
            );
            changed += cache.diff[ci].len();
        }
        cache.generation = next_engine_id();
        changed
    }

    /// [`cost_with`](Self::cost_with) that also captures the scenario's
    /// full delta-state into `cache.entries[pos]` — the cache (re)build
    /// path, run over the incumbent setting. The returned cost is
    /// bit-for-bit the plain evaluation's.
    pub fn cost_capture(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &mut ScenarioCache,
        pos: usize,
    ) -> LexCost {
        debug_assert_eq!(
            cache.weights[0],
            w.weights(Class::Delay),
            "capture must run on the cache incumbent"
        );
        let (base, entries) = cache.capture_split();
        self.cost_capture_into(ws, w, scenario, base, &mut entries[pos])
    }

    /// Entry-level form of [`cost_capture`](Self::cost_capture):
    /// captures into one caller-held [`ScenarioEntry`] (cleared first),
    /// reading the shared incumbent baseline from
    /// [`ScenarioCache::capture_split`]. Entries are position-disjoint,
    /// so a cache rebuild can shard its capture sweep across workers,
    /// each holding a disjoint slice of the entries.
    pub fn cost_capture_into(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        base: &[Vec<DestRouting>; 2],
        entry: &mut ScenarioEntry,
    ) -> LexCost {
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        entry.delay.clear();
        entry.tput.clear();
        entry.sla_resident = true;
        self.ensure_baseline(ws, w);
        let cost = self.cost_scenario(ws, w, scenario, Some(entry));
        let excluded = scenario.excluded_node().map(|v| v.index());

        // Resident state: the folded incumbent evaluation, verbatim.
        for ci in 0..2 {
            entry.loads[ci].clone_from(&ws.class_loads[ci]);
        }
        entry.link_delays.clone_from(&ws.link_delays);
        entry.pairs.clone_from(&ws.pair_delays);
        // Segment offsets: triples carry their destination, and the
        // emission loop walked delay destinations ascending.
        entry.pair_off.clear();
        entry.pair_off.push(0);
        let mut k = 0usize;
        for &t in &self.demand_dests[0] {
            while k < entry.pairs.len() && entry.pairs[k].1 == t as usize {
                k += 1;
            }
            entry.pair_off.push(k as u32);
        }
        debug_assert_eq!(k, entry.pairs.len(), "pair segments must cover all triples");
        // Contributor lists from the effective routing of every
        // destination: the entry's recomputed routing where the mask
        // affected it, the incumbent baseline elsewhere, nothing for the
        // excluded node.
        let ScenarioEntry {
            delay,
            tput,
            contrib,
            ..
        } = entry;
        for (ci, cb) in contrib.iter_mut().enumerate() {
            let list: &[(u32, DestRouting)] = if ci == 0 { delay } else { tput };
            let dests = &self.demand_dests[ci];
            cb.rebuild(self.net.num_links(), dests.len(), |di| {
                effective_adds(list, &base[ci], dests, excluded, di)
            });
        }
        cost
    }

    /// Delta-state candidate evaluation through the scenario cache:
    /// re-routes only destinations the candidate diff can touch, refolds
    /// only the links whose contributor set changed, and re-runs the SLA
    /// delay DP only where the routing or an on-DAG link delay changed —
    /// everything else is read back from the resident incumbent state.
    /// Requires a preceding [`cache_begin`](Self::cache_begin) for this
    /// exact `w`; the result is bit-for-bit
    /// [`cost_with`](Self::cost_with)'s (see the module docs for the
    /// exactness argument).
    pub fn cost_cached(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &ScenarioCache,
        pos: usize,
    ) -> LexCost {
        let num_links = self.net.num_links();
        assert_eq!(w.num_links(), num_links, "weight size mismatch");
        // The workspace baseline tracks the *candidate*: within one
        // candidate's sweep every scenario shares it, so move-touched
        // destinations pay their baseline re-route once per candidate,
        // not once per scenario.
        self.ensure_baseline(ws, w);
        // Exact per-destination baseline diff vs the cache incumbent,
        // computed once per (candidate, cache generation) and shared by
        // the whole scenario sweep: a destination is baseline-changed
        // only when its distance field or DAG actually moved — the
        // conservative predicate's false positives (the common case for
        // a one-duplex-link re-draw) would otherwise re-run per-scenario
        // delay DPs for bit-identical routings.
        if ws.cand_gen != cache.generation {
            ws.cand_gen = cache.generation;
            for ci in 0..2 {
                let dests = &self.demand_dests[ci];
                let basec = &cache.base[ci];
                assert_eq!(
                    basec.len(),
                    dests.len(),
                    "cache baseline missing; run cache_rebuild_begin first"
                );
                let diffc = &cache.diff[ci];
                let flags = &mut ws.base_same[ci];
                flags.clear();
                flags.resize(dests.len(), false);
                for (di, flag) in flags.iter_mut().enumerate() {
                    *flag = diffc.is_empty()
                        || baseline_unchanged(
                            self.net,
                            &ws.base[ci].state[di].dist,
                            &basec[di].dist,
                            diffc,
                        );
                }
            }
        }
        let epoch = ws.next_epoch();
        let entry = &cache.entries[pos];
        let full = entry.sla_resident;
        debug_assert_eq!(
            entry.loads[0].len(),
            num_links,
            "cost_cached requires a captured entry"
        );
        debug_assert!(
            !full || entry.link_delays.len() == num_links,
            "fully resident entries must hold their link delays"
        );
        let excluded = scenario.excluded_node().map(|v| v.index());
        let EvalWorkspace {
            spf,
            mask,
            down,
            base: ws_base,
            scratch,
            scratch_map,
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            changed,
            link_mark,
            dirty,
            pair_dirty,
            new_adds,
            base_same,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));
        if link_mark.len() != num_links {
            link_mark.clear();
            link_mark.resize(num_links, 0);
        }
        dirty.clear();
        pair_dirty.clear();
        let mut scratch_used = 0usize;

        // Pass 1 per class: classify every destination against the
        // candidate diff, re-route the ones whose effective routing
        // really moved, and collect their old/new contribution links
        // (dirty set) and fresh shares. Fresh routings of both classes
        // persist in the scratch pool so pass 2 can replay them.
        for (ci, class) in Class::ALL.iter().enumerate() {
            let weights = w.weights(*class);
            let tm = self.class_matrix(*class);
            let dests = &self.demand_dests[ci];
            let base = &cache.base[ci];
            let diffc = &cache.diff[ci];
            let list: &[(u32, DestRouting)] = if ci == 0 { &entry.delay } else { &entry.tput };
            let ch = &mut changed[ci];
            ch.resize(dests.len(), 0);
            new_adds[ci].clear();
            let map = &mut scratch_map[ci];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            let mut cursor = 0usize;
            for (di, &t) in dests.iter().enumerate() {
                while cursor < list.len() && list[cursor].0 < di as u32 {
                    cursor += 1;
                }
                let hit = cursor < list.len() && list[cursor].0 == di as u32;
                if Some(t as usize) == excluded {
                    continue;
                }
                // Resolve this destination's candidate-effective routing,
                // without a fresh route where a cached one provably
                // survives the diff.
                let (old_r, fresh_code): (Option<&DestRouting>, u32) = if base_same[ci][di] {
                    if !hit {
                        // Baseline destination, baseline provably
                        // bit-identical to the incumbent's.
                        continue;
                    }
                    let hr = &list[cursor].1;
                    if diffc.is_empty() || !weight_change_affects(self.net, &hr.dist, diffc) {
                        // Mask-affected but the cached scenario routing
                        // survives the diff: resident state covers it.
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    // mask ∩ move: re-route under the scenario mask,
                    // keeping the result only if it really moved (the
                    // exact diff filters the predicate's false
                    // positives, saving the dirty-link pollution and
                    // the delay-DP recompute).
                    if scratch.len() == scratch_used {
                        scratch.push(DestRouting::default());
                    }
                    route_destination_repair(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        &ws_base[ci].state[di],
                        spf,
                        &mut scratch[scratch_used],
                    );
                    if baseline_unchanged(self.net, &scratch[scratch_used].dist, &hr.dist, diffc) {
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    (Some(hr), scratch_used as u32)
                } else {
                    // The diff really moved this destination's baseline.
                    // Its *scenario* routing may still survive: when it
                    // is mask-affected under both settings, the cached
                    // scenario routing is reusable whenever the diff
                    // provably cannot change it — the predicate's
                    // false-contract holds for any distance field.
                    let affected = !down.is_empty()
                        && dag_uses_any(self.net, &ws_base[ci].state[di].dist, weights, down);
                    if !affected {
                        // Effective routing is the candidate baseline —
                        // already maintained, no route needed.
                        let old: &DestRouting = if hit { &list[cursor].1 } else { &base[di] };
                        (Some(old), WS_BASE)
                    } else {
                        if hit {
                            let hr = &list[cursor].1;
                            if diffc.is_empty() || !weight_change_affects(self.net, &hr.dist, diffc)
                            {
                                map[di] = CACHED_BIT | cursor as u32;
                                continue;
                            }
                        }
                        if scratch.len() == scratch_used {
                            scratch.push(DestRouting::default());
                        }
                        route_destination_repair(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            &ws_base[ci].state[di],
                            spf,
                            &mut scratch[scratch_used],
                        );
                        if hit {
                            let hr = &list[cursor].1;
                            if baseline_unchanged(
                                self.net,
                                &scratch[scratch_used].dist,
                                &hr.dist,
                                diffc,
                            ) {
                                map[di] = CACHED_BIT | cursor as u32;
                                continue;
                            }
                        }
                        let old: &DestRouting = if hit { &list[cursor].1 } else { &base[di] };
                        (Some(old), scratch_used as u32)
                    }
                };
                // Genuine change: mark it, collect old and fresh adds.
                ch[di] = epoch;
                map[di] = fresh_code;
                if fresh_code != WS_BASE {
                    scratch_used += 1;
                }
                if let Some(old) = old_r {
                    for &(l, _) in old.load_adds() {
                        if link_mark[l as usize] != epoch {
                            link_mark[l as usize] = epoch;
                            dirty.push(l);
                        }
                    }
                }
                let fresh: &DestRouting = if fresh_code == WS_BASE {
                    &ws_base[ci].state[di]
                } else {
                    &scratch[fresh_code as usize]
                };
                for &(l, share) in fresh.load_adds() {
                    if link_mark[l as usize] != epoch {
                        link_mark[l as usize] = epoch;
                        dirty.push(l);
                    }
                    new_adds[ci].push((l, di as u32, share));
                }
            }
        }
        // Pass 2: per-class candidate loads. When few links are dirty,
        // read the residents and refold only the dirty links in
        // destination-index order over the stored contributions; when a
        // large move dirtied most of the network, a straight replay of
        // every destination's effective adds (the same destination-order
        // float sequence) is cheaper than per-link merges — both produce
        // the reference accumulation bit for bit.
        let use_refold = dirty.len() * 4 < num_links;
        for (ci, _class) in Class::ALL.iter().enumerate() {
            let loads = &mut class_loads[ci];
            if use_refold {
                loads.clear();
                loads.extend_from_slice(&entry.loads[ci]);
                new_adds[ci].sort_unstable_by_key(|&(l, d, _)| (l, d));
                let adds = &new_adds[ci];
                let ch = &changed[ci];
                for &l in dirty.iter() {
                    let lo = adds.partition_point(|&(al, _, _)| al < l);
                    let hi = lo + adds[lo..].partition_point(|&(al, _, _)| al == l);
                    loads[l as usize] =
                        refold_link(entry.contrib[ci].row(l as usize), &adds[lo..hi], |d| {
                            ch[d as usize] == epoch
                        });
                }
            } else {
                loads.clear();
                loads.resize(num_links, 0.0);
                let mut dropped = 0.0f64;
                let dests = &self.demand_dests[ci];
                let list: &[(u32, DestRouting)] = if ci == 0 { &entry.delay } else { &entry.tput };
                for (di, &t) in dests.iter().enumerate() {
                    if Some(t as usize) == excluded {
                        continue;
                    }
                    let r: &DestRouting = match scratch_map[ci][di] {
                        NOT_RECOMPUTED => &cache.base[ci][di],
                        WS_BASE => &ws_base[ci].state[di],
                        code if code & CACHED_BIT != 0 => &list[(code & !CACHED_BIT) as usize].1,
                        slot => &scratch[slot as usize],
                    };
                    r.replay(loads, &mut dropped);
                }
            }
        }

        // Totals and per-link delays: elementwise totals as in
        // `cost_with` (identical inputs ⇒ identical bits); delays read
        // back from the resident state and recomputed only at dirty
        // links — keeping only the ones that actually changed bitwise
        // for the pair-delay reuse decision below.
        total_loads.clear();
        total_loads.extend(
            class_loads[0]
                .iter()
                .zip(&class_loads[1])
                .map(|(x, y)| x + y),
        );
        link_delays.clear();
        if full {
            link_delays.extend_from_slice(&entry.link_delays);
            for &l in dirty.iter() {
                let li = l as usize;
                let d = delay_model::link_delay(
                    total_loads[li],
                    self.capacities[li],
                    self.prop_delays[li],
                    &self.params,
                );
                if d.to_bits() != link_delays[li].to_bits() {
                    link_delays[li] = d;
                    pair_dirty.push(l);
                }
            }
        } else {
            // Partial residency: no resident delays to patch — recompute
            // every link from the candidate totals. Bit-identical: links
            // without a contributor change carry bitwise the incumbent's
            // total load, and `link_delay` is a pure function of it.
            // `pair_dirty` stays empty, which is fine: with no resident
            // pair segments to splice, every destination below re-runs
            // the DP regardless.
            link_delays.extend(total_loads.iter().enumerate().map(|(li, &t)| {
                delay_model::link_delay(t, self.capacities[li], self.prop_delays[li], &self.params)
            }));
        }

        // Pass 3: SLA pairs — resident segments for destinations whose
        // routing is unchanged and whose DAG sees no changed delay; the
        // shared DP kernel for the rest.
        let weights_d = w.weights(Class::Delay);
        let take_max = matches!(self.params.aggregation, DelayAggregation::Max);
        pair_delays.clear();
        for (di, &t) in self.demand_dests[0].iter().enumerate() {
            if Some(t as usize) == excluded {
                continue;
            }
            let code = scratch_map[0][di];
            let dest: &DestRouting = if code == NOT_RECOMPUTED {
                &cache.base[0][di]
            } else if code == WS_BASE {
                &ws_base[0].state[di]
            } else if code & CACHED_BIT != 0 {
                &entry.delay[(code & !CACHED_BIT) as usize].1
            } else {
                &scratch[code as usize]
            };
            if full
                && (code == NOT_RECOMPUTED || code & CACHED_BIT != 0)
                && (pair_dirty.is_empty()
                    || !dag_uses_any(self.net, &dest.dist, weights_d, pair_dirty))
            {
                let s = entry.pair_off[di] as usize;
                let e = entry.pair_off[di + 1] as usize;
                pair_delays.extend_from_slice(&entry.pairs[s..e]);
                continue;
            }
            delay::pair_delays_into(
                self.net,
                &dest.dist,
                &dest.order,
                weights_d,
                mask,
                link_delays,
                take_max,
                &self.traffic.delay,
                t as usize,
                excluded,
                node_delay,
                pair_delays,
            );
        }

        let sla = sla::summarize(&*pair_delays, &self.params);
        let phi = congestion::phi(total_loads, &class_loads[1], &self.capacities);
        LexCost::new(sla.lambda, phi)
    }

    /// Re-point the cache at a new incumbent `w` incrementally: the
    /// accept-path maintenance of the hill climbers. Baseline and
    /// per-scenario routings whose `cache.weights → w` diff provably
    /// cannot change (see [`weight_change_affects`]) are kept as-is; the
    /// rest are repaired under `w`, and the resident folded state
    /// (loads, contributor lists, link delays, pair segments) is updated
    /// to describe `w` exactly. Unlike the pre-delta cache, coverage is
    /// maintained **exactly**: destinations entering or leaving a
    /// scenario's mask-affected set are spliced into or out of its entry,
    /// so no periodic full rebuild is needed.
    /// This serial form wraps the three-stage refresh —
    /// [`cache_refresh_begin`](Self::cache_refresh_begin), one
    /// [`cache_refresh_entry`](Self::cache_refresh_entry) per resident
    /// position, [`cache_refresh_finish`](Self::cache_refresh_finish) —
    /// which multicore accept paths shard across workers with
    /// bit-identical results (see the parallel-search contract in
    /// `DETERMINISM.md`).
    pub fn cache_refresh(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        scenario_at: impl Fn(usize) -> Scenario,
    ) {
        self.cache_refresh_begin(ws, cache, w);
        let resident = cache.resident + cache.partial;
        let (ctx, entries) = cache.refresh_split();
        for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
            self.cache_refresh_entry(ws, w, &ctx, scenario_at(pos), entry);
        }
        self.cache_refresh_finish(cache, w);
    }

    /// Stage 1 of the incremental refresh: compute the incumbent → `w`
    /// per-class weight diff into the cache, and update the cached
    /// no-failure baseline, recording in the cache's shared refresh
    /// flags exactly which destinations *really* moved. Serial — runs
    /// once per accepted candidate; the per-entry stage it feeds
    /// ([`cache_refresh_entry`](Self::cache_refresh_entry)) is the
    /// shardable part.
    pub fn cache_refresh_begin(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
    ) {
        let num_links = self.net.num_links();
        assert_eq!(w.num_links(), num_links, "weight size mismatch");
        ws.bind(self.engine_id, num_links);
        let ScenarioCache {
            weights,
            base,
            diff,
            refresh_changed,
            ..
        } = cache;
        for (ci, class) in Class::ALL.iter().enumerate() {
            let new = w.weights(*class);
            assert_eq!(weights[ci].len(), new.len(), "link count mismatch");
            diff[ci].clear();
            diff[ci].extend(
                weights[ci]
                    .iter()
                    .zip(new)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(l, (&o, &n))| WeightChange {
                        link: LinkId::new(l),
                        old: o,
                        new: n,
                    }),
            );
        }

        // Baseline update: repair the destinations the diff can touch
        // (on a copy, so the old record survives the comparison),
        // remembering which *really* moved (their routings may enter or
        // leave any scenario's affected set). The conservative
        // predicate's false positives are filtered with the exact
        // [`baseline_unchanged`] diff so bit-identical repairs don't
        // churn entries or re-run delay DPs downstream.
        let mut tmp = std::mem::take(&mut ws.refresh_tmp);
        for (ci, class) in Class::ALL.iter().enumerate() {
            let class_weights = w.weights(*class);
            let tm = self.class_matrix(*class);
            let dests = &self.demand_dests[ci];
            assert_eq!(
                base[ci].len(),
                dests.len(),
                "cache baseline missing; run cache_rebuild_begin first"
            );
            refresh_changed[ci].clear();
            refresh_changed[ci].resize(dests.len(), false);
            for (di, &t) in dests.iter().enumerate() {
                if diff[ci].is_empty()
                    || !weight_change_affects(self.net, &base[ci][di].dist, &diff[ci])
                {
                    continue;
                }
                tmp.clone_from(&base[ci][di]);
                route_destination_reweight(
                    self.net,
                    &weights[ci],
                    class_weights,
                    &diff[ci],
                    tm,
                    &ws.up_mask,
                    t as usize,
                    &mut ws.spf,
                    &mut tmp,
                );
                if !baseline_unchanged(self.net, &tmp.dist, &base[ci][di].dist, &diff[ci]) {
                    std::mem::swap(&mut base[ci][di], &mut tmp);
                    refresh_changed[ci][di] = true;
                }
            }
        }
        ws.refresh_tmp = tmp;
    }

    /// Stage 2 of the incremental refresh: update one resident entry —
    /// routings, contributor lists, loads and (for fully resident
    /// entries) link delays and pair segments, all in place. The result
    /// is a pure function of (entry, `ctx`, `w`, scenario), entries are
    /// position-disjoint, and `ctx` is read-only, so an accept path may
    /// shard the resident entries across workers in contiguous
    /// index-order chunks (each worker with its own pooled workspace)
    /// and splice bit-identically to the serial loop at any worker
    /// count — the sharded-refresh splice invariant in `DETERMINISM.md`.
    /// Steady-state allocation-free per worker: the old affected list
    /// drains through the workspace spare buffer, surviving routings
    /// move, leavers park in the routing pool, and newcomers reuse
    /// pooled buffers (pool contents are never read — re-routes fully
    /// overwrite them).
    pub fn cache_refresh_entry(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        ctx: &RefreshCtx<'_>,
        scenario: Scenario,
        entry: &mut ScenarioEntry,
    ) {
        let num_links = self.net.num_links();
        ws.bind(self.engine_id, num_links);
        let RefreshCtx {
            base,
            diff,
            changed: base_changed,
        } = *ctx;
        scenario.mask_into(self.net, &mut ws.mask);
        ws.down.clear();
        ws.down.extend(ws.mask.down_links().map(|i| i as u32));
        let excluded = scenario.excluded_node().map(|v| v.index());
        let epoch = ws.next_epoch();
        let mut tmp = std::mem::take(&mut ws.refresh_tmp);
        let mut spare = std::mem::take(&mut ws.refresh_list);
        let mut pool = std::mem::take(&mut ws.routing_pool);

        for (ci, class) in Class::ALL.iter().enumerate() {
            let class_weights = w.weights(*class);
            let tm = self.class_matrix(*class);
            let dests = &self.demand_dests[ci];
            let ch = &mut ws.changed[ci];
            ch.resize(dests.len(), 0);
            let list = if ci == 0 {
                &mut entry.delay
            } else {
                &mut entry.tput
            };
            // Rebuild the affected list, moving surviving routings:
            // membership only moves where the baseline moved.
            std::mem::swap(list, &mut spare);
            list.clear();
            let mut it = spare.drain(..).peekable();
            for (di, &t) in dests.iter().enumerate() {
                let hit = it
                    .peek()
                    .is_some_and(|(d, _)| *d == di as u32)
                    .then(|| it.next().unwrap().1);
                while it.peek().is_some_and(|(d, _)| *d < di as u32) {
                    // Cannot happen (lists are ascending and dense in
                    // di), but stay robust.
                    pool.push(it.next().unwrap().1);
                }
                if Some(t as usize) == excluded {
                    if let Some(r) = hit {
                        pool.push(r);
                    }
                    continue;
                }
                if base_changed[ci][di] {
                    let affected = !ws.down.is_empty()
                        && dag_uses_any(self.net, &base[ci][di].dist, class_weights, &ws.down);
                    if affected {
                        // The cached scenario routing survives when
                        // the diff provably cannot change it.
                        if let Some(routing) = hit {
                            if diff[ci].is_empty()
                                || !weight_change_affects(self.net, &routing.dist, &diff[ci])
                            {
                                list.push((di as u32, routing));
                                continue;
                            }
                            let mut routing = routing;
                            route_destination_repair(
                                self.net,
                                class_weights,
                                tm,
                                &ws.mask,
                                t as usize,
                                &base[ci][di],
                                &mut ws.spf,
                                &mut tmp,
                            );
                            if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[ci]) {
                                ch[di] = epoch;
                                std::mem::swap(&mut routing, &mut tmp);
                            }
                            list.push((di as u32, routing));
                            continue;
                        }
                        ch[di] = epoch;
                        let mut routing = pool.pop().unwrap_or_default();
                        route_destination_repair(
                            self.net,
                            class_weights,
                            tm,
                            &ws.mask,
                            t as usize,
                            &base[ci][di],
                            &mut ws.spf,
                            &mut routing,
                        );
                        list.push((di as u32, routing));
                    } else {
                        // Not affected: the destination leaves (or
                        // stays out of) the entry; its effective
                        // routing is the freshly updated baseline.
                        ch[di] = epoch;
                        if let Some(r) = hit {
                            pool.push(r);
                        }
                    }
                } else if let Some(mut routing) = hit {
                    if !diff[ci].is_empty()
                        && weight_change_affects(self.net, &routing.dist, &diff[ci])
                    {
                        route_destination_repair(
                            self.net,
                            class_weights,
                            tm,
                            &ws.mask,
                            t as usize,
                            &base[ci][di],
                            &mut ws.spf,
                            &mut tmp,
                        );
                        if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[ci]) {
                            ch[di] = epoch;
                            std::mem::swap(&mut routing, &mut tmp);
                        }
                    }
                    list.push((di as u32, routing));
                }
            }
            for (_, r) in it {
                pool.push(r);
            }

            // Contributor lists + full refold (cheap: one pass over
            // the effective adds — the per-link fold in destination
            // order gives bit-for-bit the reference accumulation for
            // *every* link, dirty or not).
            let list: &[(u32, DestRouting)] = list;
            let basec = &base[ci];
            entry.contrib[ci].rebuild(num_links, dests.len(), |di| {
                effective_adds(list, basec, dests, excluded, di)
            });
            let loads = &mut entry.loads[ci];
            loads.clear();
            loads.resize(num_links, 0.0);
            for (l, load) in loads.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for &(_, share) in entry.contrib[ci].row(l) {
                    acc += share;
                }
                *load = acc;
            }
        }
        ws.refresh_tmp = tmp;
        ws.refresh_list = spare;
        ws.routing_pool = pool;
        if !entry.sla_resident {
            // Partial tier: no resident SLA segments to maintain —
            // candidate evaluations recompute delays and pair DPs from
            // the (just refreshed) loads, bit-identically.
            return;
        }

        // Delays: recompute, remembering which changed bitwise.
        ws.total_loads.clear();
        ws.total_loads.extend(
            entry.loads[0]
                .iter()
                .zip(&entry.loads[1])
                .map(|(x, y)| x + y),
        );
        ws.pair_dirty.clear();
        for (l, old) in entry.link_delays.iter_mut().enumerate() {
            let d = delay_model::link_delay(
                ws.total_loads[l],
                self.capacities[l],
                self.prop_delays[l],
                &self.params,
            );
            if d.to_bits() != old.to_bits() {
                *old = d;
                ws.pair_dirty.push(l as u32);
            }
        }

        // Pair segments: recompute only destinations whose routing
        // changed or whose DAG sees a changed delay; splice the rest
        // from the old resident list.
        let weights_d = w.weights(Class::Delay);
        let take_max = matches!(self.params.aggregation, DelayAggregation::Max);
        ws.pair_delays.clear();
        let mut cursor = 0usize;
        let list = &entry.delay;
        let new_offs = &mut ws.off_scratch;
        new_offs.clear();
        new_offs.push(0);
        for (di, &t) in self.demand_dests[0].iter().enumerate() {
            if Some(t as usize) != excluded {
                while cursor < list.len() && list[cursor].0 < di as u32 {
                    cursor += 1;
                }
                let hit = cursor < list.len() && list[cursor].0 == di as u32;
                let dest: &DestRouting = if hit { &list[cursor].1 } else { &base[0][di] };
                let routing_changed = ws.changed[0][di] == epoch;
                if !routing_changed
                    && (ws.pair_dirty.is_empty()
                        || !dag_uses_any(self.net, &dest.dist, weights_d, &ws.pair_dirty))
                {
                    let s = entry.pair_off[di] as usize;
                    let e = entry.pair_off[di + 1] as usize;
                    ws.pair_delays.extend_from_slice(&entry.pairs[s..e]);
                } else {
                    delay::pair_delays_into(
                        self.net,
                        &dest.dist,
                        &dest.order,
                        weights_d,
                        &ws.mask,
                        &entry.link_delays,
                        take_max,
                        &self.traffic.delay,
                        t as usize,
                        excluded,
                        &mut ws.node_delay,
                        &mut ws.pair_delays,
                    );
                }
            }
            new_offs.push(ws.pair_delays.len() as u32);
        }
        entry.pairs.clone_from(&ws.pair_delays);
        entry.pair_off.clone_from(new_offs);
    }

    /// Stage 3 of the incremental refresh: adopt `w` as the cache's
    /// incumbent and advance the generation stamp. Call exactly once,
    /// after every [`cache_refresh_entry`](Self::cache_refresh_entry)
    /// of the refresh has completed.
    pub fn cache_refresh_finish(&self, cache: &mut ScenarioCache, w: &WeightSetting) {
        for (buf, class) in cache.weights.iter_mut().zip(Class::ALL) {
            buf.clear();
            buf.extend_from_slice(w.weights(class));
        }
        cache.generation = next_engine_id();
    }

    /// Evaluate one scenario (any kind) against a valid workspace
    /// baseline, optionally capturing the recomputed routings into a
    /// scenario-cache entry.
    fn cost_scenario(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        mut capture: Option<&mut ScenarioEntry>,
    ) -> LexCost {
        // Node failures also remove the dead node's traffic; the mask
        // makes that self-enforcing for loads (see the module docs), and
        // the routing/SLA loops below skip the node explicitly where the
        // base matrices still mention it.
        let excluded = scenario.excluded_node().map(|v| v.index());
        let EvalWorkspace {
            spf,
            mask,
            down,
            base,
            scratch,
            scratch_map,
            tput_scratch,
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));

        // Route (or replay) both classes. The delay class keeps its
        // recomputed destinations around: their distance fields feed the
        // end-to-end delay DP below.
        let mut scratch_used = 0usize;
        let mut dropped = 0.0f64; // diagnostic only; never in the cost
        for (ci, class) in Class::ALL.iter().enumerate() {
            let weights = w.weights(*class);
            let tm = self.class_matrix(*class);
            let dests = &self.demand_dests[ci];
            let loads = &mut class_loads[ci];
            loads.clear();
            loads.resize(self.net.num_links(), 0.0);
            if ci == 0 {
                scratch_map[0].clear();
                scratch_map[0].resize(dests.len(), NOT_RECOMPUTED);
            }
            for (di, &t) in dests.iter().enumerate() {
                if Some(t as usize) == excluded {
                    // The dead node sinks nothing under its own failure;
                    // the reference path (zeroed column) never routes it.
                    continue;
                }
                let b = &base[ci].state[di];
                let affected = !down.is_empty() && dag_uses_any(self.net, &b.dist, weights, down);
                if !affected {
                    b.replay(loads, &mut dropped);
                    continue;
                }
                // A mask-affected destination is *repaired* from the
                // resident no-failure baseline (orphan detection plus a
                // boundary Dijkstra — bit-equal to a from-scratch route,
                // see `route_destination_repair`) instead of paying a
                // full Dijkstra; `ensure_baseline` guarantees `b` is the
                // all-up routing of these exact weights.
                if ci == 0 {
                    if scratch.len() == scratch_used {
                        scratch.push(DestRouting::default());
                    }
                    let dest = &mut scratch[scratch_used];
                    if self.plain_repair {
                        route_destination_repair(
                            self.net, weights, tm, mask, t as usize, b, spf, dest,
                        );
                    } else {
                        route_destination(self.net, weights, tm, mask, t as usize, spf, dest);
                    }
                    dest.replay(loads, &mut dropped);
                    scratch_map[0][di] = scratch_used as u32;
                    scratch_used += 1;
                    if let Some(entry) = capture.as_mut() {
                        entry
                            .delay
                            .push((di as u32, scratch[scratch_used - 1].clone()));
                    }
                } else {
                    if self.plain_repair {
                        route_destination_repair(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            b,
                            spf,
                            tput_scratch,
                        );
                    } else {
                        route_destination(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            spf,
                            tput_scratch,
                        );
                    }
                    tput_scratch.replay(loads, &mut dropped);
                    if let Some(entry) = capture.as_mut() {
                        entry.tput.push((di as u32, tput_scratch.clone()));
                    }
                }
            }
        }

        // Total loads, link delays (same element-wise operations as the
        // reference path).
        total_loads.clear();
        total_loads.extend(
            class_loads[0]
                .iter()
                .zip(&class_loads[1])
                .map(|(x, y)| x + y),
        );
        delay_model::link_delays_into(
            total_loads,
            &self.capacities,
            &self.prop_delays,
            &self.params,
            link_delays,
        );

        // Per-pair end-to-end delays of the delay class (shared kernel;
        // the order field is cached, not recomputed).
        let weights_d = w.weights(Class::Delay);
        let take_max = matches!(self.params.aggregation, DelayAggregation::Max);
        pair_delays.clear();
        for (di, &t) in self.demand_dests[0].iter().enumerate() {
            if Some(t as usize) == excluded {
                continue;
            }
            let dest = match scratch_map[0][di] {
                NOT_RECOMPUTED => &base[0].state[di],
                slot => &scratch[slot as usize],
            };
            delay::pair_delays_into(
                self.net,
                &dest.dist,
                &dest.order,
                weights_d,
                mask,
                link_delays,
                take_max,
                &self.traffic.delay,
                t as usize,
                excluded,
                node_delay,
                pair_delays,
            );
        }

        let sla = sla::summarize(&*pair_delays, &self.params);
        let phi = congestion::phi(total_loads, &class_loads[1], &self.capacities);
        LexCost::new(sla.lambda, phi)
    }

    #[inline]
    fn class_matrix(&self, class: Class) -> &TrafficMatrix {
        match class {
            Class::Delay => &self.traffic.delay,
            Class::Throughput => &self.traffic.throughput,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-link destination-ordered merge must reproduce the
    /// from-scratch accumulation: stored shares of unchanged
    /// destinations interleaved with fresh shares of changed ones, in
    /// ascending destination order.
    #[test]
    fn refold_link_merges_in_destination_order() {
        // Stored row: dests 0, 2, 5, 7; dest 2 and 7 changed.
        let row = [(0u32, 1.0f64), (2, 2.0), (5, 4.0), (7, 8.0)];
        // Fresh adds for this link: dest 2 (new share) and dest 6 (newly
        // contributing).
        let fresh = [(9u32, 2u32, 16.0f64), (9, 6, 32.0)];
        let changed = |d: u32| d == 2 || d == 6 || d == 7;
        // Expected fold order: 0 (kept), 2 (fresh), 5 (kept), 6 (fresh);
        // dest 7's stale share is dropped without a replacement.
        let want: f64 = ((0.0 + 1.0) + 16.0) + 4.0 + 32.0;
        assert_eq!(refold_link(&row, &fresh, changed).to_bits(), want.to_bits());
    }

    #[test]
    fn refold_link_handles_empty_sides() {
        assert_eq!(refold_link(&[], &[], |_| false), 0.0);
        let row = [(3u32, 5.0f64)];
        assert_eq!(refold_link(&row, &[], |_| false), 5.0);
        assert_eq!(refold_link(&row, &[], |d| d == 3), 0.0);
        let fresh = [(0u32, 1u32, 7.0f64)];
        assert_eq!(refold_link(&[], &fresh, |_| true), 7.0);
    }

    /// CSR rebuild scans destinations in ascending order, so every
    /// link's contributor row comes out destination-sorted and
    /// re-entrant calls reuse the buffers.
    #[test]
    fn link_contrib_rebuild_orders_rows_by_destination() {
        let adds: [&[(u32, f64)]; 3] = [
            &[(0, 1.0), (2, 2.0)], // dest 0 touches links 0, 2
            &[(2, 3.0)],           // dest 1 touches link 2
            &[(0, 4.0), (1, 5.0)], // dest 2 touches links 0, 1
        ];
        let mut cb = LinkContrib::default();
        for _ in 0..2 {
            // Second pass re-rebuilds into warm buffers.
            cb.rebuild(3, 3, |di| adds[di]);
        }
        assert_eq!(cb.row(0), &[(0u32, 1.0f64), (2, 4.0)]);
        assert_eq!(cb.row(1), &[(2u32, 5.0f64)]);
        assert_eq!(cb.row(2), &[(0u32, 2.0f64), (1, 3.0)]);
        // A full refold of every row equals the replayed sums.
        for (l, want) in [(0usize, 5.0f64), (1, 5.0), (2, 5.0)] {
            assert_eq!(refold_link(cb.row(l), &[], |_| false), want);
        }
    }
}
