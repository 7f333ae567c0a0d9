//! Reusable scratch state for allocation-free routing evaluation.
//!
//! Every optimization step evaluates thousands of (weight setting ×
//! failure scenario) pairs, and each pair routes every demand destination.
//! The seed implementation allocated a fresh distance vector, heap and
//! order per destination; this module hoists all of that into a
//! [`SpfWorkspace`] that a caller (one per thread) reuses across all
//! destinations, classes, scenarios and candidate weight settings.
//!
//! The second piece is [`DestRouting`]: the complete routing outcome of a
//! *single* destination, stored as the exact sequence of floating-point
//! accumulations the router performs (`load_adds`, `dropped_adds`). This
//! makes per-destination results **replayable**: an evaluation that knows
//! a destination's routing is unchanged (see the affectedness predicates
//! below) replays the recorded adds instead of re-running Dijkstra, and
//! the replay is bit-for-bit identical to a fresh computation because the
//! adds happen in the same order with the same values.
//!
//! Two sound skip conditions power the incremental fast paths:
//!
//! * [`dag_uses_any`] — a failure scenario leaves destination `t`'s
//!   routing untouched when none of the failed links lies on `t`'s
//!   shortest-path DAG (removing non-DAG links changes neither distances
//!   nor DAG membership). The predicate is a *mask diff*: it takes an
//!   arbitrary down-set of directed links, so it covers every scenario
//!   kind uniformly — one duplex pair (single-link failure), several
//!   pairs (SRLG, double-link), or the full incidence set of a router
//!   (node failure). For node failures the predicate also subsumes the
//!   traffic change: if the dead node `v` was reachable and sourced
//!   demand towards `t`, at least one of `v`'s out-links is on `t`'s DAG
//!   (the first hop of `v`'s shortest path), so `t` is flagged affected
//!   and re-routed; under the node mask `v` has no up out-link, its
//!   demand lands in `dropped_adds`, and the per-link load additions are
//!   bit-for-bit those of routing with `v`'s traffic removed.
//! * [`weight_change_affects`] — a weight move leaves `t` untouched when
//!   every changed link was off the DAG and stays strictly longer than
//!   the path it would shortcut (`dist[v] + w_new > dist[u]`): the old
//!   distance field remains a feasible potential, and every old shortest
//!   path is made of unchanged links.
//!
//! # Repair instead of re-route
//!
//! A destination that *is* affected is not routed from scratch when a
//! previous routing exists: [`route_destination_repair`] repairs the
//! all-links-up baseline under a failure mask, and
//! [`route_destination_reweight`] repairs the routing under the old
//! weights after a weight move. A failed link is a link whose weight
//! grew to infinity, so both share one machinery — the weight-change
//! repair's exactness argument covers both:
//!
//! 1. **Orphans.** A link *keeps* its old length when it is up and its
//!    weight did not grow. Walking nodes in ascending old distance, a
//!    node is an orphan iff none of its old-tight keeping out-links
//!    leads to a non-orphan. By induction on the old distance, every
//!    non-orphan keeps a path of new length ≤ its old distance, so its
//!    old label is an upper bound on its new distance. A worklist finds
//!    the orphans without scanning every node: seeded from the tails of
//!    the old-DAG links that do not keep their length, it enqueues a
//!    new orphan's predecessors over old-tight keeping in-links, and a
//!    node never enqueued keeps every old-DAG out-link with a
//!    non-orphan head.
//! 2. **Label-correcting Dijkstra.** Orphans reset to [`UNREACHABLE`]
//!    and restart at their best non-orphan neighbour; the tail of every
//!    dropped link restarts at its shortcut when that beats its label;
//!    then a Dijkstra relaxes in-links, lowering any label it beats,
//!    orphan or not. Every label is the length of a real path, so it
//!    never undercuts the new distance. On exit every edge constraint
//!    `dist[u] ≤ dist[v] + w(u, v)` holds: a node whose label changed
//!    was settled with its final label and relaxed its in-links; for an
//!    unchanged non-orphan head, the old constraint covers links that
//!    did not drop, the dropped-link seeds cover the rest, and orphan
//!    tails took their boundary minimum over it. Labels that are
//!    achievable and satisfy every constraint are the shortest
//!    distances, and distances are integers — so the field **equals** a
//!    fresh Dijkstra's bit for bit.
//!
//! **The order permutation.** Every kernel's `order` is exactly
//! [`spf::descending_order_into`]'s: descending distance, ascending id
//! within a tie. A Dijkstra settles nodes in ascending `(dist, id)`
//! order (pops never decrease; all entries of one distance are queued
//! before the first of them pops, since a relaxation adds at least 1;
//! labels are pushed only on strict improvement, so no entry repeats).
//! [`route_destination`] reverses its settle sequence and then each
//! equal-distance run (`spf::settled_to_descending`) — linear time
//! instead of a sort. The repairs' Dijkstra settles exactly the nodes
//! whose label changed, also in ascending `(dist, id)`; every other
//! node keeps its label, so the old order without orphans and settled
//! nodes is still sorted, and one merge of the two sorted lists gives
//! the permutation.
//!
//! Distances and order equal a fresh route's, and the ECMP push is one
//! shared function of (distances, order, weights, mask, traffic), so a
//! repaired record — load adds and drops included — is bit-for-bit the
//! record [`route_destination`] writes.

use dtr_net::{LinkId, LinkMask, Network, NodeId};
use dtr_traffic::TrafficMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::spf;
use crate::UNREACHABLE;

/// Per-thread scratch buffers for SPF, ECMP accumulation and the delay
/// DP. Construct once (per thread) and reuse for every evaluation; all
/// buffers grow to the topology size on first use and are then stable —
/// no per-evaluation heap allocation in the steady state.
#[derive(Debug, Default)]
pub struct SpfWorkspace {
    /// Dijkstra priority queue scratch (also the repairs' orphan
    /// worklist).
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-node inflow accumulator for the current destination.
    pub(crate) inflow: Vec<f64>,
    /// Per-node scratch for the delay/bottleneck DP.
    pub node_metric: Vec<f64>,
    /// Spare [`DestRouting`] used by [`crate::router::route_class_with`].
    pub(crate) dest: DestRouting,
    /// Per-node flags and lists of the repair kernels.
    repair: Repair,
    /// The previous order of an in-place [`route_destination_reweight`].
    old_order: Vec<u32>,
}

impl SpfWorkspace {
    /// Fresh workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch of the two repair kernels ([`route_destination_repair`],
/// [`route_destination_reweight`]): epoch-stamped per-node flags, so a
/// repair never pays an O(n) reset, plus the orphan list and the repair
/// Dijkstra's settle sequence.
#[derive(Debug, Default)]
struct Repair {
    /// Stamped when a node is queued on the orphan worklist.
    queued: Vec<u32>,
    /// Stamped when a node is an orphan.
    orphan: Vec<u32>,
    /// Stamped when the repair Dijkstra settles a node.
    settled: Vec<u32>,
    /// Current flag epoch (0 = flags unset).
    epoch: u32,
    /// Orphans, in discovery order.
    orphans: Vec<u32>,
    /// Settle sequence of the repair Dijkstra: ascending `(dist, id)`.
    resettled: Vec<u32>,
}

/// The complete routing outcome of one destination under one (weights,
/// mask) pair: the distance field, the topological order, and the exact
/// floating-point accumulation sequence of the ECMP load push.
#[derive(Debug, Default)]
pub struct DestRouting {
    /// `dist[v]` = weighted distance from `v` to the destination.
    pub dist: Vec<u64>,
    /// Reachable nodes in descending distance order, ties by ascending
    /// id (DAG topological order, destination last) — exactly
    /// [`spf::descending_order_into`]'s permutation of `dist`.
    pub order: Vec<u32>,
    /// `(link, share)` adds in the order the router performs them.
    pub(crate) load_adds: Vec<(u32, f64)>,
    /// Unroutable demands in sender order (empty under survivable masks).
    pub(crate) dropped_adds: Vec<f64>,
}

impl Clone for DestRouting {
    fn clone(&self) -> Self {
        DestRouting {
            dist: self.dist.clone(),
            order: self.order.clone(),
            load_adds: self.load_adds.clone(),
            dropped_adds: self.dropped_adds.clone(),
        }
    }

    /// Field-wise `clone_from` so cache maintenance can re-copy a
    /// routing into an existing record without reallocating its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.dist.clone_from(&source.dist);
        self.order.clone_from(&source.order);
        self.load_adds.clone_from(&source.load_adds);
        self.dropped_adds.clone_from(&source.dropped_adds);
    }
}

impl DestRouting {
    /// The recorded `(directed link, load share)` contribution sequence
    /// of this destination, in the order the router performed the adds.
    ///
    /// Each directed link appears **at most once**: the ECMP push visits
    /// every node once (topological order) and emits one add per DAG
    /// out-link, so a `(destination, link)` pair contributes a single
    /// share. Delta-state evaluation engines rely on this to keep
    /// per-link contributor lists as `(destination, share)` pairs sorted
    /// by destination, refolding a link's load bit-for-bit by summing the
    /// stored shares in destination-index order.
    #[inline]
    pub fn load_adds(&self) -> &[(u32, f64)] {
        &self.load_adds
    }

    /// Bytes of resident routing state, computed from element counts
    /// (not vector capacities) so the figure is identical on every
    /// process and thread. Used by the delta-state caches' residency
    /// planners to size their per-scenario memory budget.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.len() * size_of::<u64>()
            + self.order.len() * size_of::<u32>()
            + self.load_adds.len() * size_of::<(u32, f64)>()
            + self.dropped_adds.len() * size_of::<f64>()
    }

    /// Replay the recorded accumulations into global per-link loads and
    /// the dropped-demand accumulator. Bit-for-bit identical to the adds
    /// a fresh [`route_destination`] performs.
    #[inline]
    pub fn replay(&self, loads: &mut [f64], dropped: &mut f64) {
        for &d in &self.dropped_adds {
            *dropped += d;
        }
        for &(l, share) in &self.load_adds {
            loads[l as usize] += share;
        }
    }
}

/// Route all demand sinking at destination `t`: reverse Dijkstra plus the
/// evenly-split ECMP push, recorded into `out` (previous contents are
/// discarded; buffer capacity is reused).
///
/// This is the single source of truth for per-destination routing — both
/// [`crate::route_class`] and the incremental cost engine are built on it,
/// which is what makes their results bit-for-bit interchangeable. The
/// order is read off Dijkstra's settle sequence in linear time
/// (`spf::dist_order_into`).
pub fn route_destination(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    spf::dist_order_into(
        net,
        NodeId::new(t),
        weights,
        mask,
        &mut out.dist,
        &mut out.order,
        &mut ws.heap,
    );
    push_loads(net, weights, tm, mask, t, &mut ws.inflow, out);
}

/// [`route_destination`] that *repairs* the destination's routing from
/// its all-links-up baseline instead of running a fresh full Dijkstra —
/// the delta-state engines' fast path for mask-affected destinations.
///
/// `base` must be the destination's routing under the **same weights**
/// with **all links up**; `mask` fails an arbitrary link set. A failed
/// link is a link whose weight grew to infinity, so this is the
/// weight-growth half of [`route_destination_reweight`]: the orphan
/// worklist is seeded from the tails of the down links that lie on the
/// baseline DAG, and the boundary Dijkstra re-settles the orphans (see
/// the module docs for the argument). Failures only remove paths, so
/// no non-orphan label moves.
///
/// Distances are exact integers, so the repaired field **equals** a
/// fresh [`spf::dist_to_into`] bit for bit; the order is the same
/// permutation, and the ECMP push is the same deterministic function of
/// (distances, weights, mask, traffic) that [`route_destination`] runs,
/// making the whole record interchangeable with a from-scratch route.
/// (Pinned bit for bit against [`route_destination`] by
/// `tests/spf_incremental.rs`.)
#[allow(clippy::too_many_arguments)] // the full per-destination context
pub fn route_destination_repair(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    base: &DestRouting,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    let seeds = mask
        .down_links()
        .filter(|&l| old_tight(net, &base.dist, weights, l))
        .map(|l| net.link(LinkId::new(l)).src.index());
    let r = &mut ws.repair;
    r.find_orphans(net, &base.dist, weights, weights, mask, seeds, &mut ws.heap);
    out.dist.clone_from(&base.dist);
    r.resettle(
        net,
        weights,
        mask,
        std::iter::empty(),
        &mut ws.heap,
        &mut out.dist,
    );
    r.merge_order(&base.order, &out.dist, &mut out.order);
    push_loads(net, weights, tm, mask, t, &mut ws.inflow, out);
}

/// Re-route destination `t` in place after a weight move: `routing`
/// holds its routing under `old_weights` and `mask` on entry, and its
/// routing under `weights` and the **same** `mask` on exit. `diff` lists
/// exactly the directed links whose weight differs between the two.
/// This is the engines' refresh path for weight moves: it *repairs* the
/// previous routing instead of running a fresh full Dijkstra.
///
/// A weight that grew can lengthen distances; one that dropped can
/// shorten them. The repair handles both in two steps (argument in the
/// module docs):
///
/// 1. **Orphans**: the worklist is seeded from the tails of the grown
///    links on the previous DAG; a node is an orphan when none of its
///    old-tight, up, non-grown out-links leads to a non-orphan.
/// 2. **Label-correcting Dijkstra**: orphans restart from their
///    non-orphan boundary, the tails of dropped links are seeded, and
///    relaxation may lower any label, orphan or not.
///
/// The result equals a from-scratch [`route_destination`] under
/// `weights` bit for bit: distances, order, load adds and drops.
#[allow(clippy::too_many_arguments)] // the full per-destination context
pub fn route_destination_reweight(
    net: &Network,
    old_weights: &[u32],
    weights: &[u32],
    diff: &[WeightChange],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    ws: &mut SpfWorkspace,
    routing: &mut DestRouting,
) {
    let seeds = diff
        .iter()
        .filter(|c| c.new > c.old)
        .map(|c| c.link.index())
        .filter(|&l| mask.is_up(l) && old_tight(net, &routing.dist, old_weights, l))
        .map(|l| net.link(LinkId::new(l)).src.index());
    let r = &mut ws.repair;
    r.find_orphans(
        net,
        &routing.dist,
        old_weights,
        weights,
        mask,
        seeds,
        &mut ws.heap,
    );
    let dropped = diff
        .iter()
        .filter(|c| c.new < c.old)
        .map(|c| c.link.index());
    r.resettle(net, weights, mask, dropped, &mut ws.heap, &mut routing.dist);
    // Copy rather than swap, so every routing keeps its own buffers
    // (their capacities settle per destination).
    ws.old_order.clone_from(&routing.order);
    r.merge_order(&ws.old_order, &routing.dist, &mut routing.order);
    push_loads(net, weights, tm, mask, t, &mut ws.inflow, routing);
}

/// `true` when link `l` lies on the shortest-path DAG of `dist` under
/// `w`, ignoring any mask.
#[inline]
fn old_tight(net: &Network, dist: &[u64], w: &[u32], l: usize) -> bool {
    let link = net.link(LinkId::new(l));
    let (u, v) = (link.src.index(), link.dst.index());
    dist[v] != UNREACHABLE && dist[u] == dist[v] + u64::from(w[l])
}

impl Repair {
    /// Step 1 of both repairs: start a fresh flag epoch over the nodes
    /// of `net`, then mark every node whose old shortest paths all lost
    /// their old length, collecting them in `orphans`.
    ///
    /// A link *keeps* its old length when it is up and its weight did
    /// not grow. Nodes pop in ascending old distance, so each node's
    /// old-DAG successors (strictly closer) are final when it is
    /// examined: the node is an orphan iff no old-tight keeping
    /// out-link leads to a non-orphan. A new orphan enqueues its
    /// predecessors over old-tight keeping in-links — the only nodes
    /// whose answer it can change. `seeds` must hold the tail of every
    /// old-DAG link that does not keep its length; then a node never
    /// examined kept all its old-DAG out-links, with non-orphan heads,
    /// so the worklist finds exactly the orphans a full ascending scan
    /// would.
    #[allow(clippy::too_many_arguments)] // both weight vectors plus scratch
    fn find_orphans(
        &mut self,
        net: &Network,
        old_dist: &[u64],
        old_w: &[u32],
        new_w: &[u32],
        mask: &LinkMask,
        seeds: impl Iterator<Item = usize>,
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    ) {
        let n = net.num_nodes();
        self.queued.resize(n, 0);
        self.orphan.resize(n, 0);
        self.settled.resize(n, 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.queued.fill(0);
            self.orphan.fill(0);
            self.settled.fill(0);
            self.epoch = 1;
        }
        self.orphans.clear();
        self.resettled.clear();
        let epoch = self.epoch;

        let keeps = |l: usize, u: usize, v: usize| {
            mask.is_up(l)
                && new_w[l] <= old_w[l]
                && old_dist[v] != UNREACHABLE
                && old_dist[u] == old_dist[v] + u64::from(old_w[l])
        };
        heap.clear();
        for u in seeds {
            if self.queued[u] != epoch {
                self.queued[u] = epoch;
                heap.push(Reverse((old_dist[u], u as u32)));
            }
        }
        while let Some(Reverse((_, u))) = heap.pop() {
            let u = u as usize;
            let supported = net.out_links(NodeId::new(u)).iter().any(|&l| {
                let v = net.link(l).dst.index();
                self.orphan[v] != epoch && keeps(l.index(), u, v)
            });
            if supported {
                continue;
            }
            self.orphan[u] = epoch;
            self.orphans.push(u as u32);
            for &l in net.in_links(NodeId::new(u)) {
                let x = net.link(l).src.index();
                if self.queued[x] != epoch && keeps(l.index(), x, u) {
                    self.queued[x] = epoch;
                    heap.push(Reverse((old_dist[x], x as u32)));
                }
            }
        }
    }

    /// Step 2 of both repairs: a Dijkstra over `new_w` started from
    /// upper-bound labels. `dist` holds the old labels on entry;
    /// orphans restart at their best non-orphan neighbour, the tails of
    /// `dropped` links at their shortcut, and relaxation lowers any
    /// label it beats. The settle sequence lands in `resettled`, each
    /// settled node flagged in `settled`.
    fn resettle(
        &mut self,
        net: &Network,
        new_w: &[u32],
        mask: &LinkMask,
        dropped: impl Iterator<Item = usize>,
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
        dist: &mut [u64],
    ) {
        let epoch = self.epoch;
        heap.clear();
        for &u in &self.orphans {
            dist[u as usize] = UNREACHABLE;
        }
        for &u in &self.orphans {
            let mut best = UNREACHABLE;
            for &l in net.out_links(NodeId::new(u as usize)) {
                let li = l.index();
                let v = net.link(l).dst.index();
                if mask.is_down(li) || self.orphan[v] == epoch || dist[v] == UNREACHABLE {
                    continue;
                }
                best = best.min(dist[v] + u64::from(new_w[li]));
            }
            if best != UNREACHABLE {
                dist[u as usize] = best;
                heap.push(Reverse((best, u)));
            }
        }
        for li in dropped {
            let link = net.link(LinkId::new(li));
            let (x, v) = (link.src.index(), link.dst.index());
            if mask.is_down(li) || dist[v] == UNREACHABLE {
                continue;
            }
            let nd = dist[v] + u64::from(new_w[li]);
            if nd < dist[x] {
                dist[x] = nd;
                heap.push(Reverse((nd, x as u32)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            self.resettled.push(u);
            self.settled[u as usize] = epoch;
            for &l in net.in_links(NodeId::new(u as usize)) {
                let li = l.index();
                if mask.is_down(li) {
                    continue;
                }
                let x = net.link(l).src.index();
                let nd = d + u64::from(new_w[li]);
                if nd < dist[x] {
                    dist[x] = nd;
                    heap.push(Reverse((nd, x as u32)));
                }
            }
        }
    }

    /// The repaired order: `old_order` without the orphans and the
    /// re-settled nodes — the rest keep their labels, so it stays
    /// sorted by descending distance, ascending id — merged with the
    /// re-settled nodes in that same order. Equals
    /// [`spf::descending_order_into`] on `dist`.
    fn merge_order(&mut self, old_order: &[u32], dist: &[u64], order: &mut Vec<u32>) {
        let epoch = self.epoch;
        spf::settled_to_descending(dist, &mut self.resettled);
        order.clear();
        let mut fresh = self.resettled.iter().copied().peekable();
        for &v in old_order {
            if self.orphan[v as usize] == epoch || self.settled[v as usize] == epoch {
                continue;
            }
            let dv = dist[v as usize];
            while let Some(&f) = fresh.peek() {
                let df = dist[f as usize];
                if df > dv || (df == dv && f < v) {
                    order.push(f);
                    fresh.next();
                } else {
                    break;
                }
            }
            order.push(v);
        }
        order.extend(fresh);
    }
}

/// The ECMP push shared by every routing kernel: inject each sender's
/// demand (or record it dropped when unreachable), then push flow down
/// the DAG in `out.order` (descending distance), splitting evenly over
/// each node's DAG out-links and recording every add.
fn push_loads(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    inflow: &mut Vec<f64>,
    out: &mut DestRouting,
) {
    let n = net.num_nodes();
    out.load_adds.clear();
    out.dropped_adds.clear();
    inflow.clear();
    inflow.resize(n, 0.0);
    for (s, flow) in inflow.iter_mut().enumerate() {
        if s == t {
            continue;
        }
        let demand = tm.demand(s, t);
        if demand <= 0.0 {
            continue;
        }
        if out.dist[s] == UNREACHABLE {
            out.dropped_adds.push(demand);
        } else {
            *flow += demand;
        }
    }

    for &u in &out.order {
        let u = u as usize;
        if u == t || inflow[u] == 0.0 {
            continue;
        }
        let mut next_hops = 0usize;
        for &l in net.out_links(NodeId::new(u)) {
            if spf::on_dag(net, &out.dist, weights, mask, l.index()) {
                next_hops += 1;
            }
        }
        debug_assert!(
            next_hops > 0,
            "reachable non-destination node must have a DAG out-link"
        );
        let share = inflow[u] / next_hops as f64;
        for &l in net.out_links(NodeId::new(u)) {
            if spf::on_dag(net, &out.dist, weights, mask, l.index()) {
                out.load_adds.push((l.index() as u32, share));
                let v = net.link(l).dst.index();
                if v != t {
                    inflow[v] += share;
                }
            }
        }
        inflow[u] = 0.0;
    }
}

/// `true` if any of the directed links in `down` lies on the shortest-path
/// DAG implied by `dist` (distances computed with **all links up** and the
/// same `weights`). When this returns `false`, failing exactly those links
/// changes neither the distance field nor the DAG of this destination.
///
/// `down` is an arbitrary down-set: the duplex pair of a single-link
/// failure, the union of several pairs (SRLG, double-link), or the full
/// incidence set of a failed router — any mask diff a
/// [`crate::Scenario`] can induce (`Scenario::mask_into` followed by
/// `LinkMask::down_links`).
pub fn dag_uses_any(net: &Network, dist: &[u64], weights: &[u32], down: &[u32]) -> bool {
    down.iter().any(|&l| {
        let link = net.link(LinkId::new(l as usize));
        let (u, v) = (link.src.index(), link.dst.index());
        dist[u] != UNREACHABLE
            && dist[v] != UNREACHABLE
            && dist[u] == dist[v] + u64::from(weights[l as usize])
    })
}

/// One directed-link weight change, for [`weight_change_affects`].
#[derive(Clone, Copy, Debug)]
pub struct WeightChange {
    pub link: LinkId,
    pub old: u32,
    pub new: u32,
}

/// `true` when applying `changes` may alter the distance field or DAG of
/// the destination whose **no-failure** distances under the old weights
/// are `dist`. A `false` answer is a proof of equality:
///
/// * every changed link was off the DAG (`dist[u] != dist[v] + old`), so
///   all old shortest paths consist of unchanged links — distances cannot
///   increase;
/// * every changed link stays strictly non-improving
///   (`dist[v] + new > dist[u]`), so the old distance field remains a
///   feasible potential — distances cannot decrease, and the link stays
///   off the DAG.
pub fn weight_change_affects(net: &Network, dist: &[u64], changes: &[WeightChange]) -> bool {
    changes.iter().any(|c| {
        let link = net.link(c.link);
        let (u, v) = (link.src.index(), link.dst.index());
        if dist[v] == UNREACHABLE {
            // A link into a node that cannot reach the destination can
            // never carry a shortest path, at any weight.
            return false;
        }
        if dist[u] == UNREACHABLE {
            // Unreachable tail with reachable head cannot happen with all
            // links up, but stay conservative for exotic masks.
            return true;
        }
        let on_dag_old = dist[u] == dist[v] + u64::from(c.old);
        on_dag_old || dist[v] + u64::from(c.new) <= dist[u]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_class;
    use dtr_net::{NetworkBuilder, Point};

    /// Diamond: 0 -> {1, 2} -> 3, plus direct 0 -> 3. All duplex.
    fn diamond() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
        for &(x, y) in &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)] {
            b.add_duplex_link(n[x], n[y], 1e9, 1e-3).unwrap();
        }
        b.build().unwrap()
    }

    fn link_between(net: &Network, s: usize, t: usize) -> usize {
        net.links()
            .find(|&l| net.link(l).src.index() == s && net.link(l).dst.index() == t)
            .unwrap()
            .index()
    }

    #[test]
    fn replay_matches_direct_routing() {
        let net = diamond();
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(0, 3, 90.0);
        tm.set(1, 3, 10.0);
        let mut w = vec![1u32; net.num_links()];
        w[link_between(&net, 0, 3)] = 2; // three-way ECMP tie at node 0
        let mask = net.fresh_mask();

        let reference = route_class(&net, &w, &tm, &mask);

        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &w, &tm, &mask, 3, &mut ws, &mut dest);
        let mut loads = vec![0.0; net.num_links()];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);

        assert_eq!(loads, reference.loads);
        assert_eq!(dropped, reference.dropped);
        assert_eq!(Some(dest.dist.as_slice()), reference.dist_to(3));
    }

    #[test]
    fn dropped_adds_record_unroutable_demand() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1e9, 1e-3).unwrap();
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::zeros(2);
        tm.set(0, 1, 42.0);
        let mask = net.fail_duplex(dtr_net::LinkId::new(0));
        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &[1, 1], &tm, &mask, 1, &mut ws, &mut dest);
        let mut loads = vec![0.0; 2];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);
        assert_eq!(dropped, 42.0);
        assert!(loads.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn unaffected_failure_is_detected() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        // With unit weights, node 0 routes directly; links 0->1 and 0->2
        // are off the DAG towards 3... but 1->3 and 2->3 are on it (for
        // sources 1 and 2). The direct link is on the DAG.
        let direct = link_between(&net, 0, 3) as u32;
        assert!(dag_uses_any(&net, &dist, &w, &[direct]));
        // The reverse direction 3->0 is never on the DAG towards 3.
        let rev = link_between(&net, 3, 0) as u32;
        assert!(!dag_uses_any(&net, &dist, &w, &[rev]));
    }

    #[test]
    fn node_failure_down_set_flags_senders_and_transit() {
        // The down-set of a node failure (all incident directed links)
        // must flag every destination whose DAG touches the dead node —
        // which includes every destination the node sends to.
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let mask = crate::Scenario::Node(NodeId::new(1)).mask(&net);
        let down: Vec<u32> = mask.down_links().map(|i| i as u32).collect();
        assert_eq!(down.len(), 4); // 0<->1 and 1<->3

        // Destination 3: node 1 routes via 1->3, so the DAG uses a down
        // link.
        let dist3 = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        assert!(dag_uses_any(&net, &dist3, &w, &down));
        // And under the node mask, node 1 is unreachable towards 3: its
        // demand drops rather than loading any link.
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(1, 3, 7.0);
        tm.set(0, 3, 5.0);
        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &w, &tm, &mask, 3, &mut ws, &mut dest);
        assert_eq!(dest.dist[1], crate::UNREACHABLE);
        let mut loads = vec![0.0; net.num_links()];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);
        assert_eq!(dropped, 7.0);
        // Node 0's 5 units still ride the direct link, untouched by node
        // 1's removal — exactly what routing a zeroed row would yield.
        let direct = link_between(&net, 0, 3);
        assert_eq!(loads[direct], 5.0);

        // A node's down-set contains its shortest-path first hop towards
        // every destination it can reach, so in a connected topology it
        // conservatively flags *every* destination — which is what makes
        // replaying the remainder sound (a replayed destination provably
        // never saw the dead node at all).
        for t in [0usize, 2, 3] {
            let dist = spf::dist_to(&net, NodeId::new(t), &w, &net.fresh_mask());
            assert!(dag_uses_any(&net, &dist, &w, &down), "dest {t}");
        }
    }

    #[test]
    fn weight_change_predicate_is_sound() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let mask = net.fresh_mask();
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &mask);
        let l01 = link_between(&net, 0, 1);

        // 0->1 is on the DAG towards 3 only via... dist[0]=1, dist[1]=1:
        // 1 != 1 + 1, so it is off the DAG; raising its weight cannot
        // matter, lowering it to 0 is illegal, keeping >= 1 keeps
        // dist[1] + w = 2 > 1 = dist[0].
        let raise = WeightChange {
            link: LinkId::new(l01),
            old: 1,
            new: 10,
        };
        assert!(!weight_change_affects(&net, &dist, &[raise]));
        let mut w2 = w.clone();
        w2[l01] = 10;
        assert_eq!(dist, spf::dist_to(&net, NodeId::new(3), &w2, &mask));

        // Lowering the direct link 0->3 from 5 to 1 must flag as affected.
        let l03 = link_between(&net, 0, 3);
        let mut w3 = w.clone();
        w3[l03] = 5;
        let dist3 = spf::dist_to(&net, NodeId::new(3), &w3, &mask);
        let lower = WeightChange {
            link: LinkId::new(l03),
            old: 5,
            new: 1,
        };
        assert!(weight_change_affects(&net, &dist3, &[lower]));
    }
}
