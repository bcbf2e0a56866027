//! Evaluation of one configuration against a topic workload: the
//! delivery-time percentile `D̃_C` and the bandwidth cost `Z_C`.
//!
//! [`TopicEvaluator`] checks the region dimensions once per solve and then
//! evaluates configurations with no per-configuration allocation, in the
//! stages §IV.B's selection rule consumes them:
//!
//! 1. **attribute** — each client's serving region
//!    ([`crate::delivery::closest_region`]), the per-region subscriber
//!    weights and from them the Eq. 3–4 cost ([`crate::cost`]), no delivery
//!    time computed. The enumeration yields region sets in ascending submask
//!    order, a pre-order walk of the tree in which a set's parent is the set
//!    without its lowest region; the scratch keeps one attribution per depth
//!    of that tree, so a set costs one [`crate::delivery::nearer`] step per
//!    client from its parent's: `O(N_P + N_S)`, not `O((N_P + N_S) × |A|)`.
//!    A set met out of order (a re-attributed incumbent) starts from its
//!    deepest ancestor still held. The subscribers' half depends on the region
//!    set alone, so the scan, which meets every set as direct and then as
//!    routed, does it once per set;
//! 2. (a) **count test** — "is `D̃_C ≤ t`?": the weight of the deliveries
//!    within `t`, against the rank `n^T`;
//!    (b) **exact percentile** — the `n^T`-th smallest delivery time itself.
//!
//! [`TopicEvaluator::evaluate_into`] is stage 1 followed by stage 2b. The
//! optimizer instead asks stage by stage, through the crate's `Candidate`
//! trait: cost and region count decide most comparisons before any delivery
//! time is looked at.
//!
//! # Two kernels behind stage 2, and a table
//!
//! Each half of stage 2 has a *streaming* kernel that visits all `P × S`
//! (sender, subscriber) pairs — adding weights for 2a until `n^T` is reached
//! or out of reach, materialising the samples and selecting
//! ([`weighted_percentile`]) for 2b — and a *sweeping* kernel that never
//! visits most of them. The count test at a solve's own `max_T` reads a
//! *table* instead (below). Every kernel and the table read a pair's time from
//! `direct_delivery_ms` / `routed_delivery_ms` on that very pair, so
//! `D̃_C ≤ t`, the streamed count, the swept count and the tabled count
//! cannot disagree by a rounding.
//!
//! **Blocks.** Eq. 1 is `L[p][R^S] + L[R^S][s]` and Eq. 2 is
//! `L[p][R^P] + L^R[R^P][R^S] + L[R^S][s]`: among the subscribers one region
//! `r` serves (and, routed, the senders one region `h` is home to) a pair's
//! time is a publisher term plus a subscriber term. Such a set of pairs is a
//! *block*: one per serving region under direct delivery (all senders × that
//! region's subscribers), one per (home, serving region) under routed.
//!
//! **Monotone rounding.** For finite non-negative `x ≤ x'` IEEE addition
//! gives `fl(x + y) ≤ fl(x' + y)`, and so `fl(fl(x + i) + y)` is
//! non-decreasing in `x` and in `y` as well. Hence with a block's senders
//! ordered by `L[p][·]` and its subscribers by `L[r][s]`, the pairs within
//! any `t` form a staircase: per subscriber a prefix of the senders, shrinking
//! from one subscriber to the next. Two pointers trace it in `P_b + S_b`
//! steps, evaluating the delivery-time function at the pair under the pointer
//! — never a rearrangement such as `L[p][r] ≤ t − L[r][s]`, which rounds
//! differently exactly where whole-millisecond latencies put `max_T`. Equal
//! keys yield equal times, so ties in a column may stand in any order.
//!
//! **Columns and grouping.** The orders come from per-topic *sorted latency
//! columns* — for each region the senders by `L[p][r]` and the subscribers by
//! `L[r][s]`, `N_R × (P + S)` `u32`s in one allocation — built on first need
//! and kept as long as the evaluator. Per examined candidate, *grouping* walks
//! them once with stage 1's attribution and leaves each serving region's
//! subscribers (routed: and each home region's senders) in column order in
//! the scratch: `O(|A| × (P + S))`.
//!
//! * **2a swept**: add up `weight(s) × messages of the senders within t`
//!   block by block, with the streaming kernel's two exits checked between
//!   blocks — `|A|·P + S` steps direct, at most `|A|·(P + S)` routed.
//! * **2b swept**: bisect on the *value*, not on a rank. `lo` and `hi` keep
//!   the weight and the number of pairs at or below them, with
//!   `weight(≤ lo) < n^T ≤ weight(≤ hi)` throughout, so `D̃_C` lies in
//!   `(lo, hi]`. It starts at (just below the smallest pair time, the largest
//!   pair time) and halves the distance between their *bit patterns* — an
//!   integer bisection, so it ends within 64 counts whatever the values are —
//!   until the window holds no more pairs than one sweep has steps. Those
//!   pairs alone are listed (two pointers per block) and
//!   `weighted_percentile(window, n^T − weight(≤ lo))` picks among them:
//!   the rank-th smallest of the same multiset, hence the streaming kernel's
//!   value bit for bit. If `lo` and `hi` become adjacent floats first, every
//!   pair of the window equals `hi`, which is the answer.
//!
//! **Which kernel.** One private rule, `TopicEvaluator::sweeps`, from
//! operation counts of the topic and the candidate at hand (solved for `|A|`
//! once per topic, so asking is one comparison): sweep when `P × S` is at least
//! `SWEEP_ADVANTAGE` (8, derived at its definition) times the `|A| × (P + S)`
//! steps of one sweep. A topic whose candidates never sweep never builds
//! columns, nor a table.
//!
//! **The count test at `max_T`: one table per solve.** Most count tests of a
//! solve ask about `max_T` itself. On a topic that sweeps, `Optimizer::solve`
//! first tabulates, for every home `h`, serving region `r` and subscriber `s`,
//! `k(h, r, s)`: how many senders of `h`'s column reach `s` within `max_T`
//! through (`h`, `r`) — the staircase of that block over *all* senders, traced
//! by the same two pointers, `N² × (P + S)` pair times once and `N² × S`
//! `u32`s. The senders of `A`'s blocks that `s` hears within `max_T` are then
//! a prefix of a column, and a count test is a sum of table reads:
//!
//! * **routed**: prefix sums of the messages of the senders homed at `h`,
//!   along `h`'s column, for each `h ∈ A`, and then
//!   `Σ_s weight(s) × Σ_{h ∈ A} homed_h[k(h, R^S(s), s)]` — `|A| × (P + S)`
//!   integer steps, no delivery time;
//! * **direct**: the diagonal, `Σ_s weight(s) × sent_r[k(r, r, s)]` with
//!   `r = R^S(s)` and `sent_r` the prefix sums over all of `r`'s senders —
//!   `S` steps. The diagonal was traced with `routed_delivery_ms(p, s, r,
//!   r)`, i.e. `fl(fl(L[p][r] + L^R[r][r]) + L[r][s])`; `L^R[r][r] = 0` is
//!   validated and `fl(x + 0) = x` for `x ≥ 0` (a `-0.0` becomes `+0.0`, an
//!   equal value), so each diagonal pair compares with the bound exactly as
//!   `direct_delivery_ms`'s `fl(L[p][r] + L[r][s])` does.
//!
//! Both are exact integer sums of the predicate the streamed and swept
//! kernels test, at the same bound. Every other bound keeps the kernels: the
//! fallback scan's `beyond_tie_band` bounds (a new one per incumbent, each
//! worth far fewer count tests than a table costs), `solve_one_region`'s `∞`,
//! `SweepSolver` and [`TopicEvaluator::evaluate_into`].
//!
//! **Worst case.** A typical percentile takes a dozen counts. Values clustered
//! so that the window stays crowded down to adjacent floats could take 64,
//! i.e. `64 × |A|·(P + S) ≤ 8 × P·S` steps at the rule's threshold — more
//! than the one `P × S` materialisation it replaces. So the bisection also
//! stops once it has spent `P × S` steps, and lists whatever window is left
//! (at most everything): the worst case is the streaming kernel's work plus
//! one `P × S` of counting, not eight.

// lint:allow-file(indexing) hot-path kernel evaluated thousands of times per solve: every slice access is bounded by the region-count equality checks in `TopicEvaluator::new`

use crate::assignment::{AssignmentVector, Configuration, DeliveryMode};
use crate::constraint::DeliveryConstraint;
use crate::delivery::{
    direct_delivery_ms, nearer, routed_delivery_ms, weighted_percentile, WeightedSample,
};
use crate::error::Error;
use crate::ids::RegionId;
use crate::latency::InterRegionMatrix;
use crate::region::{RegionSet, MAX_REGIONS};
use crate::workload::{Publisher, Subscriber, TopicWorkload};
use std::cell::{Cell, RefCell, RefMut};
use std::sync::OnceLock;

/// The outcome of evaluating one configuration: its delivery-time
/// percentile and its bandwidth cost for the observation interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigEvaluation {
    configuration: Configuration,
    percentile_ms: f64,
    cost_dollars: f64,
}

impl ConfigEvaluation {
    /// The evaluated configuration.
    pub fn configuration(&self) -> Configuration {
        self.configuration
    }

    /// The delivery-time percentile `D̃_C` in milliseconds (Eq. 6).
    pub fn percentile_ms(&self) -> f64 {
        self.percentile_ms
    }

    /// The bandwidth cost `Z_C` in dollars for the interval (Eq. 3–4).
    pub fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    /// Number of serving regions.
    pub fn region_count(&self) -> u32 {
        self.configuration.region_count()
    }

    /// Whether this evaluation satisfies `constraint`.
    pub fn is_feasible(&self, constraint: &DeliveryConstraint) -> bool {
        constraint.is_met_by(self.percentile_ms)
    }
}

/// What §IV.B's selection rule may ask of a configuration, cheapest answer
/// first: cost and region count are known up front, the delivery times are
/// looked at only when a comparison still depends on them.
///
/// A cached [`ConfigEvaluation`] answers everything from its fields; a
/// [`StagedCandidate`] runs stage 2 of the evaluation on demand.
pub(crate) trait Candidate {
    /// The configuration in question.
    fn configuration(&self) -> Configuration;

    /// Its bandwidth cost `Z_C` (Eq. 3–4).
    fn cost_dollars(&self) -> f64;

    /// Whether `D̃_C ≤ bound_ms` — the Eq. 6 test when `bound_ms` is `max_T`.
    fn delivers_within(&self, bound_ms: f64) -> bool;

    /// The exact delivery-time percentile `D̃_C`.
    fn percentile_ms(&self) -> f64;

    /// Whether answering so far took a look at the delivery times.
    fn examined(&self) -> bool;

    /// Number of serving regions.
    fn region_count(&self) -> u32 {
        self.configuration().region_count()
    }

    /// Everything known about the configuration, exact percentile included.
    fn evaluation(&self) -> ConfigEvaluation {
        ConfigEvaluation {
            configuration: self.configuration(),
            percentile_ms: self.percentile_ms(),
            cost_dollars: self.cost_dollars(),
        }
    }
}

impl Candidate for ConfigEvaluation {
    fn configuration(&self) -> Configuration {
        self.configuration
    }

    fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    fn delivers_within(&self, bound_ms: f64) -> bool {
        self.percentile_ms <= bound_ms
    }

    fn percentile_ms(&self) -> f64 {
        self.percentile_ms
    }

    fn examined(&self) -> bool {
        true
    }
}

/// Reusable scratch buffers for [`TopicEvaluator::evaluate_into`], letting
/// the optimizer evaluate thousands of configurations without
/// re-allocating.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Stage 1: the configuration the walks and `sub_counts` describe.
    attributed: Option<Configuration>,
    /// Stage 1: each subscriber's serving region `R^S`, per depth.
    subscribers: Walk,
    /// Stage 1: subscriber weight per serving region, `N_S^{R_i}`.
    sub_counts: Vec<u64>,
    /// Stage 1: each publisher's home region `R^P` (routed), per depth.
    publishers: Walk,
    /// Sweeping: stage 1's attribution sorted into blocks.
    grouping: Grouping,
    /// Stage 2a at the solve's own bound.
    table: CountTable,
    /// Stage 2b: the weighted pair samples — all of them when streaming, the
    /// bisection's final window when sweeping.
    samples: Vec<WeightedSample>,
}

/// One client list attributed along the enumeration's own tree.
///
/// A region set's parent is the set without its lowest region, so a set of
/// `d` regions descends from its `d − 1` highest ones, and so on up to its
/// highest region alone — and ascending submask order walks that tree in
/// pre-order. Row `d − 1` holds every client's closest region of the
/// `d`-region set `sets[d − 1]`; a child's row is one [`nearer`] step per
/// client from its parent's.
#[derive(Debug, Default)]
struct Walk {
    /// One row of `clients` entries per depth.
    rows: Vec<RegionId>,
    /// The region set each row attributes, as a mask; 0 for none.
    sets: Vec<u32>,
    clients: usize,
}

impl Walk {
    /// Drops every row: what they hold may be another workload's.
    fn forget(&mut self) {
        self.sets.clear();
    }

    /// The closest region of `assignment` for each client, whose latency
    /// rows `latencies` lists: `closest_region`'s fold resumed, in one pass,
    /// from the deepest of its ancestors still held — its parent, in the
    /// enumeration's order, which leaves one step per client.
    fn attribute<'l>(
        &mut self,
        assignment: AssignmentVector,
        n_regions: usize,
        latencies: impl ExactSizeIterator<Item = &'l [f64]>,
    ) -> &[RegionId] {
        let clients = latencies.len();
        if self.sets.len() != n_regions || self.clients != clients {
            self.sets.clear();
            self.sets.resize(n_regions, 0);
            self.rows.resize(n_regions * clients, RegionId(0));
            self.clients = clients;
        }
        let depth = assignment.count() as usize;
        let (mut held, mut ancestor) = (depth, assignment.mask());
        while held > 0 && self.sets[held - 1] != ancestor {
            ancestor &= ancestor - 1; // the parent: without the lowest region
            held -= 1;
        }
        if held < depth {
            // The regions the ancestor lacks, highest first.
            let mut lacked = [RegionId(0); MAX_REGIONS];
            lacked.iter_mut().zip(assignment.iter().rev().skip(held)).for_each(|(at, r)| *at = r);
            let lacked = &lacked[..depth - held];
            let (above, below) = self.rows.split_at_mut((depth - 1) * clients);
            let ancestor = held.checked_sub(1).map(|row| &above[row * clients..][..clients]);
            for (client, (to, latencies)) in below[..clients].iter_mut().zip(latencies).enumerate()
            {
                let (best, lacked) = match ancestor {
                    Some(row) => (row[client], lacked),
                    None => (lacked[0], &lacked[1..]),
                };
                *to = lacked.iter().fold(best, |best, &region| nearer(latencies, best, region));
            }
            self.sets[depth - 1] = assignment.mask();
        }
        self.row(depth)
    }

    /// The row for sets of `depth` regions.
    fn row(&self, depth: usize) -> &[RegionId] {
        &self.rows[(depth - 1) * self.clients..depth * self.clients]
    }
}

/// Stage 1's attribution of `configuration` as `subscribers` and
/// `publishers` hold it: each subscriber's serving region, and (routed) each
/// publisher's home region.
fn attribution<'s>(
    configuration: Configuration,
    subscribers: &'s Walk,
    publishers: &'s Walk,
) -> (&'s [RegionId], Option<&'s [RegionId]>) {
    let depth = configuration.region_count() as usize;
    let homes = (configuration.mode() == DeliveryMode::Routed).then(|| publishers.row(depth));
    (subscribers.row(depth), homes)
}

/// The count test at one bound, by table (`TopicEvaluator::tabulate`).
#[derive(Debug, Default)]
struct CountTable {
    /// The bound tabulated, if any.
    bound_ms: Option<f64>,
    /// `k(h, r, s)` at `(r × S + s) × N + h`: how many senders of `h`'s
    /// column reach subscriber `s` within the bound through home `h` and
    /// serving region `r` — a prefix of the column, by monotone rounding.
    counts: Vec<u32>,
    /// At `r × (P + 1) + k`: the messages the first `k` senders of `r`'s
    /// column sent.
    sent: Vec<u64>,
    /// The same, counting only the senders homed at `r` under the routed
    /// candidate at hand.
    homed: Vec<u64>,
}

/// The attributed clients by region, each group in its region's column order.
#[derive(Debug, Default)]
struct Grouping {
    /// Whether this describes the scratch's attributed configuration.
    current: bool,
    /// The subscribers, grouped by serving region, then (routed) the senders,
    /// grouped by home region.
    order: Vec<u32>,
    /// Per region, where its groups start in `order`; one more entry marks
    /// where the last region's groups end.
    groups: Vec<Group>,
}

/// One region's groups in [`Grouping::order`].
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    /// Start of the subscribers the region serves.
    subscribers: u32,
    /// Start of the senders the region is home to.
    senders: u32,
    /// Messages those senders sent.
    messages: u64,
}

/// Pairs whose delivery time is a publisher term plus a subscriber term:
/// `senders` ascending by the one, `subscribers` by the other.
#[derive(Debug)]
struct Block<'s> {
    senders: &'s [u32],
    subscribers: &'s [u32],
    /// The senders' home region `R^P` (routed), `None` (direct).
    home: Option<RegionId>,
    /// The subscribers' serving region `R^S`.
    region: RegionId,
    /// Messages the senders sent.
    messages: u64,
}

/// What lies at or below a threshold: deliveries, and distinct pairs.
#[derive(Debug, Clone, Copy, Default)]
struct Within {
    weight: u64,
    pairs: u64,
}

/// The place of the float with bit pattern `bits` in `f64::total_cmp`'s
/// order (whose transformation this is): neighbouring floats have
/// neighbouring keys. Its own inverse.
fn order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The largest float below a non-negative `t`.
fn below(t: f64) -> f64 {
    if t == 0.0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(t.to_bits() - 1)
    }
}

/// Per-topic sorted latency columns: for each region the senders ordered by
/// `L[p][r]`, then for each region the subscribers ordered by `L[r][s]`, as
/// indices into the workload's client lists.
#[derive(Debug)]
struct Columns {
    order: Vec<u32>,
    /// Length of a sender column.
    senders: usize,
    /// Length of a subscriber column.
    subscribers: usize,
    /// Where the subscriber columns start in `order`.
    subscribers_at: usize,
}

impl Columns {
    fn build(workload: &TopicWorkload, n_regions: usize, senders: usize) -> Self {
        let subscribers = workload.subscribers().len();
        let mut order = Vec::with_capacity(n_regions * (senders + subscribers));
        // One column: the clients' latencies to `region` as integers in
        // `total_cmp` order, sorted next to their indices (which
        // `TopicEvaluator::new` made sure fit `u32`) — nothing is added.
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(senders.max(subscribers));
        let mut column = |rows: &mut dyn Iterator<Item = (usize, &[f64])>, region: usize| {
            keyed.clear();
            keyed.extend(rows.map(|(i, row)| (order_key(row[region].to_bits() as i64), i as u32)));
            keyed.sort_unstable_by_key(|&(key, _)| key);
            order.extend(keyed.iter().map(|&(_, index)| index));
        };
        for region in 0..n_regions {
            let sending =
                workload.publishers().iter().enumerate().filter(|(_, p)| p.batch().count() > 0);
            column(&mut sending.map(|(index, publisher)| (index, publisher.latencies())), region);
        }
        for region in 0..n_regions {
            let listening = workload.subscribers().iter().enumerate();
            column(&mut listening.map(|(index, sub)| (index, sub.latencies())), region);
        }
        Columns { order, senders, subscribers, subscribers_at: n_regions * senders }
    }

    /// The senders, closest to `region` first.
    fn senders_by(&self, region: RegionId) -> &[u32] {
        let start = region.index() * self.senders;
        &self.order[start..start + self.senders]
    }

    /// The subscribers, closest to `region` first.
    fn subscribers_by(&self, region: RegionId) -> &[u32] {
        let start = self.subscribers_at + region.index() * self.subscribers;
        &self.order[start..start + self.subscribers]
    }
}

/// Evaluates configurations for one topic against one workload snapshot.
///
/// ```
/// use multipub_core::prelude::*;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let regions = RegionSet::new(vec![
///     Region::new("a", "A", 0.02, 0.09),
///     Region::new("b", "B", 0.09, 0.14),
/// ])?;
/// let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]])?;
/// let w = TopicWorkload::new(
///     2,
///     vec![Publisher::new(ClientId(0), vec![5.0, 60.0], MessageBatch::uniform(10, 1024))],
///     vec![Subscriber::new(ClientId(1), vec![60.0, 5.0])],
/// )?;
/// let eval = TopicEvaluator::new(&regions, &inter, &w)?;
/// let constraint = DeliveryConstraint::new(100.0, 200.0)?;
/// let both = Configuration::new(AssignmentVector::all(2)?, DeliveryMode::Routed);
/// let result = eval.evaluate(both, &constraint);
/// // 5 (pub→R0) + 40 (R0→R1) + 5 (R1→sub) = 50 ms.
/// assert_eq!(result.percentile_ms(), 50.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TopicEvaluator<'a> {
    regions: &'a RegionSet,
    inter: &'a InterRegionMatrix,
    workload: &'a TopicWorkload,
    subscriber_weight: u64,
    total_messages: u64,
    total_deliveries: u64,
    total_bytes: u64,
    /// Publishers that sent anything in the interval.
    senders: usize,
    /// The size rule, worked out once per topic: stage 2 sweeps candidates of
    /// at most this many serving regions and streams the wider ones (0: all).
    widest_swept: u32,
    /// Built by the first candidate that sweeps. A `OnceLock` because
    /// `solve_topics` shares evaluators across its scoped threads.
    columns: OnceLock<Columns>,
}

/// How many times the `|A| × (P + S)` steps of one sweep the candidate's
/// `P × S` pairs must number for stage 2 to sweep rather than stream. Its
/// count-test half now prices only the count tests at bounds other than a
/// solve's `max_T`, which the count table answers on every topic that sweeps
/// at all (`widest_swept ≥ 1`).
///
/// Measured on 450 × 450 × 5, 100 × 100 × 10 and 30 × 30 × 6 topics: a
/// streamed pair costs 1.2–1.6 ns in a count test and about 7 ns materialised
/// and selected. Per step of `|A| × (P + S)`, grouping costs 0.5–1.5 ns and a
/// swept count 1–3 ns (an index, two dependent loads, a data-dependent
/// branch; fewer steps are taken than the bound allows), and a swept
/// percentile costs 10–25 counts. So a candidate's count test breaks even near
/// a factor of `(1.5 + 3) / 1.3 ≈ 3.5` and its percentile near
/// `25 × 2 / 7 ≈ 7`. On top of that the first swept candidate pays for the
/// columns — 5 µs at 30 × 30 × 6, 40 µs at 100 × 100 × 10, 100 µs at
/// 450 × 450 × 5 — which a topic of 6 × 30 clients, where only the six
/// single-region candidates reach a factor of 5 and a whole solve takes 30 µs,
/// never earns back: at 4 such topics swept and their workload's decide time
/// rose by 10 %. 8 keeps them streaming. It also keeps the widest candidates
/// of a 100 × 100 × 10 topic (`|A| ≥ 7`) streaming, which by the figures
/// above would still gain from sweeping: the price of one factor for both.
const SWEEP_ADVANTAGE: usize = 8;

impl<'a> TopicEvaluator<'a> {
    /// Builds an evaluator over one workload snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LatencyDimension`] when the region set, the
    /// inter-region matrix and the workload disagree on the number of
    /// regions.
    pub fn new(
        regions: &'a RegionSet,
        inter: &'a InterRegionMatrix,
        workload: &'a TopicWorkload,
    ) -> Result<Self, Error> {
        let n = regions.len();
        if inter.len() != n {
            return Err(Error::LatencyDimension { expected: n, got: inter.len() });
        }
        if workload.n_regions() != n {
            return Err(Error::LatencyDimension { expected: n, got: workload.n_regions() });
        }
        let subscriber_weight = workload.subscriber_weight();
        let total_messages = workload.total_messages();
        let senders = workload.publishers().iter().filter(|p| p.batch().count() > 0).count();
        // `P × S ≥ SWEEP_ADVANTAGE × |A| × (P + S)`, solved for `|A|`. The
        // columns index clients by `u32`: a topic too large for that streams.
        let clients = workload.publisher_count().max(workload.subscriber_count());
        let sweep_steps = SWEEP_ADVANTAGE * (senders + workload.subscriber_count());
        let widest_swept = match u32::try_from(clients) {
            Ok(_) if sweep_steps > 0 => senders * workload.subscriber_count() / sweep_steps,
            _ => 0,
        };
        Ok(TopicEvaluator {
            regions,
            inter,
            workload,
            subscriber_weight,
            total_messages,
            total_deliveries: subscriber_weight * total_messages,
            total_bytes: crate::cost::total_bytes(workload),
            senders,
            widest_swept: u32::try_from(widest_swept).unwrap_or(u32::MAX),
            columns: OnceLock::new(),
        })
    }

    /// The region set this evaluator works over.
    pub(crate) fn regions(&self) -> &RegionSet {
        self.regions
    }

    /// The inter-region latency matrix.
    pub(crate) fn inter(&self) -> &InterRegionMatrix {
        self.inter
    }

    /// The workload snapshot being evaluated.
    pub(crate) fn workload(&self) -> &TopicWorkload {
        self.workload
    }

    /// Total deliveries `|𝔻_C|` in the interval.
    pub(crate) fn total_deliveries(&self) -> u64 {
        self.total_deliveries
    }

    /// Evaluates one configuration, allocating fresh scratch space.
    pub fn evaluate(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
    ) -> ConfigEvaluation {
        let mut scratch = EvalScratch::default();
        self.evaluate_into(configuration, constraint, &mut scratch)
    }

    /// Evaluates one configuration reusing caller-provided scratch buffers:
    /// stage 1, then the exact percentile.
    ///
    /// The scratch may be shared between evaluators: every call attributes
    /// every client afresh.
    pub fn evaluate_into(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
        scratch: &mut EvalScratch,
    ) -> ConfigEvaluation {
        self.evaluate_on(configuration, constraint, scratch, false)
    }

    /// [`TopicEvaluator::evaluate_into`] on a scratch that `own` says only
    /// this evaluator has attributed on, so that a previous attribution of
    /// the same region set keeps its subscriber half (see `attribute`).
    pub(crate) fn evaluate_on(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
        scratch: &mut EvalScratch,
        own: bool,
    ) -> ConfigEvaluation {
        let cost_dollars = self.attribute(configuration, scratch, own);
        let rank = constraint.rank(self.total_deliveries);
        let percentile_ms = self.percentile_ms(configuration, rank, scratch);
        ConfigEvaluation { configuration, percentile_ms, cost_dollars }
    }

    /// Stage 1 of `configuration`, as a [`Candidate`] that runs stage 2 on
    /// `scratch` if and when the selection rule asks about delivery times.
    /// `rank` is `n^T` of Eq. 5. Only this evaluator may attribute on
    /// `scratch`: a previous attribution of the same region set keeps its
    /// subscriber half.
    pub(crate) fn stage<'s>(
        &'s self,
        configuration: Configuration,
        rank: u64,
        scratch: &'s RefCell<EvalScratch>,
    ) -> StagedCandidate<'s, 'a> {
        let cost_dollars = self.attribute(configuration, &mut scratch.borrow_mut(), true);
        StagedCandidate {
            evaluator: self,
            scratch,
            configuration,
            cost_dollars,
            rank,
            percentile_ms: Cell::new(None),
            examined: Cell::new(false),
        }
    }

    /// Stage 1: attributes every client to its closest serving region under
    /// `configuration`, leaves the attribution in `scratch` and returns the
    /// configuration's cost (Eq. 3–4).
    ///
    /// When `own` says only this evaluator has attributed on `scratch`, its
    /// walks keep their rows, so a set whose parent was attributed last (the
    /// enumeration's order) costs one [`nearer`] step per client. And since
    /// the enumeration yields direct and then routed for each set, the
    /// subscribers' half of a set attributed last is kept whole.
    fn attribute(&self, configuration: Configuration, scratch: &mut EvalScratch, own: bool) -> f64 {
        let assignment = configuration.assignment();
        let n_regions = self.regions.len();
        if !own {
            scratch.subscribers.forget();
            scratch.publishers.forget();
        }
        let same_regions =
            own && scratch.attributed.is_some_and(|last| last.assignment() == assignment);
        scratch.attributed = Some(configuration);
        scratch.grouping.current = false;
        if !same_regions {
            let subscribers = self.workload.subscribers();
            let latencies = subscribers.iter().map(Subscriber::latencies);
            let serving = scratch.subscribers.attribute(assignment, n_regions, latencies);
            scratch.sub_counts.clear();
            scratch.sub_counts.resize(n_regions, 0);
            for (sub, region) in subscribers.iter().zip(serving) {
                scratch.sub_counts[region.index()] += sub.weight();
            }
        }
        let forwarding = match configuration.mode() {
            DeliveryMode::Direct => 0.0,
            DeliveryMode::Routed => {
                let publishers = self.workload.publishers();
                let latencies = publishers.iter().map(Publisher::latencies);
                let homes = scratch.publishers.attribute(assignment, n_regions, latencies);
                let sent = publishers.iter().zip(homes);
                let sent = sent.map(|(publisher, &home)| (publisher.batch().total_bytes(), home));
                crate::cost::forwarding_dollars(self.regions, assignment, sent)
            }
        };
        crate::cost::cost_dollars(self.regions, self.total_bytes, &scratch.sub_counts, forwarding)
    }

    /// The publishers that sent anything in the interval, each with its
    /// home region if `homes` attributes one.
    fn senders<'s>(
        &self,
        homes: Option<&'s [RegionId]>,
    ) -> impl Iterator<Item = (&'a Publisher, Option<RegionId>)> + 's
    where
        'a: 's,
    {
        let homes = (0..).map(move |p| homes.map(|homes| homes[p]));
        self.workload.publishers().iter().zip(homes).filter(|(p, _)| p.batch().count() > 0)
    }

    /// Calls `visit(time_ms, weight)` for each subscriber of one publisher:
    /// the pair's delivery time (Eq. 1 without a home region, Eq. 2 with one)
    /// and how many deliveries share it, message count × subscriber weight.
    ///
    /// The only place stage 2 computes a delivery time.
    #[inline]
    fn for_each_pair(
        &self,
        publisher: &Publisher,
        home: Option<RegionId>,
        sub_regions: &[RegionId],
        mut visit: impl FnMut(f64, u64),
    ) {
        let from = publisher.latencies();
        let messages = publisher.batch().count();
        let pairs = self.workload.subscribers().iter().zip(sub_regions);
        match home {
            None => pairs.for_each(|(sub, &region)| {
                visit(direct_delivery_ms(from, sub.latencies(), region), messages * sub.weight())
            }),
            Some(home) => pairs.for_each(|(sub, &region)| {
                let time_ms = routed_delivery_ms(from, sub.latencies(), home, region, self.inter);
                visit(time_ms, messages * sub.weight())
            }),
        }
    }

    /// Whether stage 2 sweeps `configuration` or streams it: sweeps when the
    /// pairs a streaming kernel would visit number at least
    /// [`SWEEP_ADVANTAGE`] times the steps of one sweep.
    #[inline]
    fn sweeps(&self, configuration: Configuration) -> bool {
        configuration.region_count() <= self.widest_swept
    }

    /// Stage 2a: whether the `rank`-th smallest delivery time under
    /// `configuration`, attributed in `scratch`, is at most `bound_ms` — i.e.
    /// whether the deliveries within `bound_ms` number at least `rank`.
    /// Decides as soon as they do, or as soon as those beyond it leave too few.
    #[inline]
    fn delivers_within(
        &self,
        configuration: Configuration,
        bound_ms: f64,
        rank: u64,
        scratch: &mut EvalScratch,
    ) -> bool {
        if rank == 0 {
            0.0 <= bound_ms // no deliveries: `D̃_C` is 0.0 by convention
        } else if scratch.table.bound_ms == Some(bound_ms) {
            self.tabled_within(configuration, scratch) >= rank
        } else if self.sweeps(configuration) {
            self.swept_delivers_within(configuration, bound_ms, rank, scratch)
        } else {
            self.streamed_delivers_within(configuration, bound_ms, rank, scratch)
        }
    }

    /// Stage 2b: the `rank`-th smallest delivery time under `configuration`,
    /// attributed in `scratch`.
    #[inline]
    fn percentile_ms(
        &self,
        configuration: Configuration,
        rank: u64,
        scratch: &mut EvalScratch,
    ) -> f64 {
        if self.sweeps(configuration) {
            self.swept_percentile_ms(configuration, rank, scratch)
        } else {
            self.streamed_percentile_ms(configuration, rank, scratch)
        }
    }

    /// Stage 2a, streaming: publisher by publisher over every pair.
    fn streamed_delivers_within(
        &self,
        configuration: Configuration,
        bound_ms: f64,
        rank: u64,
        scratch: &EvalScratch,
    ) -> bool {
        let (serving, homes) =
            attribution(configuration, &scratch.subscribers, &scratch.publishers);
        let may_miss = self.total_deliveries - rank;
        let (mut seen, mut within) = (0u64, 0u64);
        for (publisher, home) in self.senders(homes) {
            self.for_each_pair(publisher, home, serving, |time_ms, weight| {
                within += if time_ms <= bound_ms { weight } else { 0 };
            });
            seen += publisher.batch().count() * self.subscriber_weight;
            if within >= rank {
                return true;
            }
            if seen - within > may_miss {
                return false;
            }
        }
        within >= rank
    }

    /// Stage 2b, streaming: every pair materialised, then selected among.
    fn streamed_percentile_ms(
        &self,
        configuration: Configuration,
        rank: u64,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let EvalScratch { samples, subscribers, publishers, .. } = scratch;
        let (serving, homes) = attribution(configuration, subscribers, publishers);
        samples.clear();
        samples.reserve(self.workload.publisher_count() * self.workload.subscriber_count());
        for (publisher, home) in self.senders(homes) {
            self.for_each_pair(publisher, home, serving, |time_ms, weight| {
                samples.push(WeightedSample { time_ms, weight });
            });
        }
        weighted_percentile(samples, rank)
    }

    /// The sorted latency columns, built on first use.
    fn columns(&self) -> &Columns {
        self.columns.get_or_init(|| Columns::build(self.workload, self.regions.len(), self.senders))
    }

    /// Whether any candidate of this topic sweeps: the size rule's verdict
    /// on the topic, and on whether a solve tabulates its count tests.
    pub(crate) fn sweeps_any(&self) -> bool {
        self.widest_swept > 0
    }

    /// Tabulates stage 2a at `bound_ms` into `scratch`: `k(h, r, s)` for
    /// every home, serving region and subscriber, traced as the staircase of
    /// the (`h`, `r`) block over all senders by two pointers — `N² × (P + S)`
    /// pair times, which a solve pays once.
    pub(crate) fn tabulate(&self, bound_ms: f64, scratch: &mut EvalScratch) {
        let table = &mut scratch.table;
        let columns = self.columns();
        let (publishers, subscribers) = (self.workload.publishers(), self.workload.subscribers());
        let n_regions = self.regions.len();
        table.sent.clear();
        table.sent.reserve(n_regions * (columns.senders + 1));
        for region in self.regions.ids() {
            let messages = columns.senders_by(region).iter();
            let messages = messages.map(|&p| publishers[p as usize].batch().count());
            table.sent.push(0);
            table.sent.extend(messages.scan(0, |sent, messages| {
                *sent += messages;
                Some(*sent)
            }));
        }
        table.homed.clear();
        table.homed.resize(table.sent.len(), 0);
        table.counts.clear();
        table.counts.resize(n_regions * n_regions * columns.subscribers, 0);
        for (home, region) in
            self.regions.ids().flat_map(|h| self.regions.ids().map(move |r| (h, r)))
        {
            let block = Block {
                senders: columns.senders_by(home),
                subscribers: columns.subscribers_by(region),
                home: Some(home),
                region,
                messages: 0,
            };
            let mut reach = block.senders.len();
            for &s in block.subscribers {
                reach = self.reach(&block, &subscribers[s as usize], reach, bound_ms);
                let at = (region.index() * columns.subscribers + s as usize) * n_regions;
                table.counts[at + home.index()] = reach as u32;
            }
        }
        table.bound_ms = Some(bound_ms);
    }

    /// Stage 2a by table: the deliveries within the tabulated bound under
    /// `configuration`, attributed in `scratch`. Per subscriber `s` served by
    /// `r`, direct: `sent[r][k(r, r, s)]`; routed: `Σ_{h ∈ A} homed[h][k(h,
    /// r, s)]`, once the `homed` prefix sums are taken along each home's
    /// column — `S` steps direct, `|A| × (P + S)` routed, no delivery time.
    fn tabled_within(&self, configuration: Configuration, scratch: &mut EvalScratch) -> u64 {
        let EvalScratch { subscribers, publishers, table, .. } = scratch;
        let CountTable { counts, sent, homed, .. } = table;
        let (serving, homes) = attribution(configuration, subscribers, publishers);
        let columns = self.columns();
        let (n_regions, stride) = (self.regions.len(), columns.senders + 1);
        let assignment = configuration.assignment();
        if let Some(homes) = homes {
            for home in assignment.iter() {
                let sent = &sent[home.index() * stride..][..stride];
                let homed = &mut homed[home.index() * stride..][..stride];
                for (at, &p) in columns.senders_by(home).iter().enumerate() {
                    let own = if homes[p as usize] == home { sent[at + 1] - sent[at] } else { 0 };
                    homed[at + 1] = homed[at] + own;
                }
            }
        }
        let weights = self.workload.subscribers().iter().map(Subscriber::weight);
        let reached = weights.zip(serving).enumerate().map(|(s, (weight, &region))| {
            let counts = &counts[(region.index() * columns.subscribers + s) * n_regions..];
            let messages = match homes {
                None => sent[region.index() * stride + counts[region.index()] as usize],
                Some(_) => assignment
                    .iter()
                    .map(|home| homed[home.index() * stride + counts[home.index()] as usize])
                    .sum(),
            };
            weight * messages
        });
        reached.sum()
    }

    /// Grouping: sorts stage 1's attribution of `configuration` into blocks —
    /// per serving region its subscribers, per home region (routed) its
    /// senders with their message total, each in column order. Once per
    /// examined candidate, whatever it is then asked.
    fn group(&self, configuration: Configuration, scratch: &mut EvalScratch) {
        let EvalScratch { subscribers, publishers, grouping, .. } = scratch;
        if grouping.current {
            return;
        }
        let (serving, homes) = attribution(configuration, subscribers, publishers);
        let Grouping { current, order, groups } = grouping;
        let columns = self.columns();
        let publishers = self.workload.publishers();
        let assignment = configuration.assignment();
        order.clear();
        order.reserve(columns.subscribers + columns.senders);
        groups.clear();
        groups.resize(self.regions.len() + 1, Group::default());
        for region in self.regions.ids() {
            groups[region.index()].subscribers = order.len() as u32;
            if assignment.contains(region) {
                let column = columns.subscribers_by(region).iter();
                order.extend(column.filter(|&&s| serving[s as usize] == region));
            }
        }
        let subscribers_end = order.len() as u32;
        for region in self.regions.ids() {
            let group = &mut groups[region.index()];
            group.senders = order.len() as u32;
            if let Some(homes) = homes.filter(|_| assignment.contains(region)) {
                let column = columns.senders_by(region).iter();
                for &p in column.filter(|&&p| homes[p as usize] == region) {
                    order.push(p);
                    group.messages += publishers[p as usize].batch().count();
                }
            }
        }
        groups[self.regions.len()].subscribers = subscribers_end;
        groups[self.regions.len()].senders = order.len() as u32;
        *current = true;
    }

    /// The non-empty blocks of `configuration` as grouped: one per serving
    /// region (direct), one per home and serving region (routed).
    fn blocks<'s>(
        &'s self,
        configuration: Configuration,
        grouping: &'s Grouping,
    ) -> impl Iterator<Item = Block<'s>> + 's {
        let Grouping { order, groups, .. } = grouping;
        let columns = self.columns();
        let assignment = configuration.assignment();
        let routed = configuration.mode() == DeliveryMode::Routed;
        let homes = assignment.iter().map(Some).filter(move |_| routed);
        homes
            .chain((!routed).then_some(None))
            .flat_map(move |home| assignment.iter().map(move |region| (home, region)))
            .filter_map(move |(home, region)| {
                let (serving, next) = (groups[region.index()], groups[region.index() + 1]);
                let (senders, messages) = match home {
                    None => (columns.senders_by(region), self.total_messages),
                    Some(home) => {
                        let (homed, next) = (groups[home.index()], groups[home.index() + 1]);
                        (&order[homed.senders as usize..next.senders as usize], homed.messages)
                    }
                };
                let subscribers = &order[serving.subscribers as usize..next.subscribers as usize];
                let block = Block { senders, subscribers, home, region, messages };
                (!senders.is_empty() && !subscribers.is_empty()).then_some(block)
            })
    }

    /// The delivery time of one pair of `block` (Eq. 1 without a home region,
    /// Eq. 2 with one). The only place a sweep computes a delivery time.
    #[inline]
    fn block_time_ms(&self, block: &Block<'_>, publisher: &Publisher, sub: &Subscriber) -> f64 {
        let (from, to) = (publisher.latencies(), sub.latencies());
        match block.home {
            None => direct_delivery_ms(from, to, block.region),
            Some(home) => routed_delivery_ms(from, to, home, block.region, self.inter),
        }
    }

    /// How many of `block.senders[..reach]` deliver to `sub` within
    /// `bound_ms`: a prefix, the times being non-decreasing along `senders`.
    #[inline]
    fn reach(&self, block: &Block<'_>, sub: &Subscriber, mut reach: usize, bound_ms: f64) -> usize {
        let publishers = self.workload.publishers();
        while reach > 0
            && self.block_time_ms(block, &publishers[block.senders[reach - 1] as usize], sub)
                > bound_ms
        {
            reach -= 1;
        }
        reach
    }

    /// The deliveries and pairs of `block` within `bound_ms`: per subscriber
    /// a prefix of the senders, which can only shrink from one subscriber to
    /// the next — `senders + subscribers` steps at most.
    fn within(&self, block: &Block<'_>, bound_ms: f64) -> Within {
        let publishers = self.workload.publishers();
        let subscribers = self.workload.subscribers();
        let mut reach = block.senders.len();
        let mut messages = block.messages;
        let mut within = Within::default();
        for &s in block.subscribers {
            let sub = &subscribers[s as usize];
            while reach > 0 {
                let publisher = &publishers[block.senders[reach - 1] as usize];
                if self.block_time_ms(block, publisher, sub) <= bound_ms {
                    break;
                }
                reach -= 1;
                messages -= publisher.batch().count();
            }
            if reach == 0 {
                break;
            }
            within.weight += sub.weight() * messages;
            within.pairs += reach as u64;
        }
        within
    }

    /// The deliveries and pairs of `configuration` as grouped within
    /// `bound_ms`: one sweep over every block.
    fn within_all(
        &self,
        configuration: Configuration,
        grouping: &Grouping,
        bound_ms: f64,
    ) -> Within {
        self.blocks(configuration, grouping).fold(Within::default(), |sum, block| {
            let Within { weight, pairs } = self.within(&block, bound_ms);
            Within { weight: sum.weight + weight, pairs: sum.pairs + pairs }
        })
    }

    /// Pushes the pairs of `block` with `above_ms < time ≤ upto_ms`.
    fn list_between(
        &self,
        block: &Block<'_>,
        above_ms: f64,
        upto_ms: f64,
        samples: &mut Vec<WeightedSample>,
    ) {
        let publishers = self.workload.publishers();
        let (mut low, mut high) = (block.senders.len(), block.senders.len());
        for &s in block.subscribers {
            let sub = &self.workload.subscribers()[s as usize];
            high = self.reach(block, sub, high, upto_ms);
            if high == 0 {
                break;
            }
            low = self.reach(block, sub, low.min(high), above_ms);
            samples.extend(block.senders[low..high].iter().map(|&p| {
                let publisher = &publishers[p as usize];
                WeightedSample {
                    time_ms: self.block_time_ms(block, publisher, sub),
                    weight: publisher.batch().count() * sub.weight(),
                }
            }));
        }
    }

    /// Stage 2a, sweeping: block by block, the streaming kernel's two exits
    /// checked between blocks.
    fn swept_delivers_within(
        &self,
        configuration: Configuration,
        bound_ms: f64,
        rank: u64,
        scratch: &mut EvalScratch,
    ) -> bool {
        self.group(configuration, scratch);
        let may_miss = self.total_deliveries - rank;
        let (mut seen, mut within) = (0u64, 0u64);
        for block in self.blocks(configuration, &scratch.grouping) {
            within += self.within(&block, bound_ms).weight;
            seen += block.messages * scratch.sub_counts[block.region.index()];
            if within >= rank {
                return true;
            }
            if seen - within > may_miss {
                return false;
            }
        }
        within >= rank
    }

    /// Stage 2b, sweeping: bisects between the smallest and the largest pair
    /// time, on their bit patterns, down to a window of pairs worth listing,
    /// and selects among those.
    fn swept_percentile_ms(
        &self,
        configuration: Configuration,
        rank: u64,
        scratch: &mut EvalScratch,
    ) -> f64 {
        self.group(configuration, scratch);
        let EvalScratch { grouping, samples, .. } = scratch;
        let blocks = || self.blocks(configuration, grouping);
        // The smallest and the largest pair time are corners of blocks; one
        // sweep takes `steps` steps.
        let (mut least_ms, mut most_ms, mut steps) = (f64::INFINITY, f64::NEG_INFINITY, 0u64);
        for block in blocks() {
            // Blocks are non-empty.
            let corner = |sender: usize, sub: usize| {
                let publisher = &self.workload.publishers()[block.senders[sender] as usize];
                let sub = &self.workload.subscribers()[block.subscribers[sub] as usize];
                self.block_time_ms(&block, publisher, sub)
            };
            least_ms = least_ms.min(corner(0, 0));
            most_ms = most_ms.max(corner(block.senders.len() - 1, block.subscribers.len() - 1));
            steps += (block.senders.len() + block.subscribers.len()) as u64;
        }
        if rank == 0 || steps == 0 {
            return 0.0; // no deliveries: `D̃_C` is 0.0 by convention
        }
        let key = |t: f64| order_key(t.to_bits() as i64);
        let at = |key: i64| f64::from_bits(order_key(key) as u64);
        let pairs = (self.senders * self.workload.subscriber_count()) as u64;
        // `lo` and `hi` are what lies within the floats at `lo_key` and
        // `hi_key`, and `lo.weight < rank ≤ hi.weight` throughout: `D̃_C` is
        // above the one and at most the other.
        let (mut lo_key, mut lo) = (key(below(least_ms)), Within::default());
        let (mut hi_key, mut hi) = (key(most_ms), Within { weight: self.total_deliveries, pairs });
        let mut spent = 0;
        while hi.pairs - lo.pairs > steps && hi_key - lo_key > 1 && spent < pairs {
            let middle = lo_key + (hi_key - lo_key) / 2;
            let within = self.within_all(configuration, grouping, at(middle));
            if within.weight >= rank {
                (hi_key, hi) = (middle, within);
            } else {
                (lo_key, lo) = (middle, within);
            }
            spent += steps;
        }
        let (lo_ms, hi_ms) = (at(lo_key), at(hi_key));
        if hi_key - lo_key == 1 && hi_ms != 0.0 {
            // Every pair of the window equals `hi`. (Zeros of either sign are
            // equal too, but not the same bits: those are selected among.)
            return hi_ms;
        }
        samples.clear();
        samples.reserve(self.regions.len() * (self.senders + self.workload.subscriber_count()));
        blocks().for_each(|block| self.list_between(&block, lo_ms, hi_ms, samples));
        weighted_percentile(samples, rank - lo.weight)
    }
}

#[cfg(test)]
impl TopicEvaluator<'_> {
    /// Whether a candidate has swept, and with it built the columns.
    pub(crate) fn has_columns(&self) -> bool {
        self.columns.get().is_some()
    }

    /// [`TopicEvaluator::evaluate`] by the streaming kernel, whatever the
    /// size rule says: the reference the sweeping kernel is held to.
    pub(crate) fn evaluate_streamed(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
    ) -> ConfigEvaluation {
        let mut scratch = EvalScratch::default();
        let cost_dollars = self.attribute(configuration, &mut scratch, false);
        let rank = constraint.rank(self.total_deliveries);
        let percentile_ms = self.streamed_percentile_ms(configuration, rank, &mut scratch);
        ConfigEvaluation { configuration, percentile_ms, cost_dollars }
    }
}

/// A configuration evaluated as far as stage 1, answering the selection
/// rule's questions about delivery times by running stage 2 when asked.
///
/// Candidates staged on one scratch share its attribution buffers; one that
/// is asked after a later one was staged re-attributes itself first.
#[derive(Debug)]
pub(crate) struct StagedCandidate<'s, 'a> {
    evaluator: &'s TopicEvaluator<'a>,
    scratch: &'s RefCell<EvalScratch>,
    configuration: Configuration,
    cost_dollars: f64,
    rank: u64,
    percentile_ms: Cell<Option<f64>>,
    examined: Cell<bool>,
}

impl StagedCandidate<'_, '_> {
    /// The scratch, holding this candidate's attribution. Only stage 2 asks
    /// for it, so asking marks the candidate examined.
    fn attribution(&self) -> RefMut<'_, EvalScratch> {
        self.examined.set(true);
        let mut scratch = self.scratch.borrow_mut();
        if scratch.attributed != Some(self.configuration) {
            self.evaluator.attribute(self.configuration, &mut scratch, true);
        }
        scratch
    }
}

impl Candidate for StagedCandidate<'_, '_> {
    fn configuration(&self) -> Configuration {
        self.configuration
    }

    fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    fn delivers_within(&self, bound_ms: f64) -> bool {
        match self.percentile_ms.get() {
            Some(percentile_ms) => percentile_ms <= bound_ms,
            None => self.evaluator.delivers_within(
                self.configuration,
                bound_ms,
                self.rank,
                &mut self.attribution(),
            ),
        }
    }

    fn percentile_ms(&self) -> f64 {
        self.percentile_ms.get().unwrap_or_else(|| {
            let percentile_ms = self.evaluator.percentile_ms(
                self.configuration,
                self.rank,
                &mut self.attribution(),
            );
            self.percentile_ms.set(Some(percentile_ms));
            percentile_ms
        })
    }

    fn examined(&self) -> bool {
        self.examined.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{enumerate_configurations, ModePolicy};
    use crate::delivery::closest_region;
    use crate::ids::ClientId;
    use crate::optimizer::{preferred, Optimizer, Solution};
    use crate::region::Region;
    use crate::testing::{random_instance, Shape, SplitMix64};
    use crate::workload::{MessageBatch, Publisher, Subscriber};

    fn regions3() -> RegionSet {
        RegionSet::new(vec![
            Region::new("r0", "A", 0.02, 0.09),
            Region::new("r1", "B", 0.09, 0.14),
            Region::new("r2", "C", 0.16, 0.25),
        ])
        .unwrap()
    }

    fn inter3() -> InterRegionMatrix {
        InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 120.0],
            vec![90.0, 120.0, 0.0],
        ])
        .unwrap()
    }

    fn workload3() -> TopicWorkload {
        TopicWorkload::new(
            3,
            vec![
                Publisher::new(
                    ClientId(0),
                    vec![10.0, 60.0, 100.0],
                    MessageBatch::uniform(5, 1000),
                ),
                Publisher::new(ClientId(1), vec![95.0, 55.0, 12.0], MessageBatch::uniform(3, 2000)),
            ],
            vec![
                Subscriber::new(ClientId(2), vec![8.0, 66.0, 99.0]),
                Subscriber::new(ClientId(3), vec![70.0, 9.0, 80.0]),
                Subscriber::with_weight(ClientId(4), vec![88.0, 77.0, 6.0], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = regions3();
        let inter2 = InterRegionMatrix::from_rows(vec![vec![0.0; 2]; 2]).unwrap();
        let w = workload3();
        assert!(TopicEvaluator::new(&r, &inter2, &w).is_err());
        let w2 = TopicWorkload::new(2, vec![], vec![]).unwrap();
        let inter = inter3();
        assert!(TopicEvaluator::new(&r, &inter, &w2).is_err());
    }

    #[test]
    fn direct_percentile_hand_checked() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Direct);
        let c100 = DeliveryConstraint::new(100.0, 1000.0).unwrap();
        // All-regions direct: every subscriber is served by its closest region.
        // Pair times: P0→S2: 10+8=18 (w 5), P0→S3: 60+9=69 (w 5),
        // P0→S4: 100+6=106 (w 10), P1→S2: 95+8=103 (w 3),
        // P1→S3: 55+9=64 (w 3), P1→S4: 12+6=18 (w 6).
        // Total deliveries = (5+3)×4 = 32. Max = 106.
        let out = eval.evaluate(config, &c100);
        assert_eq!(out.percentile_ms(), 106.0);
        // Median-ish rank: ceil(0.5×32)=16 → sorted cumulative:
        // 18(w11) → 11, 64(w3) → 14, 69(w5) → 19 ≥ 16 → 69.
        let c50 = DeliveryConstraint::new(50.0, 1000.0).unwrap();
        assert_eq!(eval.evaluate(config, &c50).percentile_ms(), 69.0);
    }

    #[test]
    fn routed_percentile_hand_checked() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Routed);
        let c100 = DeliveryConstraint::new(100.0, 1000.0).unwrap();
        // P0 home = R0 (10), P1 home = R2 (12).
        // P0→S2 (R0): 10+0+8=18; P0→S3 (R1): 10+40+9=59; P0→S4 (R2): 10+90+6=106.
        // P1→S2 (R0): 12+90+8=110; P1→S3 (R1): 12+120+9=141; P1→S4 (R2): 12+0+6=18.
        let out = eval.evaluate(config, &c100);
        assert_eq!(out.percentile_ms(), 141.0);
    }

    #[test]
    fn cost_matches_cost_module() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        for mask in 1u32..8 {
            for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                let config =
                    Configuration::new(AssignmentVector::from_mask(mask, 3).unwrap(), mode);
                let out = eval.evaluate(config, &constraint);
                let reference = crate::cost::topic_cost_dollars(&r, &w, config);
                // One Eq. 3–4 kernel behind both: equal to the bit.
                assert_eq!(
                    out.cost_dollars().to_bits(),
                    reference.to_bits(),
                    "mask {mask} mode {mode}: {} vs {reference}",
                    out.cost_dollars()
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_gives_identical_results() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        let mut scratch = EvalScratch::default();
        for mask in 1u32..8 {
            let config = Configuration::new(
                AssignmentVector::from_mask(mask, 3).unwrap(),
                DeliveryMode::Routed,
            );
            let a = eval.evaluate(config, &constraint);
            let b = eval.evaluate_into(config, &constraint, &mut scratch);
            assert_eq!(a, b);
        }
    }

    /// Random four-region instances of 1–12 × 1–12 clients.
    fn four_region_instance(rng: &mut SplitMix64) -> (RegionSet, InterRegionMatrix, TopicWorkload) {
        let shape =
            Shape { regions: (4, 4), publishers: (1, 12), subscribers: (1, 12), fractional: true };
        random_instance(rng, &shape)
    }

    #[test]
    fn a_scratch_shared_between_evaluators_gets_each_workloads_answer() {
        let mut rng = SplitMix64(0x5ca7);
        for _ in 0..20 {
            let (regions_a, inter_a, a) = four_region_instance(&mut rng);
            let (regions_b, inter_b, b) = four_region_instance(&mut rng);
            let eval_a = TopicEvaluator::new(&regions_a, &inter_a, &a).unwrap();
            let eval_b = TopicEvaluator::new(&regions_b, &inter_b, &b).unwrap();
            let constraint = DeliveryConstraint::new(90.0, 100.0).unwrap();
            let mut scratch = EvalScratch::default();
            // Each region set is attributed by one evaluator, then the other.
            for config in
                enumerate_configurations(AssignmentVector::all(4).unwrap(), ModePolicy::Any)
            {
                for eval in [&eval_a, &eval_b] {
                    let shared = eval.evaluate_into(config, &constraint, &mut scratch);
                    assert_eq!(shared, eval.evaluate(config, &constraint), "{config}");
                }
            }
        }
    }

    #[test]
    fn an_own_scratch_attributes_each_region_sets_subscribers_once() {
        let mut rng = SplitMix64(0x0dd);
        for _ in 0..20 {
            let (regions, inter, workload) = four_region_instance(&mut rng);
            let eval = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let constraint = DeliveryConstraint::new(90.0, 100.0).unwrap();
            let mut scratch = EvalScratch::default();
            for config in
                enumerate_configurations(AssignmentVector::all(4).unwrap(), ModePolicy::Any)
            {
                let own = eval.evaluate_on(config, &constraint, &mut scratch, true);
                assert_eq!(own, eval.evaluate(config, &constraint), "{config}");
            }
        }
    }

    /// Attributes `configuration` on `scratch` and holds every client's region
    /// to `closest_region`, and the cost to `cost::topic_cost_dollars`.
    /// Returns how many subscribers had more than one nearest region.
    fn attributes_as_closest_region(
        evaluator: &TopicEvaluator<'_>,
        configuration: Configuration,
        scratch: &mut EvalScratch,
        own: bool,
    ) -> usize {
        let cost = evaluator.attribute(configuration, scratch, own);
        let (serving, homes) =
            attribution(configuration, &scratch.subscribers, &scratch.publishers);
        let (assignment, workload) = (configuration.assignment(), evaluator.workload());
        let closest = |latencies: &[f64]| closest_region(latencies, assignment);
        let expected: Vec<RegionId> =
            workload.subscribers().iter().map(|s| closest(s.latencies())).collect();
        assert_eq!(serving, expected, "{configuration}");
        if configuration.mode() == DeliveryMode::Routed {
            let expected: Vec<RegionId> =
                workload.publishers().iter().map(|p| closest(p.latencies())).collect();
            assert_eq!(homes, Some(&expected[..]), "{configuration}");
        }
        let reference =
            crate::cost::topic_cost_dollars(evaluator.regions(), workload, configuration);
        assert_eq!(cost.to_bits(), reference.to_bits(), "{configuration}");
        let tied = |s: &Subscriber| {
            let nearest = s.latencies()[closest(s.latencies()).index()];
            assignment.iter().filter(|r| s.latencies()[r.index()] == nearest).count() > 1
        };
        workload.subscribers().iter().filter(|&s| tied(s)).count()
    }

    /// Stage 1 walks the enumeration's tree, yet in whatever order the
    /// candidates come each client lands where `closest_region` puts it — on
    /// 2–10 regions, whole-millisecond rows (which tie) and fractional ones:
    /// every configuration in enumeration order and then shuffled on one own
    /// scratch, then on one scratch passed between two evaluators.
    #[test]
    fn the_walk_attributes_every_client_as_closest_region_does() {
        let mut rng = SplitMix64(0x7A1C_0057);
        let (most_regions, clients) = if cfg!(miri) { (3, 3) } else { (10, 8) };
        let mut ties = 0;
        for n in 2..=most_regions {
            for fractional in [false, true] {
                let shape = Shape {
                    regions: (n, n),
                    publishers: (1, clients),
                    subscribers: (1, clients),
                    fractional,
                };
                let (regions_a, inter_a, a) = random_instance(&mut rng, &shape);
                let (regions_b, inter_b, b) = random_instance(&mut rng, &shape);
                let eval_a = TopicEvaluator::new(&regions_a, &inter_a, &a).unwrap();
                let eval_b = TopicEvaluator::new(&regions_b, &inter_b, &b).unwrap();
                let all = AssignmentVector::all(n as usize).unwrap();
                let mut order: Vec<Configuration> =
                    enumerate_configurations(all, ModePolicy::Any).collect();
                let mut own = EvalScratch::default();
                for &config in &order {
                    ties += attributes_as_closest_region(&eval_a, config, &mut own, true);
                }
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.range(0, i as u64) as usize);
                }
                let mut shared = EvalScratch::default();
                for &config in &order {
                    attributes_as_closest_region(&eval_a, config, &mut own, true);
                    for eval in [&eval_a, &eval_b] {
                        attributes_as_closest_region(eval, config, &mut shared, false);
                    }
                }
            }
        }
        assert!(ties > 0);
    }

    #[test]
    fn empty_traffic_yields_zero_percentile_and_cost() {
        let r = regions3();
        let inter = inter3();
        let w = TopicWorkload::new(
            3,
            vec![Publisher::new(ClientId(0), vec![1.0, 2.0, 3.0], MessageBatch::default())],
            vec![Subscriber::new(ClientId(1), vec![1.0, 2.0, 3.0])],
        )
        .unwrap();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 10.0).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Direct);
        let out = eval.evaluate(config, &constraint);
        assert_eq!(out.percentile_ms(), 0.0);
        assert_eq!(out.cost_dollars(), 0.0);
        assert!(out.is_feasible(&constraint));
        // The count test agrees that nothing was late.
        let scratch = RefCell::new(EvalScratch::default());
        assert!(eval.stage(config, 0, &scratch).delivers_within(constraint.max_ms()));
    }

    /// The neighbouring floats of a non-negative `t`.
    fn neighbours(t: f64) -> [f64; 2] {
        [below(t), f64::from_bits((t + 0.0).to_bits() + 1)]
    }

    /// Every pair's time and weight under the attribution of `configuration`
    /// in `scratch`, read off the streaming walk: the multiset `𝔻_C` every
    /// kernel answers about.
    fn all_pairs(
        evaluator: &TopicEvaluator<'_>,
        configuration: Configuration,
        scratch: &EvalScratch,
    ) -> Vec<WeightedSample> {
        let (serving, homes) =
            attribution(configuration, &scratch.subscribers, &scratch.publishers);
        let mut pairs = Vec::new();
        for (publisher, home) in evaluator.senders(homes) {
            evaluator.for_each_pair(publisher, home, serving, |time_ms, weight| {
                pairs.push(WeightedSample { time_ms, weight });
            });
        }
        pairs
    }

    /// What [`both_kernels_agree`] came across.
    #[derive(Default)]
    struct Seen {
        /// Blocks of more than one sender and more than one subscriber.
        staircases: usize,
        /// Routed blocks whose home region is also their serving region.
        home_serves: usize,
        /// Percentiles that took at least one bisection step to find.
        bisected: usize,
        /// Bounds a count table was built and checked at.
        tabled: usize,
    }

    /// Runs `configuration` through the streaming and the sweeping kernel,
    /// whatever the size rule would pick. At every pair time that occurs, its
    /// two neighbouring floats, 0 and `f64::MAX`: swept count = streamed count
    /// = brute-force count, and both count tests = (`D̃_C ≤ t`) for each rank.
    /// At each rank: swept percentile = streamed percentile = a selection over
    /// the materialised pairs, to the bit. `ranks` ascend, and so must `D̃`.
    /// At every telling threshold — each rank's `D̃` (a pair time) and its
    /// two neighbours, 0 and `f64::MAX` — the count table built for it: its
    /// count = brute-force count, and its count test = (`D̃_C ≤ t`) for each
    /// rank.
    fn both_kernels_agree(
        evaluator: &TopicEvaluator<'_>,
        configuration: Configuration,
        ranks: &[u64],
        seen: &mut Seen,
        context: &str,
    ) {
        let mut scratch = EvalScratch::default();
        evaluator.attribute(configuration, &mut scratch, false);
        let pairs = all_pairs(evaluator, configuration, &scratch);
        let total: u64 = pairs.iter().map(|pair| pair.weight).sum();
        assert_eq!(total, evaluator.total_deliveries(), "{context}");

        let mut percentiles = Vec::new();
        for &rank in ranks {
            let context = format!("{context}, rank {rank} of {total}");
            let selected = weighted_percentile(&mut pairs.clone(), rank);
            let streamed = evaluator.streamed_percentile_ms(configuration, rank, &mut scratch);
            let swept = evaluator.swept_percentile_ms(configuration, rank, &mut scratch);
            assert_eq!(streamed.to_bits(), selected.to_bits(), "{context}: streamed {streamed}");
            assert_eq!(swept.to_bits(), selected.to_bits(), "{context}: {swept} vs {selected}");
            // On the sweep path the buffer holds a window, never every pair.
            let sweep_steps = evaluator.regions.len()
                * (evaluator.senders + evaluator.workload.subscriber_count());
            assert!(scratch.samples.len() <= sweep_steps.max(pairs.len()), "{context}");
            seen.bisected += usize::from(scratch.samples.len() < pairs.len());
            // The ranks ascend, so `D̃` never falls.
            if let Some(&(_, previous)) = percentiles.last() {
                assert!(selected >= previous, "{context}: {selected} below {previous}");
            }
            percentiles.push((rank, selected));
        }

        evaluator.group(configuration, &mut scratch);
        for block in evaluator.blocks(configuration, &scratch.grouping) {
            seen.staircases += usize::from(block.senders.len() > 1 && block.subscribers.len() > 1);
            seen.home_serves += usize::from(block.home == Some(block.region));
        }
        let mut thresholds: Vec<f64> = pairs.iter().map(|pair| pair.time_ms).collect();
        thresholds.sort_unstable_by(f64::total_cmp);
        thresholds.dedup();
        let around: Vec<f64> = thresholds.iter().flat_map(|&t| neighbours(t)).collect();
        let brute = |t: f64| {
            let within = pairs.iter().filter(|pair| pair.time_ms <= t);
            within.fold(Within::default(), |sum, pair| Within {
                weight: sum.weight + pair.weight,
                pairs: sum.pairs + 1,
            })
        };
        // The count test's callers never ask at rank 0.
        let asked = || percentiles.iter().filter(|&&(rank, _)| rank > 0);
        for t in thresholds.into_iter().chain(around).chain([0.0, f64::MAX]) {
            let brute = brute(t);
            let swept = evaluator.within_all(configuration, &scratch.grouping, t);
            assert_eq!((swept.weight, swept.pairs), (brute.weight, brute.pairs), "{context}: {t}");
            for &(rank, percentile) in asked() {
                let context = format!("{context}, rank {rank}: D̃ = {percentile}, t = {t}");
                let streamed = evaluator.streamed_delivers_within(configuration, t, rank, &scratch);
                let swept = evaluator.swept_delivers_within(configuration, t, rank, &mut scratch);
                assert_eq!(streamed, percentile <= t, "{context}");
                assert_eq!(swept, percentile <= t, "{context}");
            }
        }
        let telling = percentiles
            .iter()
            .flat_map(|&(_, percentile)| [percentile].into_iter().chain(neighbours(percentile)));
        for t in telling.chain([0.0, f64::MAX]) {
            evaluator.tabulate(t, &mut scratch);
            assert_eq!(scratch.table.bound_ms, Some(t), "{context}: {t}");
            let tabled = evaluator.tabled_within(configuration, &mut scratch);
            assert_eq!(tabled, brute(t).weight, "{context}: table at {t}");
            for &(rank, percentile) in asked() {
                let context = format!("{context}, rank {rank}: D̃ = {percentile}, table at {t}");
                let tabled = evaluator.delivers_within(configuration, t, rank, &mut scratch);
                assert_eq!(tabled, percentile <= t, "{context}");
            }
            seen.tabled += 1;
        }
    }

    /// Ranks worth asking about among `total` deliveries: the ends, both
    /// sides of each quartile boundary, and `n^T` for the usual ratios.
    fn telling_ranks(total: u64) -> Vec<u64> {
        let quartiles = (1..=3).flat_map(|q| [q * total / 4, q * total / 4 + 1]);
        let ratios = [50.0, 75.0, 95.0, 100.0]
            .map(|ratio| DeliveryConstraint::new(ratio, 1.0).unwrap().rank(total));
        let mut ranks: Vec<u64> = [1, total].into_iter().chain(quartiles).chain(ratios).collect();
        ranks.retain(|&rank| (1..=total).contains(&rank));
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Stage 2 is one answer from two kernels — on seeded instances of up to
    /// 40 × 40 clients, whole-millisecond and fractional latencies, weights
    /// 1–3, now and then a publisher that sent nothing.
    #[test]
    fn count_test_agrees_with_the_percentile_at_every_threshold() {
        let mut rng = SplitMix64(0xC0_0471_7E57);
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let (instances, clients) = if cfg!(miri) { (3, 7) } else { (48, 40) };
        let mut seen = Seen::default();
        for instance in 0..instances {
            let shape = Shape {
                regions: (2, 8),
                publishers: (1, clients),
                subscribers: (1, clients),
                fractional: instance % 2 == 1,
            };
            let (regions, inter, workload) = random_instance(&mut rng, &shape);
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let ratio = [50.0, 75.0, 95.0, 100.0][instance % 4];
            let constraint = DeliveryConstraint::new(ratio, 1.0).unwrap();
            // One instance in four is asked at every telling rank, the others
            // at their `n^T` alone.
            let ranks = match instance % 4 {
                0 => telling_ranks(evaluator.total_deliveries()),
                _ => vec![constraint.rank(evaluator.total_deliveries())],
            };
            for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                let mask = rng.range(1, (1 << regions.len()) - 1) as u32;
                let assignment = AssignmentVector::from_mask(mask, regions.len()).unwrap();
                let config = Configuration::new(assignment, mode);
                let context = format!("instance {instance}, {config}");
                both_kernels_agree(&evaluator, config, &ranks, &mut seen, &context);
                // And the public entry point, whichever kernel the rule picked.
                let percentile = evaluator.evaluate(config, &constraint).percentile_ms();
                let streamed = evaluator.evaluate_streamed(config, &constraint).percentile_ms();
                assert_eq!(percentile.to_bits(), streamed.to_bits(), "{context}");
            }
        }
        assert!(seen.staircases > instances && seen.home_serves > 0 && seen.bisected > 0);
        assert!(seen.tabled > instances);
    }

    /// A topic on `n` equally priced regions `gap` ms apart, from
    /// `(latency row, messages)` publishers and `(latency row, weight)`
    /// subscribers.
    fn topic(
        n: usize,
        gap: f64,
        publishers: impl IntoIterator<Item = (Vec<f64>, u64)>,
        subscribers: impl IntoIterator<Item = (Vec<f64>, u64)>,
    ) -> (RegionSet, InterRegionMatrix, TopicWorkload) {
        let regions =
            RegionSet::new((0..n).map(|i| Region::new(format!("r{i}"), "X", 0.02, 0.09)).collect())
                .unwrap();
        let rows = (0..n).map(|i| (0..n).map(|j| if i == j { 0.0 } else { gap }).collect());
        let inter = InterRegionMatrix::from_rows(rows.collect()).unwrap();
        let mut ids = (0..).map(ClientId);
        let publishers: Vec<Publisher> = publishers
            .into_iter()
            .zip(&mut ids)
            .map(|((row, messages), id)| {
                Publisher::new(id, row, MessageBatch::uniform(messages, 100))
            })
            .collect();
        let subscribers = subscribers
            .into_iter()
            .zip(&mut ids)
            .map(|((row, weight), id)| Subscriber::with_weight(id, row, weight))
            .collect();
        (regions, inter, TopicWorkload::new(n, publishers, subscribers).unwrap())
    }

    /// Multisets chosen against the bisection: nothing to bisect, nothing but
    /// ties, a range nine decades wide, a crowd a few ulps apart, degenerate
    /// blocks, zeros of both signs.
    #[test]
    fn swept_percentile_is_the_selected_one_on_adversarial_multisets() {
        let n = if cfg!(miri) { 5 } else { 24 };
        let flat = |latency: f64| move |_: u64| (vec![latency, latency], 2);
        let spread = |step: f64| move |i: u64| (vec![3.0 + step * i as f64, 90.0 - i as f64], 1);
        let ulps = |i: u64| 50.0 + i as f64 * f64::EPSILON * 64.0;
        type Clients = Vec<(Vec<f64>, u64)>;
        let cases: Vec<(&str, f64, Clients, Clients)> = vec![
            (
                "all pairs equal",
                0.0,
                (0..n).map(flat(50.0)).collect(),
                (0..n).map(flat(50.0)).collect(),
            ),
            (
                "two values only",
                0.0,
                (0..n).map(|i| (vec![10.0 + 10.0 * (i % 2) as f64; 2], 1 + i % 3)).collect(),
                (0..n).map(flat(5.0)).collect(),
            ),
            (
                "one outlier 1e9 times the rest",
                30.0,
                (0..n).map(spread(1.0)).collect(),
                (0..n)
                    .map(|i| if i == 0 { (vec![1e11, 2e11], 1) } else { spread(0.5)(i) })
                    .collect(),
            ),
            (
                // Half the pairs a few ulps apart near 100 ms, the other half
                // far away: the bisection runs out of budget inside the crowd.
                "a crowd within ulps, and a far cluster",
                0.0,
                (0..n).map(|i| (vec![ulps(i), ulps(2 * i)], 1)).collect(),
                (0..n).map(|i| (vec![if i % 2 == 0 { ulps(64 * i) } else { 1e6 }; 2], 1)).collect(),
            ),
            (
                "a single sender",
                20.0,
                vec![(vec![7.5, 31.0], 3)],
                (0..n).map(spread(0.25)).collect(),
            ),
            (
                "a single subscriber",
                20.0,
                (0..n).map(spread(0.25)).collect(),
                vec![(vec![7.5, 31.0], 2)],
            ),
            (
                "a serving region with no subscribers",
                20.0,
                (0..n).map(spread(1.0)).collect(),
                (0..n).map(|i| (vec![1.0 + i as f64, 200.0], 1)).collect(),
            ),
            (
                "zeros of both signs",
                0.0,
                (0..n).map(|i| (vec![if i % 2 == 0 { -0.0 } else { 0.0 }; 2], 1)).collect(),
                (0..n).map(|i| (vec![if i % 3 == 0 { -0.0 } else { 0.0 }; 2], 1)).collect(),
            ),
        ];
        let mut seen = Seen::default();
        for (name, gap, publishers, subscribers) in cases {
            let (regions, inter, workload) = topic(2, gap, publishers, subscribers);
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let ranks = telling_ranks(evaluator.total_deliveries());
            for (mask, mode) in [
                (0b01, DeliveryMode::Direct),
                (0b10, DeliveryMode::Direct),
                (0b11, DeliveryMode::Direct),
                (0b11, DeliveryMode::Routed),
            ] {
                let config =
                    Configuration::new(AssignmentVector::from_mask(mask, 2).unwrap(), mode);
                both_kernels_agree(
                    &evaluator,
                    config,
                    &ranks,
                    &mut seen,
                    &format!("{name}, {config}"),
                );
            }
        }
    }

    /// `Optimizer::solve` against the pick made from streamed evaluations, at
    /// a bound nothing meets, at the fastest percentile, just below and at
    /// the median one, and at one everything meets: each solve's count tests
    /// read a table built at its bound wherever the topic sweeps.
    fn solves_as_if_streaming(optimizer: &Optimizer<'_>, ratio: f64, context: &str) {
        let evaluator = optimizer.evaluator();
        let probe = DeliveryConstraint::new(ratio, 1.0).unwrap();
        let all = AssignmentVector::all(evaluator.regions().len()).unwrap();
        let evaluations: Vec<ConfigEvaluation> = enumerate_configurations(all, ModePolicy::Any)
            .map(|config| evaluator.evaluate_streamed(config, &probe))
            .collect();
        let mut percentiles: Vec<f64> = evaluations.iter().map(|e| e.percentile_ms()).collect();
        percentiles.sort_unstable_by(f64::total_cmp);
        let (fastest, median) = (percentiles[0], percentiles[percentiles.len() / 2]);
        let slowest = percentiles[percentiles.len() - 1];
        for max_t in [fastest / 2.0, fastest, below(median), median, slowest + 1.0] {
            let constraint = DeliveryConstraint::new(ratio, max_t).unwrap();
            let keep = |best, next| if preferred(&next, &best, max_t) { next } else { best };
            let expected = evaluations.iter().copied().reduce(keep).unwrap();
            assert_eq!(
                optimizer.solve(&constraint),
                Solution::new(expected, &constraint, evaluations.len() as u64),
                "{context}, {constraint}"
            );
        }
    }

    /// The size rule's boundary, from both sides: on two regions a
    /// single-region candidate of `n × n` clients sweeps from `n = 16`
    /// (`16² = 8 × 1 × 32`), a two-region one from `n = 32`.
    #[test]
    fn solutions_do_not_depend_on_the_kernel_the_size_rule_picks() {
        let mut rng = SplitMix64(0x51_2E_0B_0D);
        let sizes: &[u64] = if cfg!(miri) { &[15, 16] } else { &[15, 16, 31, 32] };
        for &n in sizes {
            for fractional in [false, true] {
                let shape =
                    Shape { regions: (2, 2), publishers: (n, n), subscribers: (n, n), fractional };
                let (regions, inter, workload) = random_instance(&mut rng, &shape);
                let optimizer = Optimizer::new(&regions, &inter, &workload).unwrap();
                let evaluator = optimizer.evaluator();
                let config = |mask| {
                    let assignment = AssignmentVector::from_mask(mask, 2).unwrap();
                    Configuration::new(assignment, DeliveryMode::Direct)
                };
                assert_eq!(evaluator.sweeps(config(0b10)), n >= 16);
                assert_eq!(evaluator.sweeps(config(0b11)), n >= 32);
                assert_eq!(evaluator.sweeps_any(), n >= 16);
                solves_as_if_streaming(&optimizer, 75.0, &format!("{n} × {n}"));
                // The impossible bound had every candidate examined.
                assert_eq!(evaluator.has_columns(), n >= 16);
            }
        }
    }

    /// Topics of the size the many-topic workloads are made of (up to 6 × 32
    /// clients on 6 regions) stream every candidate: no columns, ever, and so
    /// no count table either, which the size rule does not ask for and which
    /// could not be built without them.
    #[test]
    fn small_topics_never_build_columns() {
        let mut rng = SplitMix64(0x001A_DDE2);
        let shape =
            Shape { regions: (6, 6), publishers: (1, 6), subscribers: (1, 32), fractional: true };
        for topic in 0..if cfg!(miri) { 2 } else { 20 } {
            let (regions, inter, workload) = random_instance(&mut rng, &shape);
            let optimizer = Optimizer::new(&regions, &inter, &workload).unwrap();
            solves_as_if_streaming(&optimizer, 95.0, &format!("topic {topic}"));
            let constraint = DeliveryConstraint::new(95.0, 100.0).unwrap();
            optimizer.solve_one_region(&constraint);
            optimizer.solve_all_regions(DeliveryMode::Routed, &constraint);
            assert!(!optimizer.evaluator().sweeps_any(), "topic {topic}");
            assert!(!optimizer.evaluator().has_columns(), "topic {topic}");
        }
    }

    /// After its count table and its first routed candidate (the first to
    /// walk the publishers) a solve allocates nothing: every buffer was sized
    /// for the topic, not for the candidate — and none for `P × S` entries.
    #[test]
    fn a_swept_solve_sizes_its_buffers_once() {
        let mut rng = SplitMix64(0xA110_CA7E);
        // 16 clients a side per region: every candidate sweeps, the
        // all-regions ones exactly at the rule's threshold.
        let n_regions = if cfg!(miri) { 2 } else { 5 };
        let n = 16 * n_regions;
        let shape = Shape {
            regions: (n_regions, n_regions),
            publishers: (n, n),
            subscribers: (n, n),
            fractional: true,
        };
        let (regions, inter, workload) = random_instance(&mut rng, &shape);
        let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 150.0).unwrap();
        let rank = constraint.rank(evaluator.total_deliveries());
        let capacities = |scratch: &EvalScratch| {
            [
                scratch.subscribers.rows.capacity(),
                scratch.subscribers.sets.capacity(),
                scratch.sub_counts.capacity(),
                scratch.publishers.rows.capacity(),
                scratch.publishers.sets.capacity(),
                scratch.grouping.order.capacity(),
                scratch.grouping.groups.capacity(),
                scratch.table.counts.capacity(),
                scratch.table.sent.capacity(),
                scratch.table.homed.capacity(),
                scratch.samples.capacity(),
            ]
        };
        let mut scratch = EvalScratch::default();
        evaluator.tabulate(constraint.max_ms(), &mut scratch);
        let all = AssignmentVector::all(regions.len()).unwrap();
        let mut sized = None;
        for config in enumerate_configurations(all, ModePolicy::Any) {
            assert!(evaluator.sweeps(config), "{config}");
            evaluator.attribute(config, &mut scratch, true);
            // By table at `max_T`, swept at any other bound.
            for bound_ms in [constraint.max_ms(), constraint.max_ms() / 2.0] {
                evaluator.delivers_within(config, bound_ms, rank, &mut scratch);
            }
            evaluator.percentile_ms(config, rank, &mut scratch);
            if config.mode() == DeliveryMode::Routed || sized.is_some() {
                let now = capacities(&scratch);
                assert_eq!(*sized.get_or_insert(now), now, "{config}");
            }
        }
        let largest = capacities(&scratch).into_iter().max().unwrap();
        assert!(largest < (n * n) as usize, "{largest} entries");
        if !cfg!(miri) {
            assert_eq!(enumerate_configurations(all, ModePolicy::Any).count(), 57);
        }
    }

    #[test]
    fn staged_candidate_answers_like_the_full_evaluation() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        let rank = constraint.rank(eval.total_deliveries());
        let scratch = RefCell::new(EvalScratch::default());
        let config =
            |mask, mode| Configuration::new(AssignmentVector::from_mask(mask, 3).unwrap(), mode);
        let first = eval.stage(config(0b011, DeliveryMode::Routed), rank, &scratch);
        let second = eval.stage(config(0b100, DeliveryMode::Direct), rank, &scratch);
        // Cost and region count come with stage 1; no delivery time yet.
        for staged in [&first, &second] {
            let full = eval.evaluate(staged.configuration(), &constraint);
            assert_eq!(staged.cost_dollars().to_bits(), full.cost_dollars().to_bits());
            assert_eq!(Candidate::region_count(staged), full.region_count());
            assert!(!staged.examined());
        }
        // `first` is asked after `second` took over the scratch: it finds its
        // own attribution again, and remembers its percentile once computed.
        let full = eval.evaluate(first.configuration(), &constraint);
        assert!(first.delivers_within(full.percentile_ms()));
        assert!(first.examined() && !second.examined());
        assert_eq!(second.evaluation(), eval.evaluate(second.configuration(), &constraint));
        assert_eq!(first.evaluation(), full);
        assert!(!first.delivers_within(full.percentile_ms() - 1.0));
    }
}
