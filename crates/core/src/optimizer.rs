//! The MultiPub configuration optimizer (paper §IV).
//!
//! For each topic, the controller enumerates every configuration — each
//! non-empty subset of the allowed regions, with direct and (for
//! multi-region subsets) routed delivery — and picks (paper §IV.B):
//!
//! 1. among all configurations meeting the delivery constraint, the one
//!    with the **lowest cost**;
//! 2. ties broken per [`TieBreaking`] (by default **fewest regions**, then
//!    lowest percentile — see the [`TieBreaking`] docs for why this
//!    deviates from the paper's §IV.B wording);
//! 3. if *no* configuration is feasible, the one with the lowest
//!    delivery-time percentile irrespective of cost.
//!
//! That rule is written once, as the private `select` scan and the pairwise
//! `preferred` it applies, over *candidates* that know their cost and region
//! count and look at delivery times only when asked
//! (`crate::evaluate::Candidate`). The rule asks in order of what an answer
//! costs: a challenger the incumbent already beats on cost (or, cost-tied,
//! on region count) is dropped after its attribution; otherwise feasibility
//! is a count of deliveries within `max_T`, not a percentile; the exact
//! percentile is computed only for a challenger that ties on every key ahead
//! of it, and for each new incumbent. (How a count and a percentile are
//! taken — streamed over all pairs, or swept over sorted columns on a large
//! topic — is [`crate::evaluate`]'s business; the answers are the same bits.) [`Optimizer::solve`] feeds the scan
//! candidates staged on one scratch buffer, [`SweepSolver`] its cached
//! evaluations, and [`crate::heuristic`] ranks its beam by the same pairwise
//! preference. The pick is the one evaluating everything in full would make,
//! bit for bit.
//!
//! Topics are independent (§IV.C), so [`solve_topics`] solves many topics
//! in parallel with scoped threads.

use crate::assignment::{
    enumerate_configurations, AssignmentVector, Configuration, DeliveryMode, ModePolicy,
};
use crate::constraint::DeliveryConstraint;
use crate::error::Error;
use crate::evaluate::{Candidate, ConfigEvaluation, EvalScratch, TopicEvaluator};
use crate::latency::InterRegionMatrix;
use crate::region::RegionSet;
use crate::workload::TopicWorkload;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Ordering;

/// The optimizer's answer for one topic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    evaluation: ConfigEvaluation,
    feasible: bool,
    configurations_considered: u64,
}

impl Solution {
    /// The solution that picks `evaluation` under `constraint` — shared
    /// with [`crate::heuristic`] so every solver returns the same shape.
    pub(crate) fn new(
        evaluation: ConfigEvaluation,
        constraint: &DeliveryConstraint,
        configurations_considered: u64,
    ) -> Self {
        Solution {
            feasible: evaluation.is_feasible(constraint),
            evaluation,
            configurations_considered,
        }
    }

    /// The selected configuration.
    pub fn configuration(&self) -> Configuration {
        self.evaluation.configuration()
    }

    /// Percentile and cost of the selected configuration.
    pub fn evaluation(&self) -> &ConfigEvaluation {
        &self.evaluation
    }

    /// Whether the selected configuration meets the delivery constraint.
    /// When `false`, the solution is the most latency-minimizing
    /// configuration instead (§IV.B).
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// How many configurations the solver enumerated.
    pub fn configurations_considered(&self) -> u64 {
        self.configurations_considered
    }
}

/// How ties between equal-cost feasible configurations are broken.
///
/// The paper's §IV.B text orders ties by *lowest percentile, then fewest
/// regions*; its Figure 3c, however, shows MultiPub converging to a
/// **single** region for loose bounds even though several equal-cost
/// multi-region configurations have strictly lower percentiles (all US/EU
/// regions share the same $0.09/GB rate, so their direct-delivery
/// configurations tie exactly). [`TieBreaking::FewestRegions`] reproduces
/// the figures and avoids paying for idle servers; `LowestPercentile`
/// follows the text verbatim. See DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TieBreaking {
    /// Equal cost → fewest regions, then lowest percentile (default;
    /// matches the paper's observed behaviour in Fig. 3c).
    #[default]
    FewestRegions,
    /// Equal cost → lowest percentile, then fewest regions (the paper's
    /// §IV.B wording).
    LowestPercentile,
}

/// Relative tolerance when comparing two costs or percentiles.
///
/// Equal-cost configurations (e.g. any subset of the $0.09/GB US/EU
/// regions under direct delivery) compute the *same* total through
/// different float summation orders, which differ by a few ulps. Without a
/// tolerance those phantom differences would defeat the tie-breaking
/// rules; a 1e-9 relative band treats them as the ties they really are
/// while never confusing genuinely different prices.
const TIE_EPSILON: f64 = 1e-9;

/// Three-way comparison with a relative tolerance band.
fn approx_cmp(a: f64, b: f64) -> Ordering {
    let scale = a.abs().max(b.abs());
    if (a - b).abs() <= scale * TIE_EPSILON {
        Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

/// A bound past the far edge of `value`'s tolerance band: whatever exceeds it
/// is [`approx_cmp`]-greater than `value`. Twice the band wide, so that no
/// rounding of the product can pull it inside.
fn beyond_tie_band(value: f64) -> f64 {
    value + value.abs() * (2.0 * TIE_EPSILON)
}

/// Whether `a` beats the *feasible* `b`: it must be feasible as well and come
/// first by lowest cost, ties broken per [`TieBreaking`].
///
/// The keys are asked in order of what they cost to know. Cost and region
/// count need no delivery time; when they already rank `a` behind, nothing
/// else is looked at. Otherwise `a` has to deliver within `max_ms` (a count),
/// and only an `a` tied on every key ahead of the percentile has its
/// percentile computed.
fn better_feasible(a: &impl Candidate, b: &impl Candidate, max_ms: f64, tie: TieBreaking) -> bool {
    let by_cost = approx_cmp(a.cost_dollars(), b.cost_dollars());
    let by_regions = a.region_count().cmp(&b.region_count());
    // The lexicographic order is `ahead`, then percentile, then `behind`.
    let (ahead, behind) = match tie {
        TieBreaking::FewestRegions => (by_cost.then(by_regions), Ordering::Equal),
        TieBreaking::LowestPercentile => (by_cost, by_regions),
    };
    match ahead {
        Ordering::Greater => false,
        Ordering::Less => a.delivers_within(max_ms),
        Ordering::Equal => {
            a.delivers_within(max_ms)
                && approx_cmp(a.percentile_ms(), b.percentile_ms()).then(behind) == Ordering::Less
        }
    }
}

/// Whether `a` beats the *infeasible* `b`: by being feasible, else by
/// (percentile, cost, region count).
///
/// One count decides most challengers: `b` is infeasible, so a bound past its
/// tie band lies above `max_ms` too, and an `a` that does not deliver within
/// it is neither feasible nor as fast as `b`. (A percentile merely tied with
/// `b`'s can still win on cost or region count, hence the whole band.)
fn better_infeasible(a: &impl Candidate, b: &impl Candidate, max_ms: f64) -> bool {
    a.delivers_within(beyond_tie_band(b.percentile_ms()))
        && (a.percentile_ms() <= max_ms
            || approx_cmp(a.percentile_ms(), b.percentile_ms())
                .then(approx_cmp(a.cost_dollars(), b.cost_dollars()))
                .then(a.region_count().cmp(&b.region_count()))
                == Ordering::Less)
}

/// The §IV.B rule as a pairwise preference: a feasible configuration beats
/// an infeasible one, two feasible ones compare by [`better_feasible`], two
/// infeasible ones by [`better_infeasible`].
///
/// The tolerance band makes this **not** a total order (`a ≈ b ≈ c` does not
/// imply `a ≈ c`), so it must never be handed to a sort: rank by scanning
/// for the minimum, as [`select`] does. `b`'s percentile is read freely —
/// pass the incumbent, which knows it, as `b`.
pub(crate) fn preferred(
    a: &impl Candidate,
    b: &impl Candidate,
    max_ms: f64,
    tie: TieBreaking,
) -> bool {
    if b.delivers_within(max_ms) {
        better_feasible(a, b, max_ms, tie)
    } else {
        better_infeasible(a, b, max_ms)
    }
}

/// What a scan went through to find its pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Effort {
    /// Candidates in the stream.
    considered: u64,
    /// Those whose delivery times were looked at; cost and region count
    /// alone decided the rest.
    examined: u64,
}

/// The first candidate of the stream that `admits` lets in and no later one
/// is [`preferred`] to.
fn scan<C: Candidate>(
    candidates: impl Iterator<Item = C>,
    admits: impl Fn(&C) -> bool,
    max_ms: f64,
    tie: TieBreaking,
) -> (Option<ConfigEvaluation>, Effort) {
    let mut best = None;
    let mut effort = Effort { considered: 0, examined: 0 };
    for candidate in candidates {
        let wins = match &best {
            None => admits(&candidate),
            Some(incumbent) => preferred(&candidate, incumbent, max_ms, tie),
        };
        if wins {
            best = Some(candidate.evaluation());
        }
        effort.considered += 1;
        effort.examined += u64::from(candidate.examined());
    }
    (best, effort)
}

/// The §IV.B pick, written once: the first candidate of the stream that no
/// later one is [`preferred`] to — the cheapest configuration delivering
/// within `max_ms` (ties per `tie`), or the fastest one when none does.
///
/// Until a feasible candidate turns up there is nothing worth remembering:
/// the first feasible one displaces whichever infeasible one would have been
/// the incumbent. So the scan starts at the first feasible candidate, and
/// only a stream without any is scanned again for its fastest (by then every
/// candidate has been examined once, which is the effort reported).
///
/// Every exact solver is this scan over a different stream:
/// [`Optimizer::solve`] stages its candidates, [`SweepSolver::solve_at`]
/// replays its cache.
fn select<C: Candidate>(
    candidates: impl Iterator<Item = C> + Clone,
    max_ms: f64,
    tie: TieBreaking,
) -> (ConfigEvaluation, Effort) {
    let within_bound = |candidate: &C| candidate.delivers_within(max_ms);
    let (cheapest_feasible, effort) = scan(candidates.clone(), within_bound, max_ms, tie);
    let best = cheapest_feasible
        .or_else(|| scan(candidates, |_| true, max_ms, tie).0)
        // lint:allow(panic) AssignmentVector is non-empty by construction, so every enumeration yields at least one configuration
        .expect("at least one configuration exists");
    (best, effort)
}

/// Brute-force optimal configuration search for a single topic.
///
/// See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct Optimizer<'a> {
    evaluator: TopicEvaluator<'a>,
    allowed: AssignmentVector,
    policy: ModePolicy,
    tie_breaking: TieBreaking,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer considering **all** regions under
    /// [`ModePolicy::Any`].
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyWorkload`] when the workload has no publishers or no
    ///   subscribers.
    /// * [`Error::LatencyDimension`] when region set, inter-region matrix
    ///   and workload disagree on the region count.
    pub fn new(
        regions: &'a RegionSet,
        inter: &'a InterRegionMatrix,
        workload: &'a TopicWorkload,
    ) -> Result<Self, Error> {
        workload.ensure_non_empty()?;
        let evaluator = TopicEvaluator::new(regions, inter, workload)?;
        let allowed = AssignmentVector::all(regions.len())?;
        Ok(Optimizer {
            evaluator,
            allowed,
            policy: ModePolicy::Any,
            tie_breaking: TieBreaking::default(),
        })
    }

    /// Selects how equal-cost ties are broken (see [`TieBreaking`]).
    pub fn with_tie_breaking(mut self, tie_breaking: TieBreaking) -> Self {
        self.tie_breaking = tie_breaking;
        self
    }

    /// Restricts the delivery modes the solver may use (MultiPub-D /
    /// MultiPub-R of experiment 2).
    pub fn with_policy(mut self, policy: ModePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Restricts the search to a subset of regions — the hook used by the
    /// pruning heuristics of [`crate::scaling`] (§V.F).
    pub fn with_allowed_regions(mut self, allowed: AssignmentVector) -> Self {
        self.allowed = allowed;
        self
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &TopicEvaluator<'a> {
        &self.evaluator
    }

    /// The regions the solver may assign.
    pub fn allowed_regions(&self) -> AssignmentVector {
        self.allowed
    }

    /// The mode policy in force.
    pub fn policy(&self) -> ModePolicy {
        self.policy
    }

    /// [`select`] over `configurations`, each staged on one shared scratch
    /// buffer: attributed and costed up front, its delivery times looked at
    /// only if the rule asks. `max_ms` is the bound to select under.
    fn select_among(
        &self,
        configurations: impl Iterator<Item = Configuration> + Clone,
        constraint: &DeliveryConstraint,
        max_ms: f64,
    ) -> (ConfigEvaluation, Effort) {
        let scratch = RefCell::new(EvalScratch::default());
        let rank = constraint.rank(self.evaluator.total_deliveries());
        let staged = configurations.map(|config| self.evaluator.stage(config, rank, &scratch));
        select(staged, max_ms, self.tie_breaking)
    }

    /// Runs the exhaustive search and returns the optimal solution under
    /// the paper's selection rules.
    pub fn solve(&self, constraint: &DeliveryConstraint) -> Solution {
        let _solve_timer = multipub_obs::timer!(multipub_obs::metrics::CORE_SOLVE_MS);
        multipub_obs::counter!(multipub_obs::metrics::CORE_SOLVES_TOTAL).inc();
        let configurations = enumerate_configurations(self.allowed, self.policy);
        let (best, effort) = self.select_among(configurations, constraint, constraint.max_ms());
        multipub_obs::counter!(multipub_obs::metrics::CORE_CONFIGS_EVALUATED_TOTAL)
            .add(effort.examined);
        Solution::new(best, constraint, effort.considered)
    }

    /// The *One Region* baseline (paper §II-B1): the cheapest single region
    /// (ties broken per [`TieBreaking`]), **ignoring** the constraint when
    /// picking — the same selection with no bound. The returned feasibility
    /// still records whether the pick happens to meet the constraint.
    pub fn solve_one_region(&self, constraint: &DeliveryConstraint) -> Solution {
        let n_regions = self.evaluator.regions().len();
        let singles = self.allowed.iter().map(move |region| {
            let assignment = AssignmentVector::single(region, n_regions)
                // lint:allow(panic) every region iterated out of `allowed` was bounds-checked against the same region count when `allowed` was built
                .expect("allowed regions are in bounds");
            Configuration::new(assignment, DeliveryMode::Direct)
        });
        let (cheapest, effort) = self.select_among(singles, constraint, f64::INFINITY);
        Solution::new(cheapest, constraint, effort.considered)
    }

    /// The *All Regions* baseline (paper §II-B2): every allowed region
    /// serves the topic, with the given delivery mode.
    pub fn solve_all_regions(
        &self,
        mode: DeliveryMode,
        constraint: &DeliveryConstraint,
    ) -> Solution {
        let config = Configuration::new(self.allowed, mode);
        Solution::new(self.evaluator.evaluate(config, constraint), constraint, 1)
    }
}

/// Amortized solving across a `max_T` sweep.
///
/// For a fixed ratio, a configuration's delivery-time percentile `D̃_C`
/// does **not** depend on the bound `max_T` — only the feasibility test
/// `D̃_C ≤ max_T` does (Eq. 6). A sweep over bounds (the x-axis of the
/// paper's Figures 3–5) therefore needs each configuration evaluated only
/// once; every sweep point is then the same selection scan as
/// [`Optimizer::solve`]'s over the cached evaluations, for which the count
/// test is a comparison and the percentile a field. This turns an
/// `O(points × 2^N × pairs)` sweep into `O(2^N × pairs + points × 2^N)`.
///
/// ```
/// use multipub_core::prelude::*;
/// use multipub_core::optimizer::SweepSolver;
/// # fn main() -> Result<(), multipub_core::Error> {
/// # let regions = RegionSet::new(vec![
/// #     Region::new("a", "A", 0.02, 0.09),
/// #     Region::new("b", "B", 0.09, 0.14),
/// # ])?;
/// # let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]])?;
/// # let mut workload = TopicWorkload::new(2);
/// # workload.add_publisher(Publisher::new(
/// #     ClientId(0), vec![5.0, 60.0], MessageBatch::uniform(10, 1024))?)?;
/// # workload.add_subscriber(Subscriber::new(ClientId(1), vec![60.0, 5.0])?)?;
/// let sweep = SweepSolver::new(&regions, &inter, &workload, 75.0)?;
/// for max_t in [100.0, 150.0, 200.0] {
///     let solution = sweep.solve_at(max_t)?;
///     println!("{max_t} ms -> {}", solution.configuration());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepSolver {
    evaluations: Vec<ConfigEvaluation>,
    ratio_percent: f64,
    tie_breaking: TieBreaking,
}

impl SweepSolver {
    /// Evaluates every configuration once at the given delivery ratio.
    ///
    /// # Errors
    ///
    /// Same construction errors as [`Optimizer::new`], plus
    /// [`Error::InvalidRatio`] for a ratio outside `(0, 100]`.
    pub fn new(
        regions: &RegionSet,
        inter: &InterRegionMatrix,
        workload: &TopicWorkload,
        ratio_percent: f64,
    ) -> Result<Self, Error> {
        Self::with_options(regions, inter, workload, ratio_percent, ModePolicy::Any, None)
    }

    /// Like [`SweepSolver::new`] with a mode policy and region restriction.
    ///
    /// # Errors
    ///
    /// Same as [`SweepSolver::new`].
    pub fn with_options(
        regions: &RegionSet,
        inter: &InterRegionMatrix,
        workload: &TopicWorkload,
        ratio_percent: f64,
        policy: ModePolicy,
        allowed: Option<AssignmentVector>,
    ) -> Result<Self, Error> {
        let mut optimizer = Optimizer::new(regions, inter, workload)?.with_policy(policy);
        if let Some(mask) = allowed {
            optimizer = optimizer.with_allowed_regions(mask);
        }
        // The percentile depends on the ratio only; any finite bound works.
        let probe = DeliveryConstraint::new(ratio_percent, 1.0)?;
        // The cache needs every percentile, so this is the one place the
        // enumeration is evaluated in full.
        let mut scratch = EvalScratch::default();
        let evaluations = enumerate_configurations(optimizer.allowed, optimizer.policy)
            .map(|config| optimizer.evaluator.evaluate_into(config, &probe, &mut scratch))
            .collect();
        Ok(SweepSolver { evaluations, ratio_percent, tie_breaking: TieBreaking::default() })
    }

    /// Selects how equal-cost ties are broken (see [`TieBreaking`]).
    pub fn with_tie_breaking(mut self, tie_breaking: TieBreaking) -> Self {
        self.tie_breaking = tie_breaking;
        self
    }

    /// Number of cached configuration evaluations.
    pub fn configurations(&self) -> usize {
        self.evaluations.len()
    }

    /// The ratio the percentiles were computed at.
    pub fn ratio_percent(&self) -> f64 {
        self.ratio_percent
    }

    /// Solves for one bound: the same selection scan as
    /// [`Optimizer::solve`] with `<ratio, max_t_ms>`, fed from the cached
    /// evaluations instead of fresh ones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBound`] for a non-positive or non-finite
    /// bound.
    pub fn solve_at(&self, max_t_ms: f64) -> Result<Solution, Error> {
        let constraint = DeliveryConstraint::new(self.ratio_percent, max_t_ms)?;
        let (best, effort) = select(self.evaluations.iter().copied(), max_t_ms, self.tie_breaking);
        Ok(Solution::new(best, &constraint, effort.considered))
    }
}

/// A topic to be solved by [`solve_topics`]: its workload snapshot and its
/// delivery constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicProblem {
    /// The observation-interval snapshot for the topic.
    pub workload: TopicWorkload,
    /// The topic's delivery constraint `<ratio_T, max_T>`.
    pub constraint: DeliveryConstraint,
}

/// Solves many topics in parallel. Topics are independent optimization
/// problems (§IV.C), so this is an embarrassingly parallel fan-out over
/// scoped threads (design decision **D4**).
///
/// Results are returned in input order.
///
/// # Errors
///
/// Returns the first construction error (empty workload, dimension
/// mismatch) encountered; all topics are validated before any is solved.
pub fn solve_topics(
    regions: &RegionSet,
    inter: &InterRegionMatrix,
    topics: &[TopicProblem],
) -> Result<Vec<Solution>, Error> {
    // Build (and thereby validate) every optimizer up front so the
    // parallel phase below cannot fail: `Optimizer::new` performs the
    // empty-workload and dimension checks and surfaces them as typed
    // errors before any thread is spawned.
    let optimizers = topics
        .iter()
        .map(|topic| Optimizer::new(regions, inter, &topic.workload))
        .collect::<Result<Vec<_>, Error>>()?;
    if optimizers.is_empty() {
        return Ok(Vec::new());
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(topics.len());
    let chunk_len = topics.len().div_ceil(threads);
    let mut results = Vec::with_capacity(topics.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = optimizers
            .chunks(chunk_len)
            .zip(topics.chunks(chunk_len))
            .map(|(optimizer_chunk, topic_chunk)| {
                scope.spawn(move || {
                    optimizer_chunk
                        .iter()
                        .zip(topic_chunk)
                        .map(|(optimizer, topic)| optimizer.solve(&topic.constraint))
                        .collect::<Vec<Solution>>()
                })
            })
            .collect();
        for handle in handles {
            // lint:allow(panic) a solver-thread panic is already a bug; re-raising it on the caller beats silently dropping that chunk's solutions
            results.extend(handle.join().expect("solver thread panicked"));
        }
    });
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, RegionId};
    use crate::region::Region;
    use crate::testing::{random_instance, Shape, SplitMix64};
    use crate::workload::{MessageBatch, Publisher, Subscriber};
    use std::cell::Cell;

    /// Two regions: region 0 cheap, region 1 fast-but-expensive for the
    /// subscriber population.
    fn setup() -> (RegionSet, InterRegionMatrix) {
        let regions = RegionSet::new(vec![
            Region::new("cheap", "A", 0.02, 0.09),
            Region::new("pricey", "B", 0.16, 0.25),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 50.0], vec![50.0, 0.0]]).unwrap();
        (regions, inter)
    }

    /// Publisher and subscribers all near the expensive region 1:
    /// serving locally is fast (10 ms) but costly; serving from region 0 is
    /// slow (140 ms) but cheap.
    fn local_expensive_workload() -> TopicWorkload {
        let mut w = TopicWorkload::new(2);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![70.0, 5.0], MessageBatch::uniform(10, 1000)).unwrap(),
        )
        .unwrap();
        for i in 0..4u64 {
            w.add_subscriber(Subscriber::new(ClientId(1 + i), vec![70.0, 5.0]).unwrap()).unwrap();
        }
        w
    }

    #[test]
    fn tight_bound_selects_fast_expensive_region() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 20.0).unwrap();
        let solution = opt.solve(&constraint);
        assert!(solution.is_feasible());
        assert!(solution.configuration().assignment().contains(RegionId(1)));
        assert_eq!(solution.configuration().region_count(), 1);
    }

    #[test]
    fn loose_bound_selects_cheap_remote_region() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 200.0).unwrap();
        let solution = opt.solve(&constraint);
        assert!(solution.is_feasible());
        // Serving everyone from the cheap region: 70+70 = 140 ms ≤ 200.
        assert_eq!(
            solution.configuration().assignment(),
            AssignmentVector::single(RegionId(0), 2).unwrap()
        );
    }

    #[test]
    fn impossible_bound_falls_back_to_latency_minimizer() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 1.0).unwrap();
        let solution = opt.solve(&constraint);
        assert!(!solution.is_feasible());
        // Fastest possible: local region 1 at 10 ms.
        assert_eq!(solution.evaluation().percentile_ms(), 10.0);
    }

    #[test]
    fn considered_count_matches_formula() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 100.0).unwrap();
        let solution = opt.solve(&constraint);
        assert_eq!(solution.configurations_considered(), crate::assignment::configuration_count(2));
    }

    #[test]
    fn optimal_cost_is_minimal_over_feasible_configs() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 150.0).unwrap();
        let solution = opt.solve(&constraint);
        assert!(solution.is_feasible());
        // Exhaustively verify optimality.
        for config in enumerate_configurations(AssignmentVector::all(2).unwrap(), ModePolicy::Any) {
            let eval = opt.evaluator().evaluate(config, &constraint);
            if eval.is_feasible(&constraint) {
                assert!(eval.cost_dollars() >= solution.evaluation().cost_dollars());
            }
        }
    }

    #[test]
    fn one_region_baseline_picks_cheapest() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 20.0).unwrap();
        let baseline = opt.solve_one_region(&constraint);
        // Cheapest single region is region 0 even though it violates 20 ms.
        assert_eq!(
            baseline.configuration().assignment(),
            AssignmentVector::single(RegionId(0), 2).unwrap()
        );
        assert!(!baseline.is_feasible());
    }

    #[test]
    fn all_regions_baseline_uses_every_region() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 20.0).unwrap();
        let baseline = opt.solve_all_regions(DeliveryMode::Routed, &constraint);
        assert_eq!(baseline.configuration().region_count(), 2);
        assert_eq!(baseline.configuration().mode(), DeliveryMode::Routed);
    }

    #[test]
    fn policy_restriction_is_respected() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let constraint = DeliveryConstraint::new(95.0, 100.0).unwrap();
        let direct_only = Optimizer::new(&regions, &inter, &w)
            .unwrap()
            .with_policy(ModePolicy::DirectOnly)
            .solve(&constraint);
        assert_eq!(direct_only.configuration().mode(), DeliveryMode::Direct);
    }

    #[test]
    fn allowed_region_restriction_is_respected() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let constraint = DeliveryConstraint::new(95.0, 10.0).unwrap();
        let only_cheap = AssignmentVector::single(RegionId(0), 2).unwrap();
        let solution = Optimizer::new(&regions, &inter, &w)
            .unwrap()
            .with_allowed_regions(only_cheap)
            .solve(&constraint);
        assert!(solution.configuration().assignment().is_subset_of(only_cheap));
        assert!(!solution.is_feasible());
    }

    /// Two regions with identical prices and a workload where both (and
    /// their union, under direct delivery) cost exactly the same.
    #[test]
    fn tie_breaking_modes_differ_on_equal_cost_configs() {
        let regions = RegionSet::new(vec![
            Region::new("r0", "A", 0.02, 0.09),
            Region::new("r1", "B", 0.02, 0.09),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 50.0], vec![50.0, 0.0]]).unwrap();
        let mut w = TopicWorkload::new(2);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![10.0, 30.0], MessageBatch::uniform(10, 1000)).unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(1), vec![10.0, 60.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(2), vec![60.0, 10.0]).unwrap()).unwrap();
        let constraint = DeliveryConstraint::new(100.0, 1000.0).unwrap();

        // Default: fewest regions wins the cost tie.
        let fewest = Optimizer::new(&regions, &inter, &w).unwrap().solve(&constraint);
        assert_eq!(fewest.configuration().region_count(), 1);

        // Paper-text ordering: the lower-percentile two-region config wins.
        let fastest = Optimizer::new(&regions, &inter, &w)
            .unwrap()
            .with_tie_breaking(TieBreaking::LowestPercentile)
            .solve(&constraint);
        assert_eq!(fastest.configuration().region_count(), 2);
        assert!(fastest.evaluation().percentile_ms() < fewest.evaluation().percentile_ms());
        assert_eq!(fastest.evaluation().cost_dollars(), fewest.evaluation().cost_dollars());
    }

    #[test]
    fn empty_workload_rejected() {
        let (regions, inter) = setup();
        let w = TopicWorkload::new(2);
        assert!(matches!(Optimizer::new(&regions, &inter, &w), Err(Error::EmptyWorkload)));
    }

    #[test]
    fn solve_topics_parallel_matches_sequential() {
        let (regions, inter) = setup();
        let topics: Vec<TopicProblem> = (0..8)
            .map(|i| TopicProblem {
                workload: local_expensive_workload(),
                constraint: DeliveryConstraint::new(95.0, 20.0 + 30.0 * i as f64).unwrap(),
            })
            .collect();
        let parallel = solve_topics(&regions, &inter, &topics).unwrap();
        for (topic, solution) in topics.iter().zip(&parallel) {
            let sequential =
                Optimizer::new(&regions, &inter, &topic.workload).unwrap().solve(&topic.constraint);
            assert_eq!(&sequential, solution);
        }
    }

    fn tied(a: f64, b: f64) -> bool {
        (a - b).abs() <= a.abs().max(b.abs()) * TIE_EPSILON
    }

    /// Keeps the candidates whose `key` ties with the smallest one.
    fn keep_lowest(candidates: &mut Vec<ConfigEvaluation>, key: impl Fn(&ConfigEvaluation) -> f64) {
        let lowest = candidates.iter().map(&key).fold(f64::INFINITY, f64::min);
        candidates.retain(|c| tied(key(c), lowest));
    }

    /// §IV.B by brute force, from the rule text: filter the feasible
    /// configurations, keep the cheapest (within `TIE_EPSILON`), break the
    /// tie per `tie`; with nothing feasible keep the lowest percentile, then
    /// cost, then region count. Returns every configuration left standing,
    /// in enumeration order, and whether they are feasible.
    fn oracle(
        evaluations: &[ConfigEvaluation],
        max_t_ms: f64,
        tie: TieBreaking,
    ) -> (Vec<ConfigEvaluation>, bool) {
        let cost = |c: &ConfigEvaluation| c.cost_dollars();
        let percentile = |c: &ConfigEvaluation| c.percentile_ms();
        let region_count = |c: &ConfigEvaluation| f64::from(c.region_count());
        let mut winners: Vec<ConfigEvaluation> =
            evaluations.iter().copied().filter(|c| c.percentile_ms() <= max_t_ms).collect();
        let feasible = !winners.is_empty();
        if feasible {
            keep_lowest(&mut winners, cost);
            match tie {
                TieBreaking::FewestRegions => {
                    keep_lowest(&mut winners, region_count);
                    keep_lowest(&mut winners, percentile);
                }
                TieBreaking::LowestPercentile => {
                    keep_lowest(&mut winners, percentile);
                    keep_lowest(&mut winners, region_count);
                }
            }
        } else {
            winners = evaluations.to_vec();
            keep_lowest(&mut winners, percentile);
            keep_lowest(&mut winners, cost);
            keep_lowest(&mut winners, region_count);
        }
        (winners, feasible)
    }

    /// The selection scan as it was before candidates could answer lazily:
    /// every configuration evaluated in full, then one pass keeping whichever
    /// of incumbent and challenger is [`preferred`].
    fn eager_select(
        evaluations: impl Iterator<Item = ConfigEvaluation>,
        max_ms: f64,
        tie: TieBreaking,
    ) -> ConfigEvaluation {
        evaluations
            .reduce(|best, eval| if preferred(&eval, &best, max_ms, tie) { eval } else { best })
            .unwrap()
    }

    #[test]
    fn every_solver_returns_the_brute_force_pick() {
        let mut rng = SplitMix64(0x4D75_6C74_6950_7562);
        let mut feasible_points = 0;
        let mut infeasible_points = 0;
        let mut cost_ties = 0;
        let mut large_fallbacks = 0;
        let mut large_ties_across_region_counts = 0;
        let mut crowded_swept = 0;
        let mut crowded_topics_solved = 0;
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let (instances, most_regions) = if cfg!(miri) { (30, 6) } else { (300, 8) };
        let (crowd, crowded_regions) = if cfg!(miri) { ((16, 18), 3) } else { ((24, 40), 5) };
        let crowded_instances = if cfg!(miri) { 2 } else { 24 };
        for instance in 0..instances + crowded_instances {
            // One instance in six is large: up to 8 regions and 12 × 12
            // clients, so the count test's early exits, cost ties across
            // region counts and the fallback see more than a handful of pairs.
            // The last ones are crowded: few regions and enough clients that
            // stage 2 sweeps their narrower candidates, while the oracle below
            // is fed by the streaming kernel alone.
            let crowded = instance >= instances;
            let large = instance % 6 == 5 && !crowded;
            let shape = if crowded {
                Shape {
                    regions: (2, crowded_regions),
                    publishers: crowd,
                    subscribers: crowd,
                    fractional: instance % 2 == 1,
                }
            } else if large {
                Shape {
                    regions: (2, most_regions),
                    publishers: (1, 12),
                    subscribers: (1, 12),
                    fractional: false,
                }
            } else {
                Shape {
                    regions: (2, 5),
                    publishers: (1, 3),
                    subscribers: (1, 6),
                    fractional: false,
                }
            };
            let (regions, inter, workload) = random_instance(&mut rng, &shape);
            let n = regions.len();
            let ratio = [50.0, 75.0, 95.0, 100.0][rng.range(0, 3) as usize];
            let policy = [ModePolicy::Any, ModePolicy::DirectOnly, ModePolicy::RoutedOnly]
                [if crowded { 0 } else { rng.range(0, 2) as usize }];
            // One instance in three searches a random subset of its regions.
            let all = AssignmentVector::all(n).unwrap();
            let allowed = if instance % 3 == 1 {
                AssignmentVector::from_mask(rng.range(1, (1 << n) - 1) as u32, n).unwrap()
            } else {
                all
            };
            let probe = DeliveryConstraint::new(ratio, 1.0).unwrap();
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let evaluations: Vec<ConfigEvaluation> = enumerate_configurations(allowed, policy)
                .map(|config| evaluator.evaluate_streamed(config, &probe))
                .collect();
            let mut percentiles: Vec<f64> =
                evaluations.iter().map(ConfigEvaluation::percentile_ms).collect();
            percentiles.sort_by(f64::total_cmp);
            // Below every percentile, at the fastest, at the median, above all.
            let bounds = [
                percentiles[0] / 2.0,
                percentiles[0],
                percentiles[percentiles.len() / 2],
                percentiles[percentiles.len() - 1] + 1.0,
            ];
            for tie in [TieBreaking::FewestRegions, TieBreaking::LowestPercentile] {
                let optimizer = Optimizer::new(&regions, &inter, &workload)
                    .unwrap()
                    .with_policy(policy)
                    .with_allowed_regions(allowed)
                    .with_tie_breaking(tie);
                let sweep = SweepSolver::with_options(
                    &regions,
                    &inter,
                    &workload,
                    ratio,
                    policy,
                    Some(allowed),
                )
                .unwrap()
                .with_tie_breaking(tie);
                assert_eq!(sweep.configurations(), evaluations.len());
                if policy == ModePolicy::Any {
                    assert_eq!(
                        sweep.configurations() as u64,
                        crate::assignment::configuration_count(allowed.count())
                    );
                }
                for max_t in bounds {
                    let context = format!(
                        "instance {instance}, {allowed}, {policy:?}, {tie:?}, {ratio} % in {max_t} ms"
                    );
                    let constraint = DeliveryConstraint::new(ratio, max_t).unwrap();
                    let (winners, feasible) = oracle(&evaluations, max_t, tie);
                    if feasible {
                        feasible_points += 1;
                        let cheapest = winners[0].cost_dollars();
                        let at_cheapest: Vec<&ConfigEvaluation> = evaluations
                            .iter()
                            .filter(|c| c.percentile_ms() <= max_t)
                            .filter(|c| tied(c.cost_dollars(), cheapest))
                            .collect();
                        cost_ties += usize::from(at_cheapest.len() > 1);
                        let fewest = at_cheapest.iter().map(|c| c.region_count()).min();
                        let most = at_cheapest.iter().map(|c| c.region_count()).max();
                        large_ties_across_region_counts += usize::from(large && fewest != most);
                    } else {
                        infeasible_points += 1;
                    }

                    // The scan keeps the first of equals, so the exact
                    // solvers return the first winner in enumeration order:
                    // same configuration, cost and percentile to the bit,
                    // feasibility and enumeration count.
                    let expected = Solution::new(winners[0], &constraint, evaluations.len() as u64);
                    assert_eq!(expected.is_feasible(), feasible, "{context}");
                    let full = optimizer.solve(&constraint);
                    assert_eq!(full, expected, "{context}");
                    assert_eq!(sweep.solve_at(max_t).unwrap(), expected, "{context}");
                    let eager = eager_select(evaluations.iter().copied(), max_t, tie);
                    assert_eq!(eager, winners[0], "{context}");

                    // Nothing feasible: the first pass count-tested every
                    // configuration before the fallback scan ran.
                    let (_, effort) = optimizer.select_among(
                        enumerate_configurations(allowed, policy),
                        &constraint,
                        max_t,
                    );
                    assert!(effort.examined <= effort.considered, "{context}");
                    if !feasible {
                        assert_eq!(effort.examined, effort.considered, "{context}");
                        large_fallbacks += usize::from(large);
                        // Every candidate was asked: the crowded ones swept.
                        assert_eq!(optimizer.evaluator().has_columns(), crowded, "{context}");
                        crowded_swept += usize::from(crowded);
                    }

                    // One Region: the cheapest single, whatever the bound.
                    let singles = enumerate_configurations(allowed, ModePolicy::DirectOnly)
                        .filter(|config| config.region_count() == 1)
                        .map(|config| evaluator.evaluate_streamed(config, &probe));
                    let cheapest_single = eager_select(singles, f64::INFINITY, tie);
                    assert_eq!(
                        optimizer.solve_one_region(&constraint),
                        Solution::new(cheapest_single, &constraint, u64::from(allowed.count())),
                        "{context}"
                    );

                    // `solve_topics` and the heuristic search every region
                    // under the default rule: comparable only where the
                    // solvers above did too.
                    if policy != ModePolicy::Any || tie != TieBreaking::default() || allowed != all
                    {
                        continue;
                    }
                    let problem = TopicProblem { workload: workload.clone(), constraint };
                    let solved = solve_topics(&regions, &inter, &[problem]).unwrap();
                    assert_eq!(solved, vec![expected], "{context}");
                    crowded_topics_solved += usize::from(crowded);
                    if !large && !crowded {
                        // A beam as wide as the lattice reaches the optimum's rank.
                        let exhaustive =
                            crate::heuristic::HeuristicOptions { beam_width: 64, max_rounds: None };
                        let heuristic = crate::heuristic::solve_heuristic(
                            &regions,
                            &inter,
                            &workload,
                            &constraint,
                            &exhaustive,
                        )
                        .unwrap();
                        assert!(
                            winners.iter().any(|w| w == heuristic.evaluation()),
                            "{context}: heuristic picked {}",
                            heuristic.configuration()
                        );
                    }
                }
            }
        }
        // The generator must actually exercise each branch of the rule.
        assert!(feasible_points > instances && infeasible_points > instances);
        assert!(cost_ties > instances);
        assert!(large_fallbacks > 0 && large_ties_across_region_counts > 0);
        assert!(crowded_swept > 0 && crowded_topics_solved > 0);
    }

    /// A cached evaluation that records what the selection rule asks of it.
    struct Asked<'c> {
        evaluation: ConfigEvaluation,
        count_tests: &'c Cell<u64>,
        percentiles: &'c Cell<u64>,
    }

    impl Candidate for Asked<'_> {
        fn configuration(&self) -> Configuration {
            self.evaluation.configuration()
        }

        fn cost_dollars(&self) -> f64 {
            self.evaluation.cost_dollars()
        }

        fn delivers_within(&self, bound_ms: f64) -> bool {
            self.count_tests.set(self.count_tests.get() + 1);
            self.evaluation.delivers_within(bound_ms)
        }

        fn percentile_ms(&self) -> f64 {
            self.percentiles.set(self.percentiles.get() + 1);
            self.evaluation.percentile_ms()
        }

        fn examined(&self) -> bool {
            true
        }
    }

    /// [`select`] over `evaluations`, and how many count tests and how many
    /// percentiles it asked the challengers for.
    fn select_asking(
        evaluations: &[ConfigEvaluation],
        max_ms: f64,
        tie: TieBreaking,
    ) -> (ConfigEvaluation, u64, u64) {
        let (count_tests, percentiles) = (Cell::new(0), Cell::new(0));
        let asked = evaluations.iter().map(|&evaluation| Asked {
            evaluation,
            count_tests: &count_tests,
            percentiles: &percentiles,
        });
        let (picked, effort) = select(asked, max_ms, tie);
        assert_eq!(effort.considered, evaluations.len() as u64);
        (picked, count_tests.get(), percentiles.get())
    }

    /// Three regions at one price, one publisher a millisecond from each, and
    /// three subscribers placed so that every configuration of the direct-only
    /// enumeration `{0} {1} {0,1} {2} {0,2} {1,2} {0,1,2}` is strictly faster
    /// (at 100 %) than the one before: 101 96 81 71 61 51 41 ms.
    fn ever_faster() -> (RegionSet, InterRegionMatrix, TopicWorkload) {
        let regions =
            RegionSet::new((0..3).map(|i| Region::new(format!("r{i}"), "X", 0.0, 0.09)).collect())
                .unwrap();
        let inter = InterRegionMatrix::zeros(3).unwrap();
        let mut w = TopicWorkload::new(3);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![1.0; 3], MessageBatch::uniform(4, 500)).unwrap(),
        )
        .unwrap();
        for (i, row) in
            [[60.0, 40.0, 70.0], [30.0, 95.0, 50.0], [100.0, 80.0, 35.0]].into_iter().enumerate()
        {
            w.add_subscriber(Subscriber::new(ClientId(1 + i as u64), row.to_vec()).unwrap())
                .unwrap();
        }
        (regions, inter, w)
    }

    /// The order the rule likes least: every configuration ties on cost and
    /// each is faster than all before it, so under `LowestPercentile` every
    /// challenger must be count-tested, have its percentile computed and take
    /// over — and with an impossible bound the fallback does the same again.
    #[test]
    fn ever_improving_percentiles_reach_the_last_stage_every_time() {
        let (regions, inter, workload) = ever_faster();
        let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
        let probe = DeliveryConstraint::new(100.0, 1.0).unwrap();
        let all = AssignmentVector::all(3).unwrap();
        let evaluations: Vec<ConfigEvaluation> =
            enumerate_configurations(all, ModePolicy::DirectOnly)
                .map(|config| evaluator.evaluate(config, &probe))
                .collect();
        let percentiles: Vec<f64> =
            evaluations.iter().map(ConfigEvaluation::percentile_ms).collect();
        assert_eq!(percentiles, [101.0, 96.0, 81.0, 71.0, 61.0, 51.0, 41.0]);
        assert!(evaluations.iter().all(|e| e.cost_dollars() == evaluations[0].cost_dollars()));

        let tie = TieBreaking::LowestPercentile;
        let optimizer = Optimizer::new(&regions, &inter, &workload)
            .unwrap()
            .with_policy(ModePolicy::DirectOnly)
            .with_tie_breaking(tie);
        for (max_t, feasible) in [(500.0, true), (5.0, false)] {
            let constraint = DeliveryConstraint::new(100.0, max_t).unwrap();
            let eager = eager_select(evaluations.iter().copied(), max_t, tie);
            assert_eq!(eager, evaluations[6]);
            assert_eq!(optimizer.solve(&constraint), Solution::new(eager, &constraint, 7));
            assert_eq!(optimizer.solve(&constraint).is_feasible(), feasible);
            let (picked, count_tests, percentiles) = select_asking(&evaluations, max_t, tie);
            assert_eq!(picked, eager);
            // Feasible: each challenger is count-tested, compared by its
            // percentile and read in full as the new incumbent. Infeasible:
            // seven failed count tests first, then the same over again.
            assert_eq!(count_tests, if feasible { 7 } else { 7 + 6 });
            assert!(percentiles >= 7, "every configuration's percentile is needed");
        }
    }

    /// All prices equal: under `LowestPercentile` every configuration ties on
    /// cost with whatever the incumbent is, so every one reaches the
    /// percentile; under `FewestRegions` the region count prunes.
    #[test]
    fn equal_prices_send_every_configuration_to_the_percentile() {
        let mut rng = SplitMix64(0xE9_0A11_7135);
        let shape =
            Shape { regions: (6, 6), publishers: (1, 12), subscribers: (1, 12), fractional: true };
        let (_, inter, workload) = random_instance(&mut rng, &shape);
        let regions =
            RegionSet::new((0..6).map(|i| Region::new(format!("r{i}"), "X", 0.0, 0.09)).collect())
                .unwrap();
        let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
        let probe = DeliveryConstraint::new(95.0, 1.0).unwrap();
        let all = AssignmentVector::all(6).unwrap();
        let evaluations: Vec<ConfigEvaluation> = enumerate_configurations(all, ModePolicy::Any)
            .map(|config| evaluator.evaluate(config, &probe))
            .collect();
        let enumerated = evaluations.len() as u64;
        let slowest = evaluations.iter().map(|e| e.percentile_ms()).fold(0.0, f64::max);
        let constraint = DeliveryConstraint::new(95.0, slowest + 1.0).unwrap();
        let max_t = constraint.max_ms();
        let solver =
            |tie| Optimizer::new(&regions, &inter, &workload).unwrap().with_tie_breaking(tie);

        let tie = TieBreaking::LowestPercentile;
        let eager = eager_select(evaluations.iter().copied(), max_t, tie);
        assert_eq!(solver(tie).solve(&constraint), Solution::new(eager, &constraint, enumerated));
        let (picked, count_tests, percentiles) = select_asking(&evaluations, max_t, tie);
        assert_eq!(picked, eager);
        assert_eq!(count_tests, enumerated);
        assert!(percentiles >= enumerated);
        let configurations = || enumerate_configurations(all, ModePolicy::Any);
        let (_, effort) = solver(tie).select_among(configurations(), &constraint, max_t);
        assert_eq!(effort, Effort { considered: enumerated, examined: enumerated });

        // Same instance, default tie-breaking: after the first single region
        // only the five other singles tie on cost *and* region count.
        let tie = TieBreaking::FewestRegions;
        let eager = eager_select(evaluations.iter().copied(), max_t, tie);
        assert_eq!(solver(tie).solve(&constraint), Solution::new(eager, &constraint, enumerated));
        let (_, effort) = solver(tie).select_among(configurations(), &constraint, max_t);
        assert_eq!(effort, Effort { considered: enumerated, examined: 6 });
    }

    /// What `multipub_core_configs_evaluated_total` adds per solve.
    #[test]
    fn examined_count_is_what_cost_and_region_count_could_not_decide() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let opt = Optimizer::new(&regions, &inter, &w).unwrap();
        let all = || enumerate_configurations(AssignmentVector::all(2).unwrap(), ModePolicy::Any);
        // Loose bound: the cheap region comes first and is feasible; the
        // pricey one, and both together in either mode, cost more.
        let loose = DeliveryConstraint::new(95.0, 200.0).unwrap();
        let (_, effort) = opt.select_among(all(), &loose, loose.max_ms());
        assert_eq!(effort, Effort { considered: 4, examined: 1 });
        // Tight bound: the cheap region fails its count test, the pricey one
        // passes; both together still serve everyone from the pricey one, so
        // they tie on cost with more regions (direct) or cost more (routed).
        let tight = DeliveryConstraint::new(95.0, 20.0).unwrap();
        let (_, effort) = opt.select_among(all(), &tight, tight.max_ms());
        assert_eq!(effort, Effort { considered: 4, examined: 2 });
        // Impossible bound: everything is count-tested, once.
        let impossible = DeliveryConstraint::new(95.0, 1.0).unwrap();
        let (_, effort) = opt.select_among(all(), &impossible, impossible.max_ms());
        assert_eq!(effort, Effort { considered: 4, examined: 4 });
    }

    #[test]
    fn sweep_solver_respects_policy_and_allowed_regions() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        let only_cheap = AssignmentVector::single(RegionId(0), 2).unwrap();
        let sweep = SweepSolver::with_options(
            &regions,
            &inter,
            &w,
            95.0,
            ModePolicy::DirectOnly,
            Some(only_cheap),
        )
        .unwrap();
        assert_eq!(sweep.configurations(), 1);
        let solution = sweep.solve_at(10.0).unwrap();
        assert!(solution.configuration().assignment().is_subset_of(only_cheap));
        assert!(!solution.is_feasible());
    }

    #[test]
    fn sweep_solver_rejects_bad_inputs() {
        let (regions, inter) = setup();
        let w = local_expensive_workload();
        assert!(SweepSolver::new(&regions, &inter, &w, 0.0).is_err());
        let sweep = SweepSolver::new(&regions, &inter, &w, 95.0).unwrap();
        assert!(sweep.solve_at(-1.0).is_err());
        assert!(SweepSolver::new(&regions, &inter, &TopicWorkload::new(2), 95.0).is_err());
    }

    #[test]
    fn solve_topics_on_empty_input_returns_empty() {
        // Regression: the chunked fan-out used to compute a chunk size of
        // zero for an empty topic list and panic inside `chunks(0)`.
        let (regions, inter) = setup();
        assert_eq!(solve_topics(&regions, &inter, &[]).unwrap(), Vec::new());
    }

    #[test]
    fn solve_topics_validates_everything_first() {
        let (regions, inter) = setup();
        let topics = vec![TopicProblem {
            workload: TopicWorkload::new(2),
            constraint: DeliveryConstraint::new(95.0, 100.0).unwrap(),
        }];
        assert!(solve_topics(&regions, &inter, &topics).is_err());
    }
}
