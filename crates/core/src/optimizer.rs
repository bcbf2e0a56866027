//! The MultiPub configuration optimizer (paper §IV).
//!
//! For each topic, the controller enumerates every configuration — each
//! non-empty subset of the allowed regions, with direct and (for
//! multi-region subsets) routed delivery — evaluates its delivery-time
//! percentile and bandwidth cost against the last observation interval, and
//! picks (paper §IV.B):
//!
//! 1. among all configurations meeting the delivery constraint, the one
//!    with the **lowest cost**;
//! 2. ties broken per [`TieBreaking`] (by default **fewest regions**, then
//!    lowest percentile — see the [`TieBreaking`] docs for why this
//!    deviates from the paper's §IV.B wording);
//! 3. if *no* configuration is feasible, the one with the lowest
//!    delivery-time percentile irrespective of cost.
//!
//! That rule is written once, as the private `select` scan over a stream of
//! evaluations: [`Optimizer::solve`] feeds it lazily, [`SweepSolver`] from
//! its cache, and [`crate::heuristic`] ranks its beam by the same pairwise
//! preference.
//!
//! Topics are independent (§IV.C), so [`solve_topics`] solves many topics
//! in parallel with scoped threads.

use crate::assignment::{
    enumerate_configurations, AssignmentVector, Configuration, DeliveryMode, ModePolicy,
};
use crate::constraint::DeliveryConstraint;
use crate::error::Error;
use crate::evaluate::{ConfigEvaluation, EvalScratch, TopicEvaluator};
use crate::latency::InterRegionMatrix;
use crate::region::RegionSet;
use crate::workload::TopicWorkload;
use serde::{Deserialize, Serialize};

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

    /// How many configurations the solver evaluated.
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
fn approx_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    let scale = a.abs().max(b.abs());
    if (a - b).abs() <= scale * TIE_EPSILON {
        std::cmp::Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

/// Lexicographic preference for feasible configurations: lowest cost
/// first, ties broken per [`TieBreaking`].
fn better_feasible(a: &ConfigEvaluation, b: &ConfigEvaluation, tie: TieBreaking) -> bool {
    let by_cost = approx_cmp(a.cost_dollars(), b.cost_dollars());
    let by_percentile = approx_cmp(a.percentile_ms(), b.percentile_ms());
    let by_regions = a.region_count().cmp(&b.region_count());
    let order = match tie {
        TieBreaking::FewestRegions => by_cost.then(by_regions).then(by_percentile),
        TieBreaking::LowestPercentile => by_cost.then(by_percentile).then(by_regions),
    };
    order == std::cmp::Ordering::Less
}

/// Lexicographic preference when nothing is feasible:
/// (percentile, cost, region count).
fn better_infeasible(a: &ConfigEvaluation, b: &ConfigEvaluation) -> bool {
    approx_cmp(a.percentile_ms(), b.percentile_ms())
        .then(approx_cmp(a.cost_dollars(), b.cost_dollars()))
        .then(a.region_count().cmp(&b.region_count()))
        == std::cmp::Ordering::Less
}

/// The §IV.B rule as a pairwise preference: a feasible configuration beats
/// an infeasible one, two feasible ones compare by [`better_feasible`], two
/// infeasible ones by [`better_infeasible`].
///
/// The tolerance band makes this **not** a total order (`a ≈ b ≈ c` does not
/// imply `a ≈ c`), so it must never be handed to a sort: rank by scanning
/// for the minimum, as [`select`] does.
pub(crate) fn preferred(
    a: &ConfigEvaluation,
    b: &ConfigEvaluation,
    constraint: &DeliveryConstraint,
    tie: TieBreaking,
) -> bool {
    match (a.is_feasible(constraint), b.is_feasible(constraint)) {
        (true, true) => better_feasible(a, b, tie),
        (false, false) => better_infeasible(a, b),
        (a_feasible, _) => a_feasible,
    }
}

/// The first evaluation of the stream that no later one is `better` than.
fn first_best(
    evaluations: impl Iterator<Item = ConfigEvaluation>,
    better: impl Fn(&ConfigEvaluation, &ConfigEvaluation) -> bool,
) -> Option<ConfigEvaluation> {
    evaluations.reduce(|best, eval| if better(&eval, &best) { eval } else { best })
}

/// The §IV.B pick, written once: the first evaluation of the stream that no
/// later one is [`preferred`] to — the cheapest feasible configuration
/// (ties per `tie`), or the fastest one when nothing is feasible.
///
/// Every exact solver is this scan over a different stream:
/// [`Optimizer::solve`] evaluates lazily, [`SweepSolver::solve_at`] replays
/// its cache.
fn select(
    evaluations: impl Iterator<Item = ConfigEvaluation>,
    constraint: &DeliveryConstraint,
    tie: TieBreaking,
) -> Solution {
    let mut considered = 0u64;
    let best = first_best(evaluations.inspect(|_| considered += 1), |a, b| {
        preferred(a, b, constraint, tie)
    });
    // lint:allow(panic) AssignmentVector is non-empty by construction, so every enumeration yields at least one configuration
    Solution::new(best.expect("at least one configuration exists"), constraint, considered)
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

    /// Lazily evaluates `configurations` in order, reusing one scratch buffer.
    fn evaluations<'s>(
        &'s self,
        configurations: impl Iterator<Item = Configuration> + 's,
        constraint: &'s DeliveryConstraint,
    ) -> impl Iterator<Item = ConfigEvaluation> + 's {
        let mut scratch = EvalScratch::default();
        configurations
            .map(move |config| self.evaluator.evaluate_into(config, constraint, &mut scratch))
    }

    /// Every configuration the allowed regions and the mode policy admit.
    fn all_evaluations<'s>(
        &'s self,
        constraint: &'s DeliveryConstraint,
    ) -> impl Iterator<Item = ConfigEvaluation> + 's {
        self.evaluations(enumerate_configurations(self.allowed, self.policy), constraint)
    }

    /// Runs the exhaustive search and returns the optimal solution under
    /// the paper's selection rules.
    pub fn solve(&self, constraint: &DeliveryConstraint) -> Solution {
        let _solve_timer = multipub_obs::timer!(multipub_obs::metrics::CORE_SOLVE_MS);
        multipub_obs::counter!(multipub_obs::metrics::CORE_SOLVES_TOTAL).inc();
        let solution = select(self.all_evaluations(constraint), constraint, self.tie_breaking);
        multipub_obs::counter!(multipub_obs::metrics::CORE_CONFIGS_EVALUATED_TOTAL)
            .add(solution.configurations_considered);
        solution
    }

    /// The *One Region* baseline (paper §II-B1): the cheapest single region
    /// (ties broken per [`TieBreaking`]), **ignoring** the constraint when
    /// picking. The returned feasibility still records whether the pick
    /// happens to meet the constraint.
    pub fn solve_one_region(&self, constraint: &DeliveryConstraint) -> Solution {
        let n_regions = self.evaluator.regions().len();
        let singles = self.allowed.iter().map(move |region| {
            let assignment = AssignmentVector::single(region, n_regions)
                // lint:allow(panic) every region iterated out of `allowed` was bounds-checked against the same region count when `allowed` was built
                .expect("allowed regions are in bounds");
            Configuration::new(assignment, DeliveryMode::Direct)
        });
        let evaluation = first_best(self.evaluations(singles, constraint), |a, b| {
            better_feasible(a, b, self.tie_breaking)
        })
        // lint:allow(panic) AssignmentVector is non-empty by construction, so there is at least one single-region configuration
        .expect("allowed region set is non-empty");
        Solution::new(evaluation, constraint, u64::from(self.allowed.count()))
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
/// once; every sweep point is then a linear scan over the cached
/// evaluations. This turns an `O(points × 2^N × pairs log pairs)` sweep
/// into `O(2^N × pairs log pairs + points × 2^N)`.
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
        let evaluations = optimizer.all_evaluations(&probe).collect();
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
        Ok(select(self.evaluations.iter().copied(), &constraint, self.tie_breaking))
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
    use crate::workload::{MessageBatch, Publisher, Subscriber};

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

    /// SplitMix64, inline so the oracle needs no `rand`.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform integer in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo + 1)
        }

        /// Whole-millisecond latency, so sums and percentile ties are exact.
        fn latency(&mut self, lo: u64, hi: u64) -> f64 {
            self.range(lo, hi) as f64
        }
    }

    /// A random 2–5-region instance. Prices come from three Table I rate
    /// pairs, so equal-price regions — and with them equal-cost
    /// configurations that differ by float summation order — are common.
    fn random_instance(rng: &mut SplitMix64) -> (RegionSet, InterRegionMatrix, TopicWorkload) {
        const PRICES: [(f64, f64); 3] = [(0.02, 0.09), (0.09, 0.14), (0.16, 0.25)];
        let n = rng.range(2, 5) as usize;
        let regions = RegionSet::new(
            (0..n)
                .map(|i| {
                    let (alpha, beta) = PRICES[rng.range(0, 2) as usize];
                    Region::new(format!("r{i}"), "X", alpha, beta)
                })
                .collect(),
        )
        .unwrap();
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                rows[i][j] = rng.latency(10, 200);
                rows[j][i] = rows[i][j];
            }
        }
        let inter = InterRegionMatrix::from_rows(rows).unwrap();
        let mut workload = TopicWorkload::new(n);
        let mut next_id = 0u64;
        let mut client_row = |rng: &mut SplitMix64| -> (ClientId, Vec<f64>) {
            next_id += 1;
            (ClientId(next_id), (0..n).map(|_| rng.latency(1, 150)).collect())
        };
        for _ in 0..rng.range(1, 3) {
            let (id, row) = client_row(rng);
            let batch = MessageBatch::uniform(rng.range(1, 5), rng.range(100, 2000));
            workload.add_publisher(Publisher::new(id, row, batch).unwrap()).unwrap();
        }
        for _ in 0..rng.range(1, 6) {
            let (id, row) = client_row(rng);
            let weight = rng.range(1, 3);
            workload.add_subscriber(Subscriber::with_weight(id, row, weight).unwrap()).unwrap();
        }
        (regions, inter, workload)
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

    #[test]
    fn every_solver_returns_the_brute_force_pick() {
        let mut rng = SplitMix64(0x4D75_6C74_6950_7562);
        let mut feasible_points = 0;
        let mut infeasible_points = 0;
        let mut cost_ties = 0;
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let instances = if cfg!(miri) { 30 } else { 300 };
        for instance in 0..instances {
            let (regions, inter, workload) = random_instance(&mut rng);
            let n = regions.len();
            let ratio = [50.0, 75.0, 95.0, 100.0][rng.range(0, 3) as usize];
            let policy = [ModePolicy::Any, ModePolicy::DirectOnly, ModePolicy::RoutedOnly]
                [rng.range(0, 2) as usize];
            let probe = DeliveryConstraint::new(ratio, 1.0).unwrap();
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let evaluations: Vec<ConfigEvaluation> =
                enumerate_configurations(AssignmentVector::all(n).unwrap(), policy)
                    .map(|config| evaluator.evaluate(config, &probe))
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
                    .with_tie_breaking(tie);
                let sweep =
                    SweepSolver::with_options(&regions, &inter, &workload, ratio, policy, None)
                        .unwrap()
                        .with_tie_breaking(tie);
                assert_eq!(sweep.configurations(), evaluations.len());
                if policy == ModePolicy::Any {
                    assert_eq!(
                        sweep.configurations() as u64,
                        crate::assignment::configuration_count(n as u32)
                    );
                }
                for max_t in bounds {
                    let context = format!("instance {instance}, {policy:?}, {tie:?}, {max_t} ms");
                    let constraint = DeliveryConstraint::new(ratio, max_t).unwrap();
                    let (winners, feasible) = oracle(&evaluations, max_t, tie);
                    if feasible {
                        feasible_points += 1;
                        let cheapest = winners[0].cost_dollars();
                        let at_cheapest = evaluations
                            .iter()
                            .filter(|c| c.percentile_ms() <= max_t)
                            .filter(|c| tied(c.cost_dollars(), cheapest))
                            .count();
                        cost_ties += usize::from(at_cheapest > 1);
                    } else {
                        infeasible_points += 1;
                    }

                    // The scan keeps the first of equals, so the exact
                    // solvers return the first winner in enumeration order.
                    let full = optimizer.solve(&constraint);
                    assert_eq!(full.evaluation(), &winners[0], "{context}");
                    assert_eq!(full.is_feasible(), feasible, "{context}");
                    assert_eq!(full.configurations_considered(), evaluations.len() as u64);
                    assert_eq!(sweep.solve_at(max_t).unwrap(), full, "{context}");
                    if policy == ModePolicy::Any && tie == TieBreaking::default() {
                        let problem = TopicProblem { workload: workload.clone(), constraint };
                        let solved = solve_topics(&regions, &inter, &[problem]).unwrap();
                        assert_eq!(solved, vec![full], "{context}");

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
