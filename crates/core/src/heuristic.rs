//! Heuristic configuration search for extra-large deployments.
//!
//! The exact solver is exponential in the region count; the paper's
//! future-work section (§VII) proposes heuristic approaches for larger
//! systems. This module implements a **beam search** over the
//! configuration lattice: start from the best single-region
//! configurations, repeatedly try adding one region (under both delivery
//! modes), keep the `beam_width` best candidates, and stop when no
//! expansion improves on the incumbent. With `beam_width = 1` this is
//! plain greedy hill-climbing.
//!
//! Complexity: `O(beam_width × N_R²)` evaluations instead of
//! `O(2^{N_R})`. The search is *not* guaranteed optimal — delivery time is
//! not monotone in the assignment (see the property tests) — but on the
//! EC2-style deployments of the evaluation it finds the exact optimum or
//! lands within a few percent, at a fraction of the time (see the
//! `ablations` bench).

use crate::assignment::{AssignmentVector, Configuration, DeliveryMode};
use crate::constraint::DeliveryConstraint;
use crate::error::Error;
use crate::evaluate::{ConfigEvaluation, EvalScratch, TopicEvaluator};
use crate::latency::InterRegionMatrix;
use crate::optimizer::{preferred, Solution, TieBreaking};
use crate::region::RegionSet;
use crate::workload::TopicWorkload;
use serde::{Deserialize, Serialize};

/// Tuning knobs for the beam search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeuristicOptions {
    /// How many candidate configurations survive each expansion round.
    pub beam_width: usize,
    /// Upper bound on expansion rounds (and thereby on the region count of
    /// explored configurations). Defaults to the region count.
    pub max_rounds: Option<usize>,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions { beam_width: 3, max_rounds: None }
    }
}

/// Keeps the `width` most [`preferred`] candidates, best first. The
/// preference is not a total order, so the beam is taken by successive
/// minimum scans (first of equals wins) rather than by sorting.
fn keep_best(
    candidates: &mut Vec<ConfigEvaluation>,
    width: usize,
    better: impl Fn(&ConfigEvaluation, &ConfigEvaluation) -> bool,
) {
    let width = width.min(candidates.len());
    for slot in 0..width {
        let mut best = slot;
        for index in slot + 1..candidates.len() {
            // lint:allow(indexing) `index` and `best` both range below `candidates.len()`
            if better(&candidates[index], &candidates[best]) {
                best = index;
            }
        }
        // lint:allow(indexing) `slot <= best < candidates.len()`
        candidates[slot..=best].rotate_right(1);
    }
    candidates.truncate(width);
}

/// Beam-search heuristic solve.
///
/// Candidates are ranked by the exact solver's §IV.B preference (default
/// [`TieBreaking`]). Returns a [`Solution`] shaped exactly like the exact
/// solver's, with `configurations_considered` counting heuristic
/// evaluations.
///
/// # Errors
///
/// Same construction errors as [`crate::optimizer::Optimizer::new`].
pub fn solve_heuristic(
    regions: &RegionSet,
    inter: &InterRegionMatrix,
    workload: &TopicWorkload,
    constraint: &DeliveryConstraint,
    options: &HeuristicOptions,
) -> Result<Solution, Error> {
    workload.ensure_non_empty()?;
    let evaluator = TopicEvaluator::new(regions, inter, workload)?;
    let beam_width = options.beam_width.max(1);
    let max_rounds = options.max_rounds.unwrap_or(regions.len());
    let better = |a: &ConfigEvaluation, b: &ConfigEvaluation| {
        preferred(a, b, constraint.max_ms(), TieBreaking::default())
    };
    let mut scratch = EvalScratch::default();
    let mut considered = 0u64;

    // Seed: every single-region configuration.
    let mut beam: Vec<ConfigEvaluation> = Vec::new();
    for region in regions.ids() {
        let assignment = AssignmentVector::single(region, regions.len())?;
        let config = Configuration::new(assignment, DeliveryMode::Direct);
        beam.push(evaluator.evaluate_into(config, constraint, &mut scratch));
        considered += 1;
    }
    keep_best(&mut beam, beam_width, better);
    // lint:allow(indexing) the beam is seeded with one candidate per region and the region set is non-empty
    let mut incumbent = beam[0];

    for _ in 0..max_rounds {
        let mut expansions: Vec<ConfigEvaluation> = Vec::new();
        for seed in &beam {
            for region in regions.ids() {
                if seed.configuration().assignment().contains(region) {
                    continue;
                }
                let grown = seed.configuration().assignment().with(region);
                for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                    let config = Configuration::new(grown, mode);
                    // Two seeds one region apart grow into the same superset.
                    if expansions.iter().any(|e| e.configuration() == config) {
                        continue;
                    }
                    expansions.push(evaluator.evaluate_into(config, constraint, &mut scratch));
                    considered += 1;
                }
            }
        }
        keep_best(&mut expansions, beam_width, better);
        match expansions.first() {
            Some(best) if better(best, &incumbent) => incumbent = *best,
            _ => break, // no expansion beats the incumbent: stop climbing
        }
        beam = expansions;
    }

    Ok(Solution::new(incumbent, constraint, considered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::optimizer::Optimizer;
    use crate::region::Region;
    use crate::workload::{MessageBatch, Publisher, Subscriber};

    fn deployment() -> (RegionSet, InterRegionMatrix) {
        let regions = RegionSet::new(vec![
            Region::new("cheap", "A", 0.02, 0.09),
            Region::new("mid", "B", 0.09, 0.14),
            Region::new("pricey", "C", 0.16, 0.25),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 60.0],
            vec![90.0, 60.0, 0.0],
        ])
        .unwrap();
        (regions, inter)
    }

    fn workload() -> TopicWorkload {
        let mut w = TopicWorkload::new(3);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![10.0, 55.0, 95.0], MessageBatch::uniform(10, 1000))
                .unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(1), vec![8.0, 60.0, 99.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(2), vec![70.0, 9.0, 65.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(3), vec![95.0, 62.0, 7.0]).unwrap()).unwrap();
        w
    }

    #[test]
    fn heuristic_result_is_valid_and_never_beats_exact() {
        let (regions, inter) = deployment();
        let w = workload();
        for max_t in [40.0, 80.0, 150.0, 400.0] {
            let constraint = DeliveryConstraint::new(90.0, max_t).unwrap();
            let exact = Optimizer::new(&regions, &inter, &w).unwrap().solve(&constraint);
            let heuristic =
                solve_heuristic(&regions, &inter, &w, &constraint, &HeuristicOptions::default())
                    .unwrap();
            if exact.is_feasible() && heuristic.is_feasible() {
                assert!(
                    heuristic.evaluation().cost_dollars()
                        >= exact.evaluation().cost_dollars() - 1e-12,
                    "heuristic cannot be cheaper than the optimum at max_t {max_t}"
                );
            }
        }
    }

    #[test]
    fn heuristic_matches_exact_on_small_instances() {
        // With beam width ≥ region count the search covers enough of the
        // lattice to find the optimum on this 3-region instance.
        let (regions, inter) = deployment();
        let w = workload();
        let options = HeuristicOptions { beam_width: 8, max_rounds: None };
        for max_t in [40.0, 100.0, 200.0, 500.0] {
            let constraint = DeliveryConstraint::new(90.0, max_t).unwrap();
            let exact = Optimizer::new(&regions, &inter, &w).unwrap().solve(&constraint);
            let heuristic = solve_heuristic(&regions, &inter, &w, &constraint, &options).unwrap();
            assert_eq!(heuristic.is_feasible(), exact.is_feasible(), "max_t {max_t}");
            if exact.is_feasible() {
                assert!(
                    (heuristic.evaluation().cost_dollars() - exact.evaluation().cost_dollars())
                        .abs()
                        < 1e-12,
                    "max_t {max_t}: heuristic ${} vs exact ${}",
                    heuristic.evaluation().cost_dollars(),
                    exact.evaluation().cost_dollars()
                );
            }
        }
    }

    #[test]
    fn heuristic_considers_far_fewer_configurations_at_scale() {
        let (regions, inter) = deployment();
        let w = workload();
        let constraint = DeliveryConstraint::new(90.0, 100.0).unwrap();
        let exact = Optimizer::new(&regions, &inter, &w).unwrap().solve(&constraint);
        let heuristic = solve_heuristic(
            &regions,
            &inter,
            &w,
            &constraint,
            &HeuristicOptions { beam_width: 1, max_rounds: None },
        )
        .unwrap();
        // 3 regions: exact = 11; greedy = 3 seeds + ≤ 2 rounds × 4.
        assert!(heuristic.configurations_considered() <= exact.configurations_considered());
    }

    #[test]
    fn rejects_empty_workload() {
        let (regions, inter) = deployment();
        let w = TopicWorkload::new(3);
        let constraint = DeliveryConstraint::new(90.0, 100.0).unwrap();
        assert!(solve_heuristic(&regions, &inter, &w, &constraint, &HeuristicOptions::default())
            .is_err());
    }
}
