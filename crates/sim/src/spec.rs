//! Declarative experiment specifications (serde-derivable; the
//! `multipub-sim` binary reads them from JSON), so simulations can be
//! described in files and run from the command line — the counterpart of
//! the paper's statement that "the simulator can run simulations with any
//! number of topics" with per-topic populations, rates, sizes and
//! constraints (§V.B).

use crate::cost_per_day;
use crate::population::{Population, PopulationSpec};
use crate::table::{dollars, millis, Table};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::error::Error;
use multipub_core::optimizer::{solve_topics, Solution, TopicProblem};
use multipub_data::ec2;
use serde::{Deserialize, Serialize};

/// One topic in a simulation spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicSpec {
    /// Topic name (reporting only; topics are independent).
    pub name: String,
    /// Delivery ratio, percent.
    pub ratio_percent: f64,
    /// Delivery bound, milliseconds.
    pub max_ms: f64,
    /// Client placement and publisher behaviour.
    #[serde(flatten)]
    pub population: PopulationSpec,
}

/// A complete simulation: deployment defaults to the built-in EC2
/// snapshot; topics are solved independently (and in parallel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationSpec {
    /// The topics to optimize.
    pub topics: Vec<TopicSpec>,
    /// Observation-interval length in seconds.
    #[serde(default = "default_interval")]
    pub interval_secs: f64,
    /// RNG seed for client populations.
    #[serde(default = "default_seed")]
    pub seed: u64,
}

// The two defaults are read only by serde's `default = "..."` expansion, which
// the model workspace's no-op derive stand-in does not perform.
#[allow(dead_code)]
fn default_interval() -> f64 {
    60.0
}

#[allow(dead_code)]
fn default_seed() -> u64 {
    2017
}

/// The outcome of running a [`SimulationSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Per-topic solver results, in spec order.
    pub solutions: Vec<(String, Solution)>,
    /// The observation interval, seconds, scaled to $/day.
    interval_secs: f64,
}

impl SimulationOutcome {
    /// Renders the outcome as a table.
    pub fn table(&self) -> Table {
        let mut table = Table::new([
            "topic",
            "configuration",
            "delivery (ms)",
            "feasible",
            "$/day",
            "configs considered",
        ]);
        for (name, solution) in &self.solutions {
            table.push_row([
                name.clone(),
                solution.configuration().to_string(),
                millis(solution.evaluation().percentile_ms()),
                solution.is_feasible().to_string(),
                dollars(cost_per_day(solution.evaluation().cost_dollars(), self.interval_secs)),
                solution.configurations_considered().to_string(),
            ]);
        }
        table
    }
}

/// Runs a spec against the built-in EC2 deployment.
///
/// # Errors
///
/// Returns a model error when the interval is not positive and finite, a
/// topic's per-region vectors are wider than the deployment, a rate is
/// negative, not finite or so large that an interval's message, byte or
/// delivery totals overflow `u64`, a constraint is invalid, or a topic has
/// no publishers or subscribers.
pub fn run_spec(spec: &SimulationSpec) -> Result<SimulationOutcome, Error> {
    let _spec_timer = multipub_obs::timer!(multipub_obs::metrics::SIM_SPEC_MS);
    multipub_obs::counter!(multipub_obs::metrics::SIM_TOPICS_SOLVED_TOTAL)
        .add(spec.topics.len() as u64);
    if !(spec.interval_secs > 0.0 && spec.interval_secs.is_finite()) {
        return Err(Error::InvalidInterval { value: spec.interval_secs });
    }
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let mut problems = Vec::with_capacity(spec.topics.len());
    for (index, topic) in spec.topics.iter().enumerate() {
        let clients = &topic.population;
        let width = clients.pubs_per_region.len().max(clients.subs_per_region.len());
        if width > inter.len() {
            return Err(Error::LatencyDimension { expected: inter.len(), got: width });
        }
        if !rate_is_countable(clients, spec.interval_secs) {
            return Err(Error::InvalidRate { value: clients.rate_per_sec });
        }
        let population =
            Population::generate(clients, &inter, spec.seed.wrapping_add(index as u64));
        problems.push(TopicProblem {
            workload: population.workload(spec.interval_secs),
            constraint: DeliveryConstraint::new(topic.ratio_percent, topic.max_ms)?,
        });
    }
    let solutions = solve_topics(&regions, &inter, &problems)?;
    Ok(SimulationOutcome {
        solutions: spec.topics.iter().map(|t| t.name.clone()).zip(solutions).collect(),
        interval_secs: spec.interval_secs,
    })
}

/// Whether `clients`' rate is finite and non-negative, and one interval of
/// their traffic counts in `u64`: each publisher's `rate × interval`
/// messages (the count [`Population::workload`] casts), the topic's bytes,
/// and its deliveries to every subscriber.
fn rate_is_countable(clients: &PopulationSpec, interval_secs: f64) -> bool {
    let rate = clients.rate_per_sec;
    let count = (rate * interval_secs).round();
    // 2^64 is exact in f64; at or above it the `as u64` cast saturates.
    if !(rate >= 0.0 && rate.is_finite() && count < 18_446_744_073_709_551_616.0) {
        return false;
    }
    let count = count as u64;
    let total = |per_region: &[usize]| {
        per_region.iter().try_fold(0u64, |sum, &n| sum.checked_add(n as u64))
    };
    let totals = || {
        let (publishers, subscribers) =
            (total(&clients.pubs_per_region)?, total(&clients.subs_per_region)?);
        let bytes = count.checked_mul(clients.size_bytes)?.checked_mul(publishers)?;
        let deliveries = count.checked_mul(publishers)?.checked_mul(subscribers)?;
        Some((bytes, deliveries))
    };
    totals().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_topic(width: usize, rate_per_sec: f64, interval_secs: f64) -> SimulationSpec {
        sized_topic(width, rate_per_sec, interval_secs, 100)
    }

    fn sized_topic(width: usize, rate: f64, interval_secs: f64, size: u64) -> SimulationSpec {
        let population = PopulationSpec::uniform(width, 1, 1, rate, size);
        let topic = TopicSpec { name: "t".into(), ratio_percent: 95.0, max_ms: 150.0, population };
        SimulationSpec { topics: vec![topic], interval_secs, seed: 1 }
    }

    #[test]
    fn vectors_wider_than_the_deployment_are_rejected() {
        assert!(run_spec(&one_topic(10, 1.0, 10.0)).is_ok());
        let wide = run_spec(&one_topic(11, 1.0, 10.0));
        assert_eq!(wide, Err(Error::LatencyDimension { expected: 10, got: 11 }));
    }

    #[test]
    fn a_zero_interval_is_rejected() {
        let zero = run_spec(&one_topic(10, 1.0, 0.0));
        assert_eq!(zero, Err(Error::InvalidInterval { value: 0.0 }));
    }

    #[test]
    fn an_infinite_negative_or_nan_rate_is_rejected() {
        for rate in [f64::INFINITY, -1.0, f64::NAN] {
            let error = run_spec(&one_topic(10, rate, 10.0)).unwrap_err();
            assert!(matches!(error, Error::InvalidRate { .. }), "rate {rate}: {error}");
        }
    }

    #[test]
    fn a_rate_whose_bytes_overflow_u64_is_rejected() {
        // 6e17 messages of 1 KiB from each of 10 publishers: 6.1e21 bytes.
        let bytes_overflow = run_spec(&sized_topic(10, 1e16, 60.0, 1024));
        assert_eq!(bytes_overflow, Err(Error::InvalidRate { value: 1e16 }));
    }

    #[test]
    fn a_rate_whose_deliveries_overflow_u64_is_rejected() {
        // 1 B messages keep the bytes at 6e17 × 10 publishers = 6e18 < 2^64:
        // one subscriber receives 6e18 deliveries, ten receive 6e19.
        let mut spec = sized_topic(10, 1e16, 60.0, 1);
        spec.topics[0].population.subs_per_region = vec![1];
        assert!(run_spec(&spec).is_ok());
        spec.topics[0].population.subs_per_region = vec![1; 10];
        assert_eq!(run_spec(&spec), Err(Error::InvalidRate { value: 1e16 }));
    }
}
