//! Client population generation: place publishers and subscribers near
//! chosen regions, derive their latency rows from the King-style model,
//! and convert the population into an analytic [`TopicWorkload`] or a
//! discrete-event [`TopicScenario`].
//!
//! The same latency rows feed both representations, which is what lets
//! the integration tests cross-validate analytic predictions against
//! simulated measurements.

use multipub_core::assignment::Configuration;
use multipub_core::ids::{ClientId, RegionId, TopicId};
use multipub_core::latency::InterRegionMatrix;
use multipub_core::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};
use multipub_data::king::{generate_population, ClientLatencyModel, SyntheticClient};
use multipub_netsim::scenario::{SimPublisher, SimSubscriber, TopicScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where and how a topic's clients are placed, and how publishers behave.
///
/// `pubs_per_region[i]` / `subs_per_region[i]` clients are homed at region
/// `i`; every publisher emits `rate_per_sec` messages of `size_bytes`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Publishers homed at each region.
    pub pubs_per_region: Vec<usize>,
    /// Subscribers homed at each region.
    pub subs_per_region: Vec<usize>,
    /// Per-publisher publication rate, messages per second.
    pub rate_per_sec: f64,
    /// Publication size in bytes.
    pub size_bytes: u64,
}

impl PopulationSpec {
    /// A spec with `pubs` publishers and `subs` subscribers homed at every
    /// one of `n_regions` regions (the paper's experiment-1 layout with
    /// `pubs = subs = 10`).
    pub fn uniform(
        n_regions: usize,
        pubs: usize,
        subs: usize,
        rate_per_sec: f64,
        size_bytes: u64,
    ) -> Self {
        PopulationSpec {
            pubs_per_region: vec![pubs; n_regions],
            subs_per_region: vec![subs; n_regions],
            rate_per_sec,
            size_bytes,
        }
    }

    /// A spec with all clients homed at a single region (the paper's
    /// experiment-3 "localized" layout).
    pub fn localized(
        n_regions: usize,
        home: RegionId,
        pubs: usize,
        subs: usize,
        rate_per_sec: f64,
        size_bytes: u64,
    ) -> Self {
        let mut pubs_per_region = vec![0; n_regions];
        let mut subs_per_region = vec![0; n_regions];
        // lint:allow(indexing) `home` is drawn from 0..n_regions, the length of both vectors
        pubs_per_region[home.index()] = pubs;
        // lint:allow(indexing) `home` is drawn from 0..n_regions, the length of both vectors
        subs_per_region[home.index()] = subs;
        PopulationSpec { pubs_per_region, subs_per_region, rate_per_sec, size_bytes }
    }
}

/// A generated client population: concrete latency rows for every client.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    publishers: Vec<(ClientId, Arc<[f64]>)>,
    subscribers: Vec<(ClientId, Arc<[f64]>)>,
    rate_per_sec: f64,
    size_bytes: u64,
    n_regions: usize,
}

impl Population {
    /// Generates a population from a spec, deterministically for a given
    /// seed. Client ids are assigned sequentially, publishers first.
    ///
    /// # Panics
    ///
    /// Panics if the spec's per-region vectors are wider than the
    /// inter-region matrix.
    pub fn generate(spec: &PopulationSpec, inter: &InterRegionMatrix, seed: u64) -> Self {
        assert!(
            spec.pubs_per_region.len() <= inter.len() && spec.subs_per_region.len() <= inter.len(),
            "population spec covers more regions than the deployment has"
        );
        let model = ClientLatencyModel::new(inter);
        let mut rng = StdRng::seed_from_u64(seed);
        let publishers = generate_population(&model, &spec.pubs_per_region, &mut rng);
        let subscribers = generate_population(&model, &spec.subs_per_region, &mut rng);
        let mut ids = (0..).map(ClientId);
        let mut number = |clients: Vec<SyntheticClient>| -> Vec<(ClientId, Arc<[f64]>)> {
            clients.into_iter().zip(&mut ids).map(|(client, id)| (id, client.latencies)).collect()
        };
        let (publishers, subscribers) = (number(publishers), number(subscribers));
        Population {
            publishers,
            subscribers,
            rate_per_sec: spec.rate_per_sec,
            size_bytes: spec.size_bytes,
            n_regions: inter.len(),
        }
    }

    /// The analytic workload for an observation interval of
    /// `interval_secs` seconds: each publisher contributes
    /// `rate × interval` messages of the configured size.
    pub fn workload(&self, interval_secs: f64) -> TopicWorkload {
        let batch = MessageBatch::uniform(
            (self.rate_per_sec * interval_secs).round() as u64,
            self.size_bytes,
        );
        let publishers = self.publishers.iter();
        let subscribers = self.subscribers.iter();
        TopicWorkload::new(
            self.n_regions,
            publishers
                .map(|(id, latencies)| Publisher::new(*id, latencies.clone(), batch))
                .collect(),
            subscribers.map(|(id, latencies)| Subscriber::new(*id, latencies.clone())).collect(),
        )
        // lint:allow(panic) the generator emits one finite latency per region, and client ids come from a strictly increasing counter
        .expect("generated rows are valid and ids unique")
    }

    /// The discrete-event counterpart of this population under a fixed
    /// `configuration`: publication phases are spread uniformly over one
    /// period so publishers do not fire in lock-step.
    pub fn scenario_topic(
        &self,
        id: TopicId,
        configuration: Configuration,
        seed: u64,
    ) -> TopicScenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let period_ms = 1000.0 / self.rate_per_sec;
        let publishers = self
            .publishers
            .iter()
            .map(|(client, latencies)| {
                SimPublisher::with_phase(
                    *client,
                    latencies.clone(),
                    self.rate_per_sec,
                    self.size_bytes,
                    rng.random_range(0.0..period_ms),
                )
            })
            .collect();
        let subscribers = self
            .subscribers
            .iter()
            .map(|(client, latencies)| SimSubscriber::new(*client, latencies.clone()))
            .collect();
        TopicScenario::new(id, configuration, publishers, subscribers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_core::assignment::{AssignmentVector, DeliveryMode};
    use multipub_data::ec2;

    #[test]
    fn uniform_spec_counts() {
        let spec = PopulationSpec::uniform(10, 10, 10, 1.0, 1024);
        assert_eq!(spec.pubs_per_region, vec![10; 10]);
        assert_eq!(spec.subs_per_region, vec![10; 10]);
    }

    #[test]
    fn localized_spec_places_everyone_at_home() {
        let spec = PopulationSpec::localized(10, ec2::regions::AP_NORTHEAST_1, 100, 100, 1.0, 1024);
        assert_eq!(spec.pubs_per_region.iter().sum::<usize>(), 100);
        assert_eq!(spec.pubs_per_region[5], 100);
        assert_eq!(spec.pubs_per_region[0], 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let inter = ec2::inter_region_latencies();
        let spec = PopulationSpec::uniform(10, 2, 2, 1.0, 512);
        let a = Population::generate(&spec, &inter, 99);
        let b = Population::generate(&spec, &inter, 99);
        assert_eq!(a, b);
        let c = Population::generate(&spec, &inter, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_reflects_rate_and_interval() {
        let inter = ec2::inter_region_latencies();
        let spec = PopulationSpec::uniform(10, 1, 1, 2.0, 256);
        let population = Population::generate(&spec, &inter, 1);
        let workload = population.workload(30.0);
        assert_eq!(workload.publisher_count(), 10);
        assert_eq!(workload.total_messages(), 10 * 60);
        assert_eq!(workload.publishers()[0].batch().total_bytes(), 60 * 256);
    }

    #[test]
    fn client_ids_are_unique_across_roles() {
        let inter = ec2::inter_region_latencies();
        let spec = PopulationSpec::uniform(10, 3, 3, 1.0, 256);
        let population = Population::generate(&spec, &inter, 1);
        let workload = population.workload(10.0);
        let publishers = workload.publishers().iter().map(|p| p.id());
        let ids: std::collections::HashSet<_> =
            publishers.chain(workload.subscribers().iter().map(|s| s.id())).collect();
        assert_eq!(ids.len(), 60);
    }

    #[test]
    fn scenario_topic_matches_population() {
        let inter = ec2::inter_region_latencies();
        let spec = PopulationSpec::uniform(10, 1, 2, 4.0, 128);
        let population = Population::generate(&spec, &inter, 1);
        let config = Configuration::new(AssignmentVector::all(10).unwrap(), DeliveryMode::Routed);
        let topic = population.scenario_topic(TopicId::new("t"), config, 7);
        assert_eq!(topic.publishers().len(), 10);
        assert_eq!(topic.subscribers().len(), 20);
        // Phases stay within one period.
        for p in topic.publishers() {
            assert!(p.phase_ms() < 250.0);
        }
        // Latency rows are shared with the analytic workload.
        let workload = population.workload(1.0);
        assert_eq!(topic.publishers()[0].latencies(), workload.publishers()[0].latencies());
    }
}
