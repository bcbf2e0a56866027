//! The four seeded workloads.
//!
//! A workload's *shape* — topic, publisher, subscriber and region counts,
//! rates, bounds, the size ladder, the fault windows — is constant, so
//! every seed costs the same work. The seed draws only the latency rows
//! (`multipub_data::king`), the engine's jitter and fault streams, which
//! topic gets which ladder size, and which topics churn.

use crate::stats::Fnv;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::{ClientId, RegionId, TopicId};
use multipub_data::ec2;
use multipub_data::king::ClientLatencyModel;
use multipub_netsim::faults::{DuplicateDelivery, FaultPlan, RegionOutage, ReorderWindow};
use multipub_netsim::jitter::Jitter;
use multipub_netsim::scenario::{Scenario, SimPublisher, SimSubscriber, TopicScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One of the benchmark's workloads. Why each exists is in
/// `BENCHMARK.json` and `README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 topics × 10 regions × 100 publishers × 100 subscribers:
    /// configuration enumeration dominates.
    WideRegions,
    /// 2 topics × 5 regions × 450 × 450 clients, one topic infeasible:
    /// percentile sorting dominates.
    DenseClients,
    /// 2 000 small topics × 6 regions, 10 % churn per interval: per-topic
    /// fixed cost dominates.
    ManyTopics,
    /// 60 topics at 20 msg/s under jitter, loss, outage, reorder,
    /// duplicates and mid-interval reconfiguration: the simulator dominates.
    SimHeavy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::WideRegions, Workload::DenseClients, Workload::ManyTopics, Workload::SimHeavy];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideRegions => "wide_regions",
            Workload::DenseClients => "dense_clients",
            Workload::ManyTopics => "many_topics",
            Workload::SimHeavy => "sim_heavy",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the simulator must reproduce the analytic model exactly
    /// (no jitter, no faults).
    pub fn is_fault_free(self) -> bool {
        self != Workload::SimHeavy
    }
}

/// Everything one run feeds the system: the program under test sees only
/// these generated values, never the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload this is.
    pub workload: Workload,
    /// Deployment, topics with their *installed* configurations, faults.
    pub scenario: Scenario,
    /// `<ratio_T, max_T>` per topic, indexed like `scenario.topics()`.
    pub constraints: Vec<DeliveryConstraint>,
    /// Per-hop jitter model for the engine.
    pub jitter: Jitter,
    /// Simulated length of one observation interval.
    pub duration_ms: f64,
    /// When set, each interval's decision reaches the simulated deployment
    /// through `Engine::schedule_reconfiguration` at this offset of the
    /// *next* interval instead of before it starts.
    pub reconfigure_at_ms: Option<f64>,
    /// Subscriber churn applied between intervals, if the workload has any.
    pub churn: Option<Churn>,
    /// Base of the per-interval engine seeds.
    pub engine_seed: u64,
}

impl Inputs {
    /// Number of regions in the deployment.
    pub fn n_regions(&self) -> usize {
        self.scenario.regions().len()
    }

    /// Digest of every generated number: equal for equal seeds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.write_u64(self.engine_seed);
        h.write_f64(self.duration_ms);
        for (topic, constraint) in self.scenario.topics().iter().zip(&self.constraints) {
            h.write_u64(topic.configuration().assignment().mask() as u64);
            h.write_f64(constraint.ratio_percent());
            h.write_f64(constraint.max_ms());
            for p in topic.publishers() {
                h.write_u64(p.client().0);
                h.write_u64(p.size_bytes());
                h.write_f64(p.rate_per_sec());
                h.write_f64(p.phase_ms());
                p.latencies().iter().for_each(|&l| h.write_f64(l));
            }
            for s in topic.subscribers() {
                h.write_u64(s.client().0);
                s.latencies().iter().for_each(|&l| h.write_f64(l));
            }
        }
        if let Some(churn) = &self.churn {
            for spare in churn.spares.iter().flatten() {
                spare.latencies().iter().for_each(|&l| h.write_f64(l));
            }
        }
        h.finish()
    }
}

/// Derives an independent stream seed from the run seed.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Publisher phases spread over one period by a fixed pattern, so equal
/// publishers do not all fire on the same tick. Not seeded: part of the shape.
fn phase_ms(index: usize, rate_per_sec: f64) -> f64 {
    (index as f64 * 0.37).fract() * 1000.0 / rate_per_sec
}

/// The configuration every topic holds before the controller first places
/// it: all regions, routed (`multipub_core::assignment::Epoch` docs).
fn bootstrap(n_regions: usize) -> Configuration {
    let all = AssignmentVector::all(n_regions).expect("deployments here have 4 to 10 regions");
    Configuration::new(all, DeliveryMode::Routed)
}

fn constraint(ratio_percent: f64, max_ms: f64) -> DeliveryConstraint {
    DeliveryConstraint::new(ratio_percent, max_ms).expect("constant bounds are valid")
}

/// Hands out client ids and samples their latency rows.
struct Population<'a> {
    model: ClientLatencyModel<'a>,
    rng: StdRng,
    next_id: u64,
}

impl Population<'_> {
    fn publisher(&mut self, home: usize, index: usize, rate: f64, size_bytes: u64) -> SimPublisher {
        let row = self.model.sample(RegionId(home as u8), &mut self.rng);
        self.next_id += 1;
        SimPublisher::with_phase(
            ClientId(self.next_id),
            row,
            rate,
            size_bytes,
            phase_ms(index, rate),
        )
    }

    fn subscriber(&mut self, home: usize) -> SimSubscriber {
        let row = self.model.sample(RegionId(home as u8), &mut self.rng);
        self.next_id += 1;
        SimSubscriber::new(ClientId(self.next_id), row)
    }
}

/// Homes for `counts[r]` clients per region, grouped by region.
fn homes_by_count(counts: &[usize]) -> impl Iterator<Item = usize> + '_ {
    counts.iter().enumerate().flat_map(|(region, &n)| std::iter::repeat_n(region, n))
}

/// Home of client `index` of a topic anchored at `primary`: three in five
/// at the primary region, the rest walking the other regions.
fn regional_home(primary: usize, index: usize, n_regions: usize) -> usize {
    if index % 5 < 3 {
        primary
    } else {
        (primary + 1 + index) % n_regions
    }
}

/// Builds the inputs of `workload` for `seed`.
pub fn build(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::WideRegions => wide_regions(seed),
        Workload::DenseClients => dense_clients(seed),
        Workload::ManyTopics => many_topics(seed),
        Workload::SimHeavy => sim_heavy(seed),
    }
}

/// Two big topics whose clients sit at `per_region` homes.
fn two_big_topics(
    workload: Workload,
    seed: u64,
    n_regions: usize,
    per_region: &[usize],
    constraints: [DeliveryConstraint; 2],
    duration_ms: f64,
) -> Inputs {
    let (regions, inter) = ec2::restricted_deployment(n_regions);
    let mut population = Population {
        model: ClientLatencyModel::new(&inter),
        rng: StdRng::seed_from_u64(stream_seed(seed, 1)),
        next_id: 0,
    };
    let topics = (0..2)
        .map(|t| {
            let publishers = homes_by_count(per_region)
                .enumerate()
                .map(|(i, home)| population.publisher(home, i, 1.0, 1024))
                .collect();
            let subscribers =
                homes_by_count(per_region).map(|home| population.subscriber(home)).collect();
            TopicScenario::new(
                TopicId::new(format!("{}-{t}", workload.name())),
                bootstrap(n_regions),
                publishers,
                subscribers,
            )
        })
        .collect();
    let scenario = Scenario::new(regions, inter.clone(), topics);
    Inputs {
        workload,
        scenario,
        constraints: constraints.to_vec(),
        jitter: Jitter::disabled(),
        duration_ms,
        reconfigure_at_ms: None,
        churn: None,
        engine_seed: stream_seed(seed, 2),
    }
}

fn wide_regions(seed: u64) -> Inputs {
    // Fig. 6a's headline point: 10 regions, 100 × 100 clients, <75 %, 150 ms>.
    // Client homes lean to the US and Europe as King's DNS servers do.
    const PER_REGION: [usize; 10] = [20, 10, 10, 15, 15, 8, 6, 6, 5, 5];
    let bound = constraint(75.0, 150.0);
    // 10 s at 1 msg/s: 2 × 100 × 10 × 100 = 200 k simulated deliveries.
    two_big_topics(Workload::WideRegions, seed, 10, &PER_REGION, [bound, bound], 10_000.0)
}

fn dense_clients(seed: u64) -> Inputs {
    // Fig. 6b's axis: few regions, many clients. 57 configurations of
    // 202 500 samples each; one message per publisher already simulates
    // 2 × 450 × 450 = 405 k deliveries.
    const PER_REGION: [usize; 5] = [130, 60, 60, 100, 100];
    // Topic 1's bound cannot be met: it takes the infeasible fallback and
    // the mitigation round on every interval.
    let bounds = [constraint(75.0, 150.0), constraint(95.0, 5.0)];
    two_big_topics(Workload::DenseClients, seed, 5, &PER_REGION, bounds, 1_000.0)
}

/// `(publishers, subscribers, message bytes)`; each entry sizes a tenth of
/// the topics of `many_topics`.
const SIZE_LADDER: [(usize, usize, u64); 10] = [
    (2, 5, 256),
    (2, 10, 256),
    (3, 10, 512),
    (3, 15, 512),
    (4, 15, 1024),
    (4, 20, 1024),
    (5, 20, 2048),
    (5, 25, 2048),
    (6, 25, 4096),
    (6, 30, 4096),
];

/// Bounds cycled over topics by index; the last is out of reach whenever a
/// topic's clients span regions, so about a quarter of topics are infeasible.
const MIXED_BOUNDS: [(f64, f64); 4] = [(75.0, 150.0), (90.0, 200.0), (95.0, 250.0), (99.0, 40.0)];

/// Spare subscribers a churned topic gains (and later loses again).
const SPARES_PER_TOPIC: usize = 2;

fn many_topics(seed: u64) -> Inputs {
    const TOPICS: usize = 2000;
    const N_REGIONS: usize = 6;
    let (regions, inter) = ec2::restricted_deployment(N_REGIONS);
    let mut population = Population {
        model: ClientLatencyModel::new(&inter),
        rng: StdRng::seed_from_u64(stream_seed(seed, 1)),
        next_id: 0,
    };
    // Which topic gets which ladder size is the seed's draw.
    let mut sizes: Vec<usize> = (0..TOPICS).map(|t| t % SIZE_LADDER.len()).collect();
    let mut shuffle = StdRng::seed_from_u64(stream_seed(seed, 3));
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, shuffle.random_range(0..i + 1));
    }
    let mut topics = Vec::with_capacity(TOPICS);
    let mut spares = Vec::with_capacity(TOPICS);
    for (t, &size) in sizes.iter().enumerate() {
        let (n_pubs, n_subs, bytes) = SIZE_LADDER[size];
        let primary = t % N_REGIONS;
        let publishers = (0..n_pubs)
            .map(|i| population.publisher(regional_home(primary, i, N_REGIONS), i, 1.0, bytes))
            .collect();
        let mut subscribers: Vec<_> = (0..n_subs)
            .map(|i| population.subscriber(regional_home(primary, i + 1, N_REGIONS)))
            .collect();
        let mut spare: Vec<_> = (0..SPARES_PER_TOPIC)
            .map(|i| population.subscriber(regional_home(primary, i + 3, N_REGIONS)))
            .collect();
        // Half the topics start with their spares subscribed, so churn finds
        // the population at its long-run size instead of growing into it.
        if t % 2 == 1 {
            subscribers.append(&mut spare);
        }
        spares.push(spare);
        topics.push(TopicScenario::new(
            TopicId::new(format!("t{t:04}")),
            bootstrap(N_REGIONS),
            publishers,
            subscribers,
        ));
    }
    let constraints =
        (0..TOPICS).map(|t| MIXED_BOUNDS[t % 4]).map(|(r, m)| constraint(r, m)).collect();
    Inputs {
        workload: Workload::ManyTopics,
        scenario: Scenario::new(regions, inter.clone(), topics),
        constraints,
        jitter: Jitter::disabled(),
        // 2 s at 1 msg/s: 2 × 160 k = 320 k simulated deliveries.
        duration_ms: 2_000.0,
        reconfigure_at_ms: None,
        churn: Some(Churn {
            rng: StdRng::seed_from_u64(stream_seed(seed, 4)),
            order: (0..TOPICS).collect(),
            spares,
            per_interval: TOPICS / 10,
        }),
        engine_seed: stream_seed(seed, 2),
    }
}

fn sim_heavy(seed: u64) -> Inputs {
    const TOPICS: usize = 60;
    const N_REGIONS: usize = 6;
    const DURATION_MS: f64 = 10_000.0;
    let (regions, inter) = ec2::restricted_deployment(N_REGIONS);
    let mut population = Population {
        model: ClientLatencyModel::new(&inter),
        rng: StdRng::seed_from_u64(stream_seed(seed, 1)),
        next_id: 0,
    };
    let topics = (0..TOPICS)
        .map(|t| {
            let primary = t % N_REGIONS;
            let publishers = (0..4)
                .map(|i| population.publisher(regional_home(primary, i, N_REGIONS), i, 20.0, 512))
                .collect();
            let subscribers = (0..30)
                .map(|i| population.subscriber(regional_home(primary, i + 1, N_REGIONS)))
                .collect();
            TopicScenario::new(
                TopicId::new(format!("feed{t:02}")),
                bootstrap(N_REGIONS),
                publishers,
                subscribers,
            )
        })
        .collect();
    // The fault windows are shape; only their random streams are seeded.
    let faults = FaultPlan::none()
        .with_loss_rate(0.01)
        .with_reorder(ReorderWindow::new(20.0, 1_500.0, 3_000.0))
        .with_outage(RegionOutage::new(RegionId(2), 4_000.0, 5_000.0))
        .with_duplicate(DuplicateDelivery::new(2, 7_000.0, 8_000.0));
    let constraints =
        (0..TOPICS).map(|t| MIXED_BOUNDS[t % 3]).map(|(r, m)| constraint(r, m)).collect();
    Inputs {
        workload: Workload::SimHeavy,
        scenario: Scenario::new(regions, inter.clone(), topics).with_fault_plan(faults),
        constraints,
        jitter: Jitter::uniform(5.0),
        // 10 s at 20 msg/s: 60 × 4 × 200 × 30 = 1.44 M deliveries before faults.
        duration_ms: DURATION_MS,
        reconfigure_at_ms: Some(DURATION_MS / 2.0),
        churn: None,
        engine_seed: stream_seed(seed, 2),
    }
}

/// Subscriber churn between observation intervals: each step a seeded
/// tenth of the topics either gains its spare subscribers or, if it holds
/// them already, loses them again — so the population stays in a fixed band.
#[derive(Debug)]
pub struct Churn {
    rng: StdRng,
    /// A permutation of the topic indices, reshuffled a prefix at a time.
    order: Vec<usize>,
    /// Per topic, the subscribers currently *not* subscribed.
    spares: Vec<Vec<SimSubscriber>>,
    per_interval: usize,
}

impl Churn {
    /// Applies one step to `scenario` and returns the churned topic indices.
    pub fn step(&mut self, scenario: &mut Scenario) -> Vec<usize> {
        let n = self.order.len();
        for i in 0..self.per_interval {
            let j = self.rng.random_range(i..n);
            self.order.swap(i, j);
        }
        let churned = self.order[..self.per_interval].to_vec();
        for &t in &churned {
            let topic = &scenario.topics()[t];
            let mut subscribers = topic.subscribers().to_vec();
            if self.spares[t].is_empty() {
                let keep = subscribers.len() - SPARES_PER_TOPIC;
                self.spares[t] = subscribers.split_off(keep);
            } else {
                subscribers.append(&mut self.spares[t]);
            }
            scenario.topics_mut()[t] = TopicScenario::new(
                topic.id().clone(),
                topic.configuration(),
                topic.publishers().to_vec(),
                subscribers,
            );
        }
        churned
    }
}
