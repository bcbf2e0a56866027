//! Randomized cross-validation on seeded inputs: for random populations,
//! configurations, rates and phases, the discrete-event simulator must
//! agree exactly with the analytic evaluator (jitter disabled), and the
//! heuristic solver must stay within the exact solver's envelope. Every
//! assertion names its seed; the case replays from that seed alone.

use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::evaluate::TopicEvaluator;
use multipub_core::heuristic::{solve_heuristic, HeuristicOptions};
use multipub_core::ids::{ClientId, TopicId};
use multipub_core::optimizer::Optimizer;
use multipub_data::ec2;
use multipub_netsim::engine::Engine;
use multipub_netsim::jitter::Jitter;
use multipub_netsim::scenario::{Scenario, SimPublisher, SimSubscriber, TopicScenario};
use multipub_sim::population::{Population, PopulationSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DURATION_MS: f64 = 4_000.0;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=64;

/// 0–2 publishers and 0–2 subscribers homed at each of the ten EC2
/// regions (at least one of each), every publisher at 0.5–8 msg/s.
fn random_population(rng: &mut StdRng) -> Population {
    let mut placement = || (0..10).map(|_| rng.random_range(0..3usize)).collect::<Vec<_>>();
    let (mut pubs_per_region, mut subs_per_region) = (placement(), placement());
    if pubs_per_region.iter().sum::<usize>() == 0 {
        pubs_per_region[3] = 1;
    }
    if subs_per_region.iter().sum::<usize>() == 0 {
        subs_per_region[7] = 1;
    }
    let spec = PopulationSpec {
        pubs_per_region,
        subs_per_region,
        rate_per_sec: rng.random_range(0.5..8.0),
        size_bytes: 700,
    };
    Population::generate(&spec, &ec2::inter_region_latencies(), rng.next_u64())
}

/// Runs `topic` through the evaluator and the simulator and asserts that
/// they agree on the delivery count, the percentile at `ratio` and the cost.
fn assert_agreement(topic: TopicScenario, ratio: f64, context: &str) {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    // With fractional rates and random phases a publisher's message count
    // depends on its phase; the scenario's own workload counts emissions.
    let workload = topic.workload(regions.len(), DURATION_MS);
    let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
    let constraint = DeliveryConstraint::new(ratio, 500.0).unwrap();
    let predicted = evaluator.evaluate(topic.configuration(), &constraint);

    let scenario = Scenario::new(regions.clone(), inter, vec![topic]);
    let report = Engine::new(scenario, Jitter::disabled(), 5).run(DURATION_MS);

    assert_eq!(report.delivery_count(), workload.total_deliveries(), "{context}");
    let measured = report.percentile_ms(ratio);
    assert!(
        (predicted.percentile_ms() - measured).abs() < 1e-6,
        "{context}: percentile predicted {} vs measured {measured}",
        predicted.percentile_ms()
    );
    let measured_cost = report.cost_dollars(&regions);
    assert!(
        (predicted.cost_dollars() - measured_cost).abs()
            <= predicted.cost_dollars().abs() * 1e-9 + 1e-15,
        "{context}: cost predicted {} vs measured {measured_cost}",
        predicted.cost_dollars()
    );
}

#[test]
fn netsim_reproduces_the_analytic_model() {
    assert_agreement(recorded_case(), 10.0, "the recorded case");
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let population = random_population(&mut rng);
        let mask = rng.random_range(1..1024usize) as u32;
        let mode = [DeliveryMode::Direct, DeliveryMode::Routed][rng.random_range(0..2usize)];
        let configuration =
            Configuration::new(AssignmentVector::from_mask(mask, 10).unwrap(), mode);
        let ratio = rng.random_range(10.0..100.0);
        let topic = population.scenario_topic(TopicId::new("t"), configuration, rng.next_u64());
        assert_agreement(topic, ratio, &format!("seed {seed}, {configuration}, ratio {ratio}"));
    }
}

/// The case a failure once shrank to, before the check counted emissions
/// with `TopicScenario::workload`: four publishers at a rate whose period
/// does not divide the run, one subscriber, R0 alone, direct, ratio 10.
/// Phases a quarter period apart leave the last publisher one message
/// short of `rate × duration`.
fn recorded_case() -> TopicScenario {
    const RATE: f64 = 7.159437154961423;
    let publishers: [[f64; 10]; 4] = [
        [
            178.1677737725262,
            144.35146962667892,
            136.5895259699838,
            149.9843545265015,
            147.02460961712774,
            79.15463491554874,
            87.25413740243025,
            34.31331435630606,
            92.13909359972935,
            247.221304377737,
        ],
        [
            145.35126305258046,
            110.33693518794634,
            102.64463282208781,
            193.38370993218743,
            203.63464148508496,
            84.12578486384935,
            106.08302054382386,
            69.38806116621173,
            13.715426414629004,
            213.49724260616355,
        ],
        [
            138.06106376821504,
            183.78579074984788,
            174.74426313688872,
            181.9352109851791,
            188.07312099191194,
            229.2025594178424,
            247.3793508933211,
            273.9920871392675,
            259.7972974247693,
            61.90318768598667,
        ],
        [
            88.84049308957296,
            137.26856510357632,
            128.5399808849325,
            136.3263397727059,
            141.3889759538574,
            183.54150890581468,
            200.43049830735453,
            228.5367591699673,
            213.02980879989374,
            14.764802234432258,
        ],
    ];
    let subscriber = vec![
        155.68411930909065,
        123.35303547128795,
        115.4039636476871,
        125.68798669434517,
        122.35573319299031,
        53.919919456738505,
        63.98164323349408,
        9.72998271919644,
        70.12043038037939,
        227.67554154277897,
    ];
    let period_ms = 1000.0 / RATE;
    let publishers = (0..4)
        .zip(publishers)
        .map(|(i, row)| {
            let phase_ms = i as f64 * period_ms / 4.0;
            SimPublisher::with_phase(ClientId(i), row.to_vec(), RATE, 700, phase_ms)
        })
        .collect();
    let subscribers = vec![SimSubscriber::new(ClientId(4), subscriber)];
    let r0 = AssignmentVector::from_mask(1, 10).unwrap();
    let configuration = Configuration::new(r0, DeliveryMode::Direct);
    let topic = TopicScenario::new(TopicId::new("t"), configuration, publishers, subscribers);
    let counts: Vec<u64> =
        topic.workload(10, DURATION_MS).publishers().iter().map(|p| p.batch().count()).collect();
    assert_eq!(counts, [29, 29, 29, 28]);
    topic
}

#[test]
fn heuristic_stays_within_the_exact_envelope() {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = random_population(&mut rng).workload(10.0);
        let max_t = rng.random_range(60.0..400.0);
        let context = format!("seed {seed}, max_T {max_t} ms");
        let constraint = DeliveryConstraint::new(75.0, max_t).unwrap();
        let exact = Optimizer::new(&regions, &inter, &workload).unwrap().solve(&constraint);
        let heuristic =
            solve_heuristic(&regions, &inter, &workload, &constraint, &HeuristicOptions::default())
                .unwrap();
        // The heuristic may be suboptimal but never impossibly good.
        if exact.is_feasible() && heuristic.is_feasible() {
            assert!(
                heuristic.evaluation().cost_dollars() >= exact.evaluation().cost_dollars() - 1e-12,
                "{context}"
            );
        }
        // If the exact solver says nothing is feasible, the heuristic
        // cannot claim otherwise (it searches a subset of configurations).
        if !exact.is_feasible() {
            assert!(!heuristic.is_feasible(), "{context}");
        }
        // And it must evaluate far fewer configurations than 2·(2^10−1)−10.
        assert!(heuristic.configurations_considered() < 600, "{context}");
    }
}
