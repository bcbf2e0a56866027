//! Shape assertions for the paper's figures (quick-scale populations):
//! who wins, in which order the curves sit, and where the regimes switch,
//! plus §III.A5's running example. EXPERIMENTS.md records the full-scale
//! numbers.

use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::{RegionId, TopicId};
use multipub_core::optimizer::Optimizer;
use multipub_data::ec2;
use multipub_netsim::engine::Engine;
use multipub_netsim::jitter::Jitter;
use multipub_netsim::scenario::Scenario;
use multipub_sim::experiments::{exp1, exp2, exp3};
use multipub_sim::population::{Population, PopulationSpec};

fn exp1_quick() -> exp1::Exp1Result {
    exp1::run(&exp1::Exp1Params {
        pubs_per_region: 3,
        subs_per_region: 3,
        step_ms: 10.0,
        max_t_end_ms: 260.0,
    })
}

#[test]
fn figure3_ordering_all_regions_fast_one_region_cheap() {
    let result = exp1_quick();
    assert!(result.all_regions.delivery_ms < result.one_region.delivery_ms);
    assert!(result.all_regions.cost_per_day > result.one_region.cost_per_day);
}

#[test]
fn figure3_multipub_interpolates_between_the_baselines() {
    let result = exp1_quick();
    for row in &result.rows {
        assert!(row.cost_per_day <= result.all_regions.cost_per_day + 1e-9);
        assert!(row.cost_per_day >= result.one_region.cost_per_day - 1e-9);
        if row.feasible {
            assert!(row.delivery_ms <= row.max_t_ms);
        }
    }
    // Tight end: as fast as the all-regions deployment can be required.
    let first = result.rows.first().unwrap();
    assert!(first.delivery_ms <= result.one_region.delivery_ms);
    // Loose end: converged to the one-region deployment.
    let last = result.rows.last().unwrap();
    assert_eq!(last.configuration.region_count(), 1);
    assert!((last.cost_per_day - result.one_region.cost_per_day).abs() < 1e-9);
}

#[test]
fn figure3_region_count_decreases_with_the_bound() {
    let result = exp1_quick();
    // Not strictly monotone point-to-point (ties can reorder), but the
    // tight end must use strictly more regions than the loose end.
    let first = result.rows.first().unwrap();
    let last = result.rows.last().unwrap();
    assert!(first.configuration.region_count() > last.configuration.region_count());
    // And MultiPub achieves real savings somewhere along the sweep.
    assert!(result.peak_saving_vs_all_regions() > 0.10, "expected >10% peak saving");
}

fn exp2_quick() -> exp2::Exp2Result {
    exp2::run(&exp2::Exp2Params {
        publishers: 20,
        asia_subscribers: 8,
        usa_subscribers: 8,
        step_ms: 10.0,
    })
}

#[test]
fn figure4_routed_reaches_lower_delivery_floor() {
    let result = exp2_quick();
    let routed_floor = result.min_delivery_ms(|r| &r.routed_only);
    let direct_floor = result.min_delivery_ms(|r| &r.direct_only);
    assert!(
        routed_floor < direct_floor,
        "routed floor {routed_floor} must undercut direct floor {direct_floor} \
         thanks to optimized inter-cloud links"
    );
}

#[test]
fn figure4_multipub_is_the_lower_cost_envelope() {
    let result = exp2_quick();
    let variants = result.multipub.iter().zip(&result.direct_only).zip(&result.routed_only);
    for ((multipub, direct), routed) in variants {
        assert!(multipub.cost_per_day <= direct.cost_per_day + 1e-9);
        assert!(multipub.cost_per_day <= routed.cost_per_day + 1e-9);
        // And never slower than required when a variant is feasible.
        if direct.feasible || routed.feasible {
            assert!(multipub.feasible);
        }
    }
}

#[test]
fn figure4_mode_switches_from_routed_to_direct_as_bound_relaxes() {
    let result = exp2_quick();
    // In the tight-bound regime where only routed is feasible, MultiPub
    // must pick routed.
    let mut variants = result.multipub.iter().zip(&result.direct_only).zip(&result.routed_only);
    let tight = variants.find(|((_, direct), routed)| routed.feasible && !direct.feasible);
    if let Some(((multipub, _), _)) = tight {
        assert_eq!(multipub.configuration.mode(), multipub_core::assignment::DeliveryMode::Routed);
    }
    // At the loose end the paper observes direct delivery with one region.
    let last = result.multipub.last().unwrap();
    assert_eq!(last.configuration.mode(), multipub_core::assignment::DeliveryMode::Direct);
}

fn exp3_quick(home: multipub_core::ids::RegionId, end: f64) -> exp3::Exp3Result {
    exp3::run(&exp3::Exp3Params {
        publishers: 15,
        subscribers: 15,
        step_ms: 20.0,
        ..exp3::Exp3Params {
            max_t_end_ms: end,
            ..if home == ec2::regions::AP_NORTHEAST_1 {
                exp3::Exp3Params::asia()
            } else {
                exp3::Exp3Params::south_america()
            }
        }
    })
}

#[test]
fn figure5a_tokyo_cost_arbitrage() {
    let result = exp3_quick(ec2::regions::AP_NORTHEAST_1, 300.0);
    // Tight bounds need the local (expensive) region.
    let first_feasible = result.rows.iter().find(|r| r.feasible).unwrap();
    assert!(first_feasible.configuration.assignment().contains(ec2::regions::AP_NORTHEAST_1));
    // Loose bounds find a cheaper remote configuration.
    let last = result.rows.last().unwrap();
    assert!(last.feasible);
    assert!(last.cost_per_day < result.local_only.cost_per_day);
    assert!(result.peak_saving() > 0.2, "Tokyo peak saving {:.2}", result.peak_saving());
}

#[test]
fn figure5b_sao_paulo_saves_more_than_tokyo() {
    let tokyo = exp3_quick(ec2::regions::AP_NORTHEAST_1, 300.0);
    let sao_paulo = exp3_quick(ec2::regions::SA_EAST_1, 350.0);
    assert!(
        sao_paulo.peak_saving() > tokyo.peak_saving(),
        "São Paulo ({:.2}) should save more than Tokyo ({:.2}) — its egress is pricier",
        sao_paulo.peak_saving(),
        tokyo.peak_saving()
    );
    assert!(sao_paulo.peak_saving() > 0.4);
}

#[test]
fn figure5_cost_is_monotone_in_the_bound() {
    let result = exp3_quick(ec2::regions::SA_EAST_1, 350.0);
    let feasible: Vec<_> = result.rows.iter().filter(|r| r.feasible).collect();
    for pair in feasible.windows(2) {
        assert!(pair[1].cost_per_day <= pair[0].cost_per_day + 1e-9);
    }
}

/// Every sweep of Figures 3–5: a feasible point meets its bound, and a
/// looser bound neither loses feasibility nor costs more.
#[test]
fn every_sweep_meets_its_bounds_and_never_costs_more_as_they_relax() {
    let exp2 = exp2_quick();
    let sweeps = [
        ("Fig. 3", exp1_quick().rows),
        ("Fig. 4 MultiPub", exp2.multipub),
        ("Fig. 4 MultiPub-D", exp2.direct_only),
        ("Fig. 4 MultiPub-R", exp2.routed_only),
        ("Fig. 5a", exp3_quick(ec2::regions::AP_NORTHEAST_1, 300.0).rows),
        ("Fig. 5b", exp3_quick(ec2::regions::SA_EAST_1, 350.0).rows),
    ];
    for (figure, points) in sweeps {
        for point in points.iter().filter(|point| point.feasible) {
            assert!(point.delivery_ms <= point.max_t_ms, "{figure}: {point:?}");
        }
        for pair in points.windows(2) {
            let (tight, loose) = (&pair[0], &pair[1]);
            assert!(loose.feasible || !tight.feasible, "{figure}: feasibility lost at {loose:?}");
            assert!(
                loose.cost_per_day <= tight.cost_per_day + 1e-9,
                "{figure}: cost rose from {} to {} at max_T {}",
                tight.cost_per_day,
                loose.cost_per_day,
                loose.max_t_ms
            );
        }
    }
}

/// §III.A5: a North-America-only topic is served from one region. Once
/// European clients join, EU↔EU publications would cross the Atlantic
/// twice, so the optimizer adds a European region, and its pick meets the
/// bound when simulated.
#[test]
fn paper_example_na_topic_gains_eu_clients() {
    let (regions, inter) = (ec2::region_set(), ec2::inter_region_latencies());
    let constraint = DeliveryConstraint::new(95.0, 140.0).unwrap();
    let (us, eu) = (ec2::regions::US_EAST_1, ec2::regions::EU_CENTRAL_1);
    let population = |homes: &[RegionId], seed| {
        let mut spec = PopulationSpec::uniform(10, 0, 0, 2.0, 512);
        for home in homes {
            spec.pubs_per_region[home.index()] = 3;
            spec.subs_per_region[home.index()] = 3;
        }
        Population::generate(&spec, &inter, seed)
    };
    let pick = |population: &Population| {
        let workload = population.workload(10.0);
        Optimizer::new(&regions, &inter, &workload).unwrap().solve(&constraint).configuration()
    };
    assert_eq!(pick(&population(&[us], 1)).region_count(), 1);

    let na_and_eu = population(&[us, eu], 2);
    let reacted = pick(&na_and_eu);
    let serves_eu = [ec2::regions::EU_WEST_1, eu].iter().any(|&r| reacted.assignment().contains(r));
    assert!(serves_eu && reacted.region_count() >= 2, "no EU region added: {reacted}");

    let topic = na_and_eu.scenario_topic(TopicId::new("t"), reacted, 1);
    let scenario = Scenario::new(regions.clone(), inter.clone(), vec![topic]);
    let measured = Engine::new(scenario, Jitter::disabled(), 1).run(10_000.0).percentile_ms(95.0);
    assert!(constraint.is_met_by(measured), "{reacted} measured p95 {measured} ms");
}
