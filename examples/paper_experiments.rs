//! Regenerates every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! cargo run --release --example paper_experiments            # everything
//! cargo run --release --example paper_experiments -- 1       # Figure 3 only
//! cargo run --release --example paper_experiments -- 3 --quick
//! ```
//!
//! `--quick` shrinks populations and sweeps for a fast smoke run; omit it
//! to reproduce the paper-scale settings.

use multipub_sim::experiments::{exp1, exp2, exp3, exp4};
use multipub_sim::table::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<u32> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let wants = |n: u32| selected.is_empty() || selected.contains(&n);

    println!("MultiPub paper experiments (quick = {quick})\n");

    if wants(0) {
        print_table_i();
    }
    if wants(1) {
        run_exp1(quick);
    }
    if wants(2) {
        run_exp2(quick);
    }
    if wants(3) {
        run_exp3(quick);
    }
    if wants(4) {
        run_exp4(quick);
    }
}

fn print_table_i() {
    println!("== Table I: EC2 outgoing bandwidth costs ==");
    let regions = multipub_data::ec2::region_set();
    let mut table = Table::new(["R", "Region", "Location", "$EC2", "$Inet"]);
    for (id, region) in regions.iter() {
        table.push_row([
            format!("R{}", id.index() + 1),
            region.name().to_string(),
            region.location().to_string(),
            format!("{}", region.inter_region_cost_per_gb()),
            format!("{}", region.internet_cost_per_gb()),
        ]);
    }
    println!("{}", table.to_markdown());
}

fn run_exp1(quick: bool) {
    println!("== Experiment 1 / Figure 3: MultiPub vs other approaches ==");
    let params = if quick {
        exp1::Exp1Params {
            pubs_per_region: 3,
            subs_per_region: 3,
            step_ms: 10.0,
            ..Default::default()
        }
    } else {
        exp1::Exp1Params::default()
    };
    let result = exp1::run(&params);
    println!("{}", result.table().to_markdown());
    println!(
        "Peak MultiPub saving vs All Regions: {:.0}% (paper: 28%)\n",
        result.peak_saving_vs_all_regions() * 100.0
    );
}

fn run_exp2(quick: bool) {
    println!("== Experiment 2 / Figure 4: direct vs routed delivery ==");
    let params = if quick {
        exp2::Exp2Params { publishers: 20, asia_subscribers: 8, usa_subscribers: 8, step_ms: 10.0 }
    } else {
        exp2::Exp2Params::default()
    };
    let result = exp2::run(&params);
    println!("{}", result.table().to_markdown());
    println!(
        "Min delivery: MultiPub-R {:.0} ms vs MultiPub-D {:.0} ms (paper: 94 vs 110)\n",
        result.min_delivery_ms(|r| &r.routed_only),
        result.min_delivery_ms(|r| &r.direct_only)
    );
}

fn run_exp3(quick: bool) {
    for (label, mut params, paper) in [
        ("Figure 5a: Asia (Tokyo)", exp3::Exp3Params::asia(), 36),
        ("Figure 5b: South America (São Paulo)", exp3::Exp3Params::south_america(), 65),
    ] {
        println!("== Experiment 3 / {label} ==");
        if quick {
            params.publishers = 20;
            params.subscribers = 20;
            params.step_ms = 25.0;
        }
        let result = exp3::run(&params);
        println!("{}", result.table().to_markdown());
        println!(
            "Peak saving vs local-only: {:.0}% (paper: {paper}%)\n",
            result.peak_saving() * 100.0
        );
    }
}

fn run_exp4(quick: bool) {
    println!("== Experiment 4 / Figure 6: runtime analysis ==");
    println!("-- Figure 6a: clients scale (10 regions) --");
    let a = if quick {
        exp4::run_scaling_clients(10, 40, 10)
    } else {
        exp4::run_scaling_clients(10, 100, 10)
    };
    println!("{}", a.table().to_markdown());
    println!("-- Figure 6b: regions scale (100+100 clients) --");
    let b = if quick {
        exp4::run_scaling_regions(30, 2, 8)
    } else {
        exp4::run_scaling_regions(100, 2, 10)
    };
    println!("{}", b.table().to_markdown());
    println!("-- Asymmetric settings --");
    let c = if quick {
        exp4::run_asymmetric(&[(10, 100), (100, 10)])
    } else {
        exp4::run_asymmetric(&[(10, 1000), (1000, 10)])
    };
    println!("{}", c.table().to_markdown());
}
