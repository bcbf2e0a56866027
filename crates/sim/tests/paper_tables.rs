//! The paper's Figures 3–5 at paper scale, pinned: the markdown tables
//! `paper_experiments 1 2 3` prints for experiments 1, 2 and 3 (Tokyo and
//! São Paulo) at their default parameters, diffed against
//! `paper_tables.txt`. Experiment 4 reports wall-clock times and stays out.

use multipub_sim::experiments::{exp1, exp2, exp3};

const GOLDEN: &str = include_str!("paper_tables.txt");

fn render() -> String {
    let sections = [
        (
            "Experiment 1 / Figure 3: MultiPub vs other approaches",
            exp1::run(&exp1::Exp1Params::default()).table(),
        ),
        (
            "Experiment 2 / Figure 4: direct vs routed delivery",
            exp2::run(&exp2::Exp2Params::default()).table(),
        ),
        ("Experiment 3 / Figure 5a: Asia (Tokyo)", exp3::run(&exp3::Exp3Params::asia()).table()),
        (
            "Experiment 3 / Figure 5b: South America (São Paulo)",
            exp3::run(&exp3::Exp3Params::south_america()).table(),
        ),
    ];
    sections
        .iter()
        .map(|(title, table)| format!("== {title} ==\n{}\n", table.to_markdown()))
        .collect()
}

#[test]
fn figures_3_to_5_match_the_committed_tables() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "the paper's tables differ from crates/sim/tests/paper_tables.txt; a change that \
         moves them on purpose replaces that file with these tables:\n{actual}"
    );
}
