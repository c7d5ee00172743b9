//! Figure 5: number of binaries with full coverage / full accuracy under
//! each strategy stack — panels (a) GHIDRA, (b) ANGR, (c) optimal.
//!
//! Each panel is declarative data: a handful of [`Pipeline`]s plus rows
//! that name a *prefix* of one of them. Shared prefixes (`FDE`,
//! `FDE+Rec`) are never re-run — the executor's per-layer trace replays
//! ([`fetch_core::DetectionResult::starts_after_layer`]) reconstruct the
//! start set after any prefix from the full run, so a six-row panel
//! costs as many pipeline executions as it has *distinct full stacks*.
//!
//! Run with `--panel a|b|c` (default: all three).

use fetch_bench::{banner, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::TestCase;
use fetch_core::{Pipeline, Tool};
use fetch_metrics::{evaluate, Aggregate, BinaryEval, TextTable};

/// A panel: the distinct full pipelines to execute, and the printed rows
/// as `(label, pipeline index, prefix depth)`.
struct Panel {
    pipelines: Vec<Pipeline>,
    rows: Vec<(&'static str, usize, usize)>,
}

fn pipelines(specs: &[&str]) -> Vec<Pipeline> {
    specs
        .iter()
        .map(|s| Pipeline::parse(s).expect("panel spec parses"))
        .collect()
}

fn ghidra_panel() -> Panel {
    Panel {
        pipelines: pipelines(&[
            "FDE+Rec+CFR",
            "FDE+Rec+Fsig.ghidra",
            "FDE+Rec+Tcall.ghidra",
            "FDE+Rec+Thunk",
        ]),
        rows: vec![
            ("FDE", 0, 1),
            ("FDE+Rec+CFR", 0, 3),
            ("FDE+Rec", 0, 2),
            ("FDE+Rec+Fsig", 1, 3),
            ("FDE+Rec+Tcall", 2, 3),
            ("FDE+Rec+Thunk", 3, 3),
        ],
    }
}

fn angr_panel() -> Panel {
    Panel {
        pipelines: pipelines(&[
            "FDE+Rec+Fmerg",
            "FDE+Rec+Fsig.angr",
            "FDE+Rec+Scan",
            "FDE+Rec+Tcall.angr",
            "FDE+Rec+Align",
        ]),
        rows: vec![
            ("FDE", 0, 1),
            ("FDE+Rec+Fmerg", 0, 3),
            ("FDE+Rec", 0, 2),
            ("FDE+Rec+Fsig", 1, 3),
            ("FDE+Rec+Scan", 2, 3),
            ("FDE+Rec+Tcall", 3, 3),
            ("FDE+Rec+Align", 4, 3),
        ],
    }
}

fn optimal_panel() -> Panel {
    Panel {
        pipelines: pipelines(&["FDE+Rec+Xref+TcallFix"]),
        rows: vec![
            ("FDE", 0, 1),
            ("FDE+Rec", 0, 2),
            ("FDE+Rec+Xref", 0, 3),
            ("FDE+Rec+Xref+Tcall", 0, 4),
        ],
    }
}

fn run_panel(
    title: &str,
    panel: Panel,
    cases: &[TestCase],
    reference: &[(&str, u64, u64)],
    skip_angr_failures: bool,
    driver: &BatchDriver,
) {
    banner(title);
    let usable: Vec<TestCase> = if skip_angr_failures {
        cases
            .iter()
            .filter(|c| !Tool::Angr.fails_to_open(&c.binary.name))
            .cloned()
            .collect()
    } else {
        cases.to_vec()
    };
    println!("binaries evaluated: {}\n", usable.len());

    // Every distinct full pipeline of the panel runs on the binary's
    // worker back-to-back (the decode cache built by the first stack's
    // FDE walk is replayed by all the others); prefix rows are then
    // evaluated by replaying each run's trace — no re-execution.
    let panel_ref = &panel;
    let evals_per_case: Vec<Vec<BinaryEval>> = driver.run(&usable, |engine, case| {
        let runs: Vec<_> = panel_ref
            .pipelines
            .iter()
            .map(|p| p.run_with_engine(&case.binary, engine))
            .collect();
        panel_ref
            .rows
            .iter()
            .map(|&(_, pipeline_ix, depth)| {
                let starts = runs[pipeline_ix].starts_after_layer(depth);
                evaluate(&starts.keys().copied().collect(), case)
            })
            .collect()
    });

    let mut table = TextTable::new([
        "Strategy",
        "Full Coverage",
        "Full Accuracy",
        "(paper cov)",
        "(paper acc)",
    ]);
    for (ri, (label, _, _)) in panel.rows.iter().enumerate() {
        let mut agg = Aggregate::new();
        for evals in &evals_per_case {
            agg.add(&evals[ri]);
        }
        let (pc, pa) = reference
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, c, a)| (c.to_string(), a.to_string()))
            .unwrap_or(("-".into(), "-".into()));
        table.row([
            label.to_string(),
            agg.full_coverage.to_string(),
            agg.full_accuracy.to_string(),
            pc,
            pa,
        ]);
    }
    println!("{table}");
}

fn main() {
    let opts = opts_from_args();
    let panel = std::env::args()
        .skip_while(|a| a != "--panel")
        .nth(1)
        .unwrap_or_else(|| "all".into());
    let cases = dataset2(&opts);
    let driver = BatchDriver::from_opts(&opts);

    if panel == "a" || panel == "all" {
        run_panel(
            "Figure 5a — GHIDRA strategy stacks (paper: of 1,352 binaries)",
            ghidra_panel(),
            &cases,
            &paper::FIG5A,
            false,
            &driver,
        );
    }
    if panel == "b" || panel == "all" {
        run_panel(
            "Figure 5b — ANGR strategy stacks (paper: of 1,343 binaries)",
            angr_panel(),
            &cases,
            &paper::FIG5B,
            true,
            &driver,
        );
    }
    if panel == "c" || panel == "all" {
        run_panel(
            "Figure 5c — optimal strategy stacks (paper: of 1,352 binaries)",
            optimal_panel(),
            &cases,
            &paper::FIG5C,
            false,
            &driver,
        );
    }
    println!(
        "Shape checks: Rec lifts coverage over FDE with no accuracy cost;\n\
         CFR and Fmerg *reduce* coverage; Fsig/Scan/Tcall crater accuracy;\n\
         the optimal stack's repair step lifts accuracy far above every\n\
         other combination at a tiny coverage cost."
    );
}
