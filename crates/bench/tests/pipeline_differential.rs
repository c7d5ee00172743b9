//! Differential golden suite: the declarative pipeline subsystem is
//! byte-identical to the pre-refactor hand-assembled stacks.
//!
//! Before the `Pipeline` subsystem, every Table III tool model was an
//! imperative `run_stack_cached` call over a hardcoded `&[&dyn Strategy]`
//! slice, and the FETCH detector sequenced its four layers by hand. This
//! suite re-states those stacks literally (the golden side) and pins
//! [`Tool::run`] / [`Pipeline::fetch`] to them over the determinism
//! corpus: identical starts, provenance, layer order, and deterministic
//! trace deltas, for every tool, with shared and fresh engines.

use fetch_bench::{dataset2, BenchOpts};
use fetch_core::{
    run_stack, run_stack_cached, AlignmentSplit, ByteWeight, CallFrameRepair, ControlFlowRepair,
    DetectionResult, DetectionState, EntrySeed, FdeSeeds, FlirtSignatures, FunctionMerge,
    LinearScanStarts, NucleusScan, Pipeline, PointerScan, PrologueMatch, SafeRecursion, Strategy,
    TailCallHeuristic, ThunkHeuristic, Tool, ToolStyle,
};
use fetch_disasm::RecEngine;
use fetch_synth::corpus::CorpusScale;

/// The same corpus shape the batch-determinism suite sweeps.
fn determinism_corpus() -> Vec<fetch_binary::TestCase> {
    let opts = BenchOpts {
        scale: CorpusScale {
            bin_divisor: 48,
            func_scale: 0.25,
        },
        ..BenchOpts::default()
    };
    dataset2(&opts)
}

/// The pre-refactor tool stacks, verbatim: each is the `&[&dyn Strategy]`
/// slice the old tool-model builders assembled imperatively.
fn legacy_stack(tool: Tool) -> Vec<Box<dyn Strategy>> {
    match tool {
        Tool::Dyninst => vec![
            Box::new(EntrySeed),
            Box::new(SafeRecursion::default()),
            Box::new(PrologueMatch {
                style: ToolStyle::Radare,
            }),
            Box::new(PrologueMatch {
                style: ToolStyle::Angr,
            }),
        ],
        Tool::Bap => vec![Box::new(EntrySeed), Box::new(ByteWeight)],
        Tool::Radare2 => vec![
            Box::new(EntrySeed),
            Box::new(SafeRecursion::default()),
            Box::new(PrologueMatch {
                style: ToolStyle::Radare,
            }),
        ],
        Tool::Nucleus => vec![Box::new(EntrySeed), Box::new(NucleusScan)],
        Tool::IdaPro => vec![
            Box::new(EntrySeed),
            Box::new(SafeRecursion::default()),
            Box::new(FlirtSignatures),
        ],
        Tool::BinaryNinja => vec![
            Box::new(EntrySeed),
            Box::new(SafeRecursion::default()),
            Box::new(TailCallHeuristic {
                style: ToolStyle::Ghidra,
            }),
            Box::new(PrologueMatch {
                style: ToolStyle::Angr,
            }),
            Box::new(AlignmentSplit),
        ],
        Tool::Ghidra => vec![
            Box::new(FdeSeeds),
            Box::new(SafeRecursion::default()),
            Box::new(ControlFlowRepair),
            Box::new(ThunkHeuristic),
            Box::new(PrologueMatch {
                style: ToolStyle::Ghidra,
            }),
        ],
        Tool::Angr => vec![
            Box::new(FdeSeeds),
            Box::new(SafeRecursion::default()),
            Box::new(FunctionMerge),
            Box::new(PrologueMatch {
                style: ToolStyle::Angr,
            }),
            Box::new(LinearScanStarts),
            Box::new(AlignmentSplit),
        ],
        // The old `Fetch::apply_pipeline` sequence: FDE, Rec, Xref,
        // TcallFix.
        Tool::Fetch => vec![
            Box::new(FdeSeeds),
            Box::new(SafeRecursion::default()),
            Box::new(PointerScan),
            Box::new(CallFrameRepair::default()),
        ],
    }
}

fn run_legacy(tool: Tool, binary: &fetch_binary::Binary) -> Option<DetectionResult> {
    if tool.fails_to_open(&binary.name) {
        return None;
    }
    let stack = legacy_stack(tool);
    let refs: Vec<&dyn Strategy> = stack.iter().map(|s| s.as_ref()).collect();
    Some(run_stack(binary, &refs))
}

/// Strict canonical comparison: `==` (starts, layers, deterministic
/// trace deltas) plus a rendering of the fully deterministic projection,
/// so a `PartialEq` bug could not silently weaken the suite.
fn assert_identical(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a, b, "{what}: results diverged");
    let canon = |r: &DetectionResult| {
        let deltas: Vec<_> = r
            .trace
            .iter()
            .map(|t| (t.name, &t.added, &t.removed, t.starts_after))
            .collect();
        format!("{:?} | {:?} | {:?}", r.starts, r.layers, deltas)
    };
    assert_eq!(canon(a), canon(b), "{what}: canonical form diverged");
}

#[test]
fn for_tool_pipelines_match_pre_refactor_stacks() {
    let cases = determinism_corpus();
    assert!(cases.len() >= 8, "corpus too small to be representative");
    for tool in Tool::ALL {
        // One engine carried across the whole corpus per tool — the
        // production configuration of the batch driver.
        let mut engine = RecEngine::new();
        for case in &cases {
            let declarative = tool.run(&case.binary, &mut engine);
            let legacy = run_legacy(tool, &case.binary);
            match (declarative, legacy) {
                (Some(d), Some(l)) => {
                    assert_identical(&d, &l, &format!("{tool} on {}", case.binary.name))
                }
                (None, None) => {}
                (d, l) => panic!(
                    "{tool} on {}: loader-failure model diverged ({} vs {})",
                    case.binary.name,
                    d.is_some(),
                    l.is_some()
                ),
            }
        }
    }
}

#[test]
fn fetch_entry_points_match_pre_refactor_sequence() {
    // The FETCH pipeline — run fresh, on a shared engine, and with the
    // repair report taken off the state — must still equal the old
    // hand-sequenced pipeline, including the ablation variants (which
    // drop layers, not reorder them).
    let cases = determinism_corpus();
    let case = &cases[cases.len() / 2];
    let mut engine = RecEngine::new();
    for (no_scan, no_repair) in [(false, false), (true, false), (false, true), (true, true)] {
        let fetch = Pipeline::parse(&format!(
            "FDE+Rec{}{}",
            if no_scan { "" } else { "+Xref" },
            if no_repair { "" } else { "+TcallFix" }
        ))
        .unwrap();
        let mut legacy_layers: Vec<&dyn Strategy> = vec![&FdeSeeds];
        let rec = SafeRecursion::default();
        legacy_layers.push(&rec);
        if !no_scan {
            legacy_layers.push(&PointerScan);
        }
        let repair = CallFrameRepair::default();
        if !no_repair {
            legacy_layers.push(&repair);
        }
        let legacy = run_stack_cached(&case.binary, &legacy_layers, &mut engine);
        assert_identical(
            &fetch.run(&case.binary),
            &legacy,
            &format!("run (no_scan={no_scan}, no_repair={no_repair})"),
        );
        assert_identical(
            &fetch.run_with_engine(&case.binary, &mut engine),
            &legacy,
            "run_with_engine",
        );
        let mut state = DetectionState::with_engine(&case.binary, std::mem::take(&mut engine));
        fetch.apply(&mut state);
        let report = state.take_repair_report().unwrap_or_default();
        let (with_report, used) = state.into_result_with_engine();
        engine = used;
        assert_identical(&with_report, &legacy, "apply + take_repair_report");
        if no_repair {
            // No repair layer ran: the report must be the empty default.
            assert!(report.merged.is_empty() && report.tail_calls.is_empty());
            assert!(report.bad_fdes_removed.is_empty());
            assert_eq!(report.skipped_incomplete, 0);
        } else {
            // The report is the repair layer's: its removals are exactly
            // the TcallFix trace's net removed starts.
            let tcall_trace = with_report.trace.last().expect("repair ran");
            assert_eq!(tcall_trace.name, "TcallFix");
            let mut reported: Vec<u64> = report
                .merged
                .iter()
                .map(|(removed, _)| *removed)
                .chain(report.bad_fdes_removed.iter().copied())
                .collect();
            reported.sort_unstable();
            let traced: Vec<u64> = tcall_trace.removed.iter().map(|(a, _)| *a).collect();
            assert_eq!(reported, traced, "report/trace removal mismatch");
        }
    }
}
