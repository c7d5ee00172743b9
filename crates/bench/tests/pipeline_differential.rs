//! Differential golden suite: the declarative pipeline subsystem is
//! byte-identical to the pre-refactor hand-assembled stacks.
//!
//! Before the `Pipeline` subsystem, every Table III tool model was an
//! imperative `run_stack_cached` call over a hardcoded `&[&dyn Strategy]`
//! slice, and `Fetch` sequenced its four layers by hand. This suite
//! re-states those stacks literally (the golden side) and pins
//! [`Pipeline::for_tool`] / [`Fetch`] to them over the determinism
//! corpus: identical starts, provenance, layer order, and deterministic
//! trace deltas, for every tool, with shared and fresh engines.

use fetch_bench::{dataset2, BenchOpts};
use fetch_core::{
    run_stack, run_stack_cached, AlignmentSplit, ByteWeight, CallFrameRepair, ControlFlowRepair,
    DetectionResult, EntrySeed, FdeSeeds, Fetch, FlirtSignatures, FunctionMerge, LinearScanStarts,
    NucleusScan, PointerScan, PrologueMatch, SafeRecursion, Strategy, TailCallHeuristic,
    ThunkHeuristic, Tool, ToolStyle,
};
use fetch_disasm::RecEngine;
use fetch_synth::corpus::CorpusScale;
use fetch_tools::{angr_rejects, run_tool_with_engine};

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
/// slice the old `fetch-tools` builders assembled imperatively.
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
    if tool == Tool::Angr && angr_rejects(binary) {
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
            let declarative = run_tool_with_engine(tool, &case.binary, &mut engine);
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
    // All `Fetch::detect*` entry points are now one executor path; each
    // must still equal the old hand-sequenced pipeline, including the
    // ablation-knob variants (which drop layers, not reorder them).
    let cases = determinism_corpus();
    let case = &cases[cases.len() / 2];
    let mut engine = RecEngine::new();
    for (skip_scan, skip_repair) in [(false, false), (true, false), (false, true), (true, true)] {
        let fetch = Fetch {
            skip_pointer_scan: skip_scan,
            skip_repair,
        };
        let mut legacy_layers: Vec<&dyn Strategy> = vec![&FdeSeeds];
        let rec = SafeRecursion::default();
        legacy_layers.push(&rec);
        if !skip_scan {
            legacy_layers.push(&PointerScan);
        }
        let repair = CallFrameRepair::default();
        if !skip_repair {
            legacy_layers.push(&repair);
        }
        let legacy = run_stack_cached(&case.binary, &legacy_layers, &mut engine);
        assert_identical(
            &fetch.detect(&case.binary),
            &legacy,
            &format!("detect (skip_scan={skip_scan}, skip_repair={skip_repair})"),
        );
        assert_identical(
            &fetch.detect_with_engine(&case.binary, &mut engine),
            &legacy,
            "detect_with_engine",
        );
        let (with_report, report) = fetch.detect_with_report_engine(&case.binary, &mut engine);
        assert_identical(&with_report, &legacy, "detect_with_report_engine");
        if skip_repair {
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
