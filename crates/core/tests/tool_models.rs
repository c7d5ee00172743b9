//! The nine Table III tool models, run through [`Tool::run`]: the
//! paper's shape (who wins on false positives and negatives), ANGR's
//! loader-failure model, and the engine, image and cache compositions
//! every harness builds on.

use fetch_binary::{write_elf, ElfImage, TestCase};
use fetch_core::{image_fingerprint, AnalysisCache, Pipeline, Tool};
use fetch_disasm::RecEngine;
use fetch_synth::{synthesize, SynthConfig};
use std::collections::{BTreeMap, BTreeSet};

fn eval(tool: Tool, case: &TestCase) -> Option<(usize, usize)> {
    let r = tool.run(&case.binary, &mut RecEngine::new())?;
    let truth = case.truth.starts();
    let found = r.start_set();
    let fp = found.difference(&truth).count();
    let fn_ = truth.difference(&found).count();
    Some((fp, fn_))
}

fn corpus() -> Vec<TestCase> {
    (0..6u64)
        .map(|seed| {
            let mut cfg = SynthConfig::small(seed * 131 + 7);
            cfg.n_funcs = 120;
            cfg.rates.split_cold = 0.05;
            // Real binaries carry plenty of data in text (string
            // literals, literal pools, jump tables) — the raw
            // material of the pattern-matchers' false positives.
            cfg.rates.data_in_text = 0.25;
            cfg.rates.asm_funcs = if seed == 0 { 12 } else { 0 };
            cfg.rates.bad_thunks = 2;
            synthesize(&cfg)
        })
        .collect()
}

#[test]
fn shared_engine_matches_fresh_engines() {
    // One engine carried across all nine tool models on one binary
    // must change no result — the cross-tool decode-cache guarantee.
    let case = &corpus()[2];
    let mut engine = RecEngine::new();
    for tool in Tool::ALL {
        let shared = tool.run(&case.binary, &mut engine);
        let fresh = tool.run(&case.binary, &mut RecEngine::new());
        assert_eq!(shared, fresh, "{tool} diverges with a shared engine");
    }
}

#[test]
fn image_path_matches_owned_binary_for_every_tool() {
    // Zero-copy images must be observationally identical to owned
    // binaries across all nine models, including ANGR's name-keyed
    // loader-failure model.
    let case = &corpus()[0];
    let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
    assert_eq!(image.load_stats().section_bytes_copied, 0);
    let mut binary = image.to_binary();
    binary.name = case.binary.name.clone();
    let mut engine = RecEngine::new();
    for tool in Tool::ALL {
        let via_image = tool.run(&binary, &mut engine);
        let via_binary = tool.run(&case.binary, &mut RecEngine::new());
        assert_eq!(via_image, via_binary, "{tool} diverges on the image path");
    }
}

#[test]
fn cached_image_path_matches_cold_runs() {
    // The serving path: a shared cache across a two-round tool sweep
    // must hand back results identical to the uncached path, hitting
    // on every second-round lookup. ANGR's loader-failure model runs
    // before the cache, so a rejection is never cached.
    let case = &corpus()[3];
    let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
    let mut binary = image.to_binary();
    binary.name = case.binary.name.clone();
    let cache = AnalysisCache::new();
    let mut engine = RecEngine::new();
    for round in 0..2 {
        for tool in Tool::ALL {
            let cached = (!tool.fails_to_open(&binary.name)).then(|| {
                let pipeline = Pipeline::for_tool(tool);
                cache.get_or_compute(image_fingerprint(&image), &pipeline.id(), || {
                    pipeline.run_with_engine(&binary, &mut engine)
                })
            });
            let cold = tool.run(&binary, &mut engine);
            assert_eq!(
                cached.map(|r| (*r).clone()),
                cold,
                "{tool} diverges through the cache (round {round})"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, stats.misses as usize);
    assert!(
        stats.hits >= stats.misses,
        "second round must hit: {stats:?}"
    );
}

#[test]
fn every_tool_runs() {
    let case = &corpus()[1];
    for tool in Tool::ALL {
        if tool.fails_to_open(&case.binary.name) {
            continue;
        }
        let r = tool
            .run(&case.binary, &mut RecEngine::new())
            .expect("tool runs");
        assert!(!r.is_empty(), "{tool} found nothing");
    }
}

#[test]
fn fetch_has_best_false_positive_count() {
    let cases = corpus();
    let mut totals: BTreeMap<Tool, (usize, usize)> = Default::default();
    for case in &cases {
        for tool in Tool::ALL {
            if let Some((fp, fn_)) = eval(tool, case) {
                let e = totals.entry(tool).or_default();
                e.0 += fp;
                e.1 += fn_;
            }
        }
    }
    let (fetch_fp, fetch_fn) = totals[&Tool::Fetch];
    for (tool, (fp, _)) in totals.iter().filter(|(t, _)| **t != Tool::Fetch) {
        assert!(
            fetch_fp <= *fp,
            "FETCH fp {fetch_fp} must not exceed {tool} fp {fp}"
        );
    }
    // And FETCH's miss count is minimal or tied.
    for (tool, (_, fn_)) in &totals {
        if !matches!(tool, Tool::Fetch | Tool::Angr) {
            assert!(
                fetch_fn <= *fn_ + 2,
                "FETCH fn {fetch_fn} ~ best vs {tool} fn {fn_}"
            );
        }
    }
}

#[test]
fn fde_tools_beat_non_fde_tools_on_misses() {
    let cases = corpus();
    let mut fde_fn = 0usize;
    let mut nofde_fn = 0usize;
    for case in &cases {
        for tool in [Tool::Ghidra, Tool::Fetch] {
            if let Some((_, fn_)) = eval(tool, case) {
                fde_fn += fn_;
            }
        }
        for tool in [Tool::Dyninst, Tool::Radare2] {
            if let Some((_, fn_)) = eval(tool, case) {
                nofde_fn += fn_;
            }
        }
    }
    assert!(
        fde_fn * 4 < nofde_fn,
        "call-frame tools miss far less ({fde_fn} vs {nofde_fn})"
    );
}

#[test]
fn bap_is_noisiest() {
    let cases = corpus();
    let mut fp: BTreeMap<Tool, usize> = Default::default();
    for case in &cases {
        for tool in [Tool::Bap, Tool::Radare2, Tool::IdaPro] {
            if let Some((f, _)) = eval(tool, case) {
                *fp.entry(tool).or_default() += f;
            }
        }
    }
    assert!(fp[&Tool::Bap] > fp[&Tool::Radare2]);
    assert!(fp[&Tool::Bap] > fp[&Tool::IdaPro]);
}

#[test]
fn angr_misses_almost_nothing() {
    let cases = corpus();
    let mut angr_fn = 0usize;
    let mut total = 0usize;
    for case in &cases {
        if let Some((_, fn_)) = eval(Tool::Angr, case) {
            angr_fn += fn_;
            total += case.truth.len();
        }
    }
    assert!(total > 0);
    assert!(
        angr_fn * 100 <= total,
        "angr finds ~everything: {angr_fn} misses of {total}"
    );
}

#[test]
fn angr_loader_failures_are_rare_and_deterministic() {
    // The model reads only the display name.
    let mut rejected = BTreeSet::new();
    for i in 0..1500u32 {
        if Tool::Angr.fails_to_open(&format!("bin-{i}")) {
            rejected.insert(i);
        }
    }
    assert!(!rejected.is_empty() && rejected.len() < 25);
}
