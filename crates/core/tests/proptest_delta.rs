//! Differential soundness of delta re-analysis: every tier of
//! [`run_delta`] must be **byte-identical** to a cold run of the same
//! pipeline on the new binary.
//!
//! The fallbacks (`Recompute` for a local change, `Cold` otherwise) are
//! plain cold runs; the load-bearing claims here are the
//! *verbatim-reuse* tiers:
//!
//! * tier 1 (*unchanged*): an identical resubmission returns the old
//!   result untouched, under **any** pipeline;
//! * tier 2 (*section reuse*): a semantically-masked text patch
//!   ([`PatchKind::Neutral`]) returns the old result untouched, under
//!   any [`Pipeline::delta_safe`] pipeline — i.e. the
//!   [`fetch_core::LayerSpec::delta_safe`] whitelist really is
//!   invariant under immediate masking.
//!
//! The suite drives random corpora × random patches (all three
//! [`PatchKind`]s) × random pipelines drawn from [`KNOWN_LAYERS`]
//! (including non-delta-safe, byte-scanning layers, which must demote
//! tier 2 to a recompute), with the engine both cold and pre-warmed on
//! the *old* version (the pooled-engine shape the serving layer uses).

use fetch_binary::{write_elf, Binary, ElfImage};
use fetch_core::{image_fingerprint, run_delta, DeltaClass, ImageDigest, Pipeline, KNOWN_LAYERS};
use fetch_disasm::RecEngine;
use fetch_synth::{
    patch_function, synthesize, FeatureRates, FunctionPatch, PatchKind, SynthConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

fn digest_of(binary: &Binary) -> ImageDigest {
    let image = ElfImage::parse(write_elf(binary)).unwrap();
    ImageDigest::compute(binary, image_fingerprint(&image))
}

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 20usize..70, 0.0f64..0.12, 0usize..8).prop_map(|(seed, n_funcs, split, asm)| {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = n_funcs;
        cfg.rates = FeatureRates {
            split_cold: split,
            asm_funcs: asm,
            ..FeatureRates::default()
        };
        cfg
    })
}

/// A random layer stack over the full spec registry — including the
/// byte-scanning layers the incremental suite's pool omits, because
/// *their* misclassification as delta-safe is exactly what this suite
/// exists to catch.
fn pipeline_from(picks: &[u8]) -> Pipeline {
    Pipeline::new(
        picks
            .iter()
            .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
            .collect(),
    )
}

/// First verifiable patch of `kind` within a few seeds of `seed`; many
/// corpora have no eligible site for a given kind (no spare padding, no
/// rewritable immediate), and skipping those quietly keeps the case
/// budget honest instead of discarding whole proptest cases.
fn find_patch(case: &fetch_binary::TestCase, seed: u64, kind: PatchKind) -> Option<FunctionPatch> {
    (0..6).find_map(|i| patch_function(case, seed.wrapping_add(i), kind))
}

/// The core differential: `run_delta` from (old result, old digest) to
/// the patched binary must match a from-scratch cold run, and must land
/// on the tier the patch kind was designed to provoke.
fn check_patch(old: &Binary, patch: &FunctionPatch, pipeline: &Pipeline, warm_engine: bool) {
    let old_digest = digest_of(old);
    let mut engine = RecEngine::new();
    let prev = Arc::new(if warm_engine {
        // Leave the engine keyed warm to the *old* version, as a pooled
        // serving engine would be — the fallback must not misread it.
        pipeline.run_with_engine(old, &mut engine)
    } else {
        pipeline.run(old)
    });
    let new_digest = digest_of(&patch.binary);
    let out = run_delta(
        pipeline,
        &prev,
        Some(&old_digest),
        &patch.binary,
        &new_digest,
        &mut engine,
    );
    let cold = pipeline.run(&patch.binary);
    prop_assert_eq!(
        &*out.result,
        &cold,
        "delta ({:?}, warm={}) diverged from cold under {:?} for {}",
        out.class,
        warm_engine,
        patch.kind,
        pipeline.id()
    );
    let expected = match patch.kind {
        PatchKind::Neutral if pipeline.delta_safe() => DeltaClass::SectionReuse,
        PatchKind::Neutral | PatchKind::Behavioral => DeltaClass::Recompute,
        PatchKind::Resize => DeltaClass::Cold,
    };
    prop_assert_eq!(
        out.class,
        expected,
        "patch {:?} under {} (delta_safe={})",
        patch.kind,
        pipeline.id(),
        pipeline.delta_safe()
    );
    if out.class.is_hit() {
        prop_assert!(Arc::ptr_eq(&out.result, &prev), "hit must be verbatim");
        prop_assert!(out.sections_reused > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora × all three patch kinds × random pipelines:
    /// delta == cold, on the designed tier, cold- and warm-engine.
    #[test]
    fn delta_equals_cold_for_random_patches(
        cfg in arb_config(),
        patch_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 1..5),
    ) {
        let case = synthesize(&cfg);
        let pipeline = pipeline_from(&picks);
        for kind in [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize] {
            let Some(patch) = find_patch(&case, patch_seed, kind) else {
                continue;
            };
            let warm = patch_seed % 2 == 0;
            check_patch(&case.binary, &patch, &pipeline, warm);
        }
    }

    /// An identical resubmission is tier 1 under *any* pipeline: the
    /// old `Arc` comes back untouched and every text bucket is reused.
    #[test]
    fn identical_resubmission_is_verbatim_under_any_pipeline(
        cfg in arb_config(),
        picks in proptest::collection::vec(any::<u8>(), 1..5),
    ) {
        let case = synthesize(&cfg);
        let pipeline = pipeline_from(&picks);
        let digest = digest_of(&case.binary);
        let prev = Arc::new(pipeline.run(&case.binary));
        let mut engine = RecEngine::new();
        let out = run_delta(&pipeline, &prev, Some(&digest), &case.binary, &digest, &mut engine);
        prop_assert_eq!(out.class, DeltaClass::Unchanged);
        prop_assert!(Arc::ptr_eq(&out.result, &prev));
        prop_assert_eq!(out.sections_reused, digest.text_bucket_count());
    }

    /// A predecessor stored before digests existed (`prev_digest:
    /// None`) drops to tier 4 and still matches cold — the
    /// backward-compat path a healed v1 store entry takes.
    #[test]
    fn missing_digest_falls_cold_and_matches(
        cfg in arb_config(),
        patch_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let case = synthesize(&cfg);
        let Some(patch) = find_patch(&case, patch_seed, PatchKind::Neutral) else {
            return;
        };
        let pipeline = pipeline_from(&picks);
        let prev = Arc::new(pipeline.run(&case.binary));
        let new_digest = digest_of(&patch.binary);
        let mut engine = RecEngine::new();
        let out = run_delta(&pipeline, &prev, None, &patch.binary, &new_digest, &mut engine);
        prop_assert_eq!(out.class, DeltaClass::Cold);
        prop_assert_eq!(out.sections_reused, 0);
        prop_assert_eq!(&*out.result, &pipeline.run(&patch.binary));
    }
}

/// A version chain of FETCH runs through [`run_delta`] with one shared
/// (pooled) engine: v0 → neutral v1 → back to v0 → behavioral v2 →
/// resized v3. Each hop's answer must equal a fresh-engine cold run on
/// that version's image, and each hop's digest is what the next hop
/// deltas against — the exact contract the serving layer's `reanalyze`
/// path depends on.
#[test]
fn fetch_delta_chain_matches_cold_at_every_version() {
    let case = synthesize(&SynthConfig::small(11));
    let v1 = patch_function(&case, 7, PatchKind::Neutral).expect("neutral site");
    let v2 = patch_function(&case, 9, PatchKind::Behavioral).expect("behavioral site");
    let v3 = (0..32)
        .find_map(|s| patch_function(&case, s, PatchKind::Resize))
        .expect("resize site");

    let fetch = Pipeline::fetch();
    let image_of = |b: &Binary| ElfImage::parse(write_elf(b)).unwrap();
    let cold_of = |b: &Binary| fetch.run(&image_of(b).to_binary());

    let mut engine = RecEngine::new();
    let v0_image = image_of(&case.binary);
    let mut prev = Arc::new(fetch.run_with_engine(&v0_image.to_binary(), &mut engine));
    let mut prev_digest = ImageDigest::compute(&case.binary, image_fingerprint(&v0_image));

    let hops = [
        (&v1.binary, DeltaClass::SectionReuse),
        (&case.binary, DeltaClass::SectionReuse),
        (&v2.binary, DeltaClass::Recompute),
        (&v3.binary, DeltaClass::Cold),
    ];
    for (version, expected) in hops {
        let image = image_of(version);
        let binary = image.to_binary();
        let digest = ImageDigest::compute(&binary, image_fingerprint(&image));
        let out = run_delta(
            &fetch,
            &prev,
            Some(&prev_digest),
            &binary,
            &digest,
            &mut engine,
        );
        assert_eq!(out.class, expected, "wrong tier at {version:p}");
        assert_eq!(
            *out.result,
            cold_of(version),
            "hop {expected:?} diverged from cold"
        );
        prev = out.result;
        prev_digest = digest;
    }
}
