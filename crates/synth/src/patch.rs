//! Corpus mutation: rebuild one function body in place.
//!
//! CI/CD re-submissions — the workload delta re-analysis serves — are
//! *versions* of a binary: same layout, one function's code changed.
//! [`patch_function`] produces exactly that from a synthesized
//! [`TestCase`], at three escalating blast radii chosen to land on the
//! three non-trivial tiers of `fetch_core::run_delta`:
//!
//! * [`PatchKind::Neutral`] rewrites the immediate of one
//!   `mov r32, imm` data constant to a different small constant — raw
//!   text bytes change, the masked semantic digest does not, and no
//!   detection layer can observe the difference (the *section reuse*
//!   tier).
//! * [`PatchKind::Behavioral`] rewrites such an immediate to *another
//!   function's entry address* — a semantic change (a new code
//!   constant the pointer scan may act on), forcing a cold run of the
//!   local (*recompute*) kind.
//! * [`PatchKind::Resize`] grows the function by one byte (`ret` →
//!   `nop; ret` into the alignment padding) and fixes up its FDE's
//!   `pc_range` — `.eh_frame` bytes change, so the diff is non-local
//!   and delta falls back to *cold*.
//!
//! Every mutation is verified by re-decoding the patched site before it
//! is returned; a candidate that fails verification is skipped. The
//! mutator is deterministic in `(case, seed, kind)`.

use fetch_binary::{Binary, FuncKind, Section, SectionKind, TestCase};
use fetch_ehframe::encode_eh_frame;
use fetch_x64::{decode, Op, Reg, Width};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How invasive a [`patch_function`] mutation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchKind {
    /// Change one data constant to another data constant: byte-different,
    /// semantically masked — no detector output can change.
    Neutral,
    /// Change one data constant to another function's entry address:
    /// the patched code now materializes a code pointer.
    Behavioral,
    /// Grow the function body by one byte into its alignment padding and
    /// bump the covering FDE's `pc_range` to match.
    Resize,
}

/// A patched version of a [`TestCase`]'s binary, plus where and what.
#[derive(Debug, Clone)]
pub struct FunctionPatch {
    /// The new version of the binary (same name, layout, and symbols).
    pub binary: Binary,
    /// Ground truth for the new version (part lengths follow a
    /// [`PatchKind::Resize`]).
    pub truth: fetch_binary::GroundTruth,
    /// The mutation that was applied.
    pub kind: PatchKind,
    /// Entry of the function whose body was rebuilt.
    pub function: u64,
    /// The changed `.text` byte range `[start, end)`.
    pub window: (u64, u64),
}

/// A `mov r32, imm32` site eligible for immediate rewriting: the
/// immediate occupies the last four instruction bytes, the destination
/// is not `rdi` (whose immediates feed the `error()` non-return slice),
/// and the value is a small data constant, not an address.
struct ImmSite {
    /// Instruction start.
    addr: u64,
    /// Address of the first immediate byte (instruction end − 4).
    imm_addr: u64,
    reg: Reg,
    imm: i32,
}

fn imm_sites(binary: &Binary, start: u64, end: u64) -> Vec<ImmSite> {
    let text = binary.text();
    let mut sites = Vec::new();
    let mut addr = start;
    while addr < end {
        let Some(window) = text.slice_from(addr) else {
            break;
        };
        let Ok(inst) = decode(window, addr) else {
            break; // data-in-text: stop scanning this body
        };
        if inst.end() > end {
            break;
        }
        if let Op::MovRI(Width::W32, reg, imm) = inst.op {
            if reg != Reg::Rdi && imm > 0 && imm < 0x10000 {
                sites.push(ImmSite {
                    addr,
                    imm_addr: inst.end() - 4,
                    reg,
                    imm,
                });
            }
        }
        addr = inst.end();
    }
    sites
}

fn with_patched_section(binary: &Binary, kind: SectionKind, bytes: Vec<u8>) -> Binary {
    let mut out = binary.clone();
    for s in &mut out.sections {
        if s.kind == kind {
            *s = Section::new(kind, s.addr, bytes);
            break;
        }
    }
    out
}

/// Rewrites the 4-byte immediate at `imm_addr` and verifies the patched
/// site still decodes to the same instruction shape with the new value.
fn rewrite_imm(binary: &Binary, site: &ImmSite, new_imm: i32) -> Option<Binary> {
    let text = binary.text();
    let off = (site.imm_addr - text.addr) as usize;
    let mut bytes = text.bytes.to_vec();
    bytes[off..off + 4].copy_from_slice(&new_imm.to_le_bytes());
    let patched = with_patched_section(binary, SectionKind::Text, bytes);
    let inst = decode(patched.text().slice_from(site.addr)?, site.addr).ok()?;
    match inst.op {
        Op::MovRI(Width::W32, r, v)
            if r == site.reg && v == new_imm && inst.end() == site.imm_addr + 4 =>
        {
            Some(patched)
        }
        _ => None,
    }
}

/// Produces a new version of `case.binary` with one function body
/// rebuilt, per `kind`. Deterministic in `(case, seed, kind)`.
///
/// Returns `None` when no function offers a verifiable patch site of
/// the requested kind (tiny corpora without eligible `mov` sites or
/// padding); callers should try another seed or configuration.
pub fn patch_function(case: &TestCase, seed: u64, kind: PatchKind) -> Option<FunctionPatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        PatchKind::Neutral | PatchKind::Behavioral => patch_imm(case, &mut rng, kind),
        PatchKind::Resize => patch_resize(case, &mut rng),
    }
}

fn patch_imm(case: &TestCase, rng: &mut StdRng, kind: PatchKind) -> Option<FunctionPatch> {
    let binary = &case.binary;
    // Rotate the candidate order by the seed so different seeds patch
    // different functions.
    let n = case.truth.functions.len();
    if n == 0 {
        return None;
    }
    let rot = rng.gen_range(0..n);
    for i in 0..n {
        let f = &case.truth.functions[(i + rot) % n];
        if f.kind != FuncKind::Compiled {
            continue;
        }
        for part in &f.parts {
            let sites = imm_sites(binary, part.start, part.end());
            if sites.is_empty() {
                continue;
            }
            let site = &sites[rng.gen_range(0..sites.len())];
            let new_imm = match kind {
                PatchKind::Neutral => {
                    let mut v = rng.gen_range(1..0x10000i32);
                    if v == site.imm {
                        v = if v == 1 { 2 } else { v - 1 };
                    }
                    v
                }
                PatchKind::Behavioral => {
                    // Another function's entry: always a `.text` address,
                    // and synthesized images load low enough to fit i32.
                    let target = case.truth.functions[rng.gen_range(0..n)].entry();
                    if target > i32::MAX as u64 || target as i32 == site.imm {
                        continue;
                    }
                    target as i32
                }
                PatchKind::Resize => unreachable!(),
            };
            let Some(patched) = rewrite_imm(binary, site, new_imm) else {
                continue;
            };
            return Some(FunctionPatch {
                binary: patched,
                truth: case.truth.clone(),
                kind,
                function: f.entry(),
                window: (site.imm_addr, site.imm_addr + 4),
            });
        }
    }
    None
}

fn patch_resize(case: &TestCase, rng: &mut StdRng) -> Option<FunctionPatch> {
    let binary = &case.binary;
    let text = binary.text();
    let eh = binary.eh_frame().ok()?;
    let part_starts = case.truth.part_starts();
    let n = case.truth.functions.len();
    if n == 0 {
        return None;
    }
    let rot = rng.gen_range(0..n);
    for i in 0..n {
        let fi = (i + rot) % n;
        let f = &case.truth.functions[fi];
        if f.kind != FuncKind::Compiled {
            continue;
        }
        for (pi, part) in f.parts.iter().enumerate() {
            if !part.has_fde || part.len == 0 {
                continue;
            }
            // The byte we grow into must be padding: inside `.text`,
            // before the next part, and not the start of anything.
            let pad = part.end();
            if !text.contains(pad) || part_starts.contains(&pad) {
                continue;
            }
            let ret_addr = part.end() - 1;
            let ret_off = (ret_addr - text.addr) as usize;
            if text.bytes[ret_off] != 0xC3 {
                continue; // body doesn't end in a plain `ret`
            }
            // Only consume a byte that looks like alignment filler (nop
            // encodings start 0x90/0x66/0x0f; mislabel padding is int3).
            if !matches!(text.bytes[ret_off + 1], 0x90 | 0x66 | 0x0f | 0xcc) {
                continue;
            }
            // ret → nop; ret (one byte longer).
            let mut bytes = text.bytes.to_vec();
            bytes[ret_off] = 0x90;
            bytes[ret_off + 1] = 0xC3;
            // Fix up the covering FDE's pc_range.
            let mut eh2 = eh.clone();
            let mut fixed = false;
            for (_, fdes) in &mut eh2.groups {
                for fde in fdes.iter_mut() {
                    if fde.pc_begin == part.start && fde.pc_range == part.len {
                        fde.pc_range += 1;
                        fixed = true;
                    }
                }
            }
            if !fixed {
                continue;
            }
            let eh_section = binary.section(SectionKind::EhFrame)?;
            let eh_bytes = encode_eh_frame(&eh2, eh_section.addr).ok()?;
            let patched = with_patched_section(
                &with_patched_section(binary, SectionKind::Text, bytes),
                SectionKind::EhFrame,
                eh_bytes,
            );
            // Verify: the rebuilt `.eh_frame` parses and covers the ret.
            let reparsed = patched.eh_frame().ok()?;
            if !reparsed.pc_begins().contains(&part.start) {
                continue;
            }
            let mut truth = case.truth.clone();
            truth.functions[fi].parts[pi].len += 1;
            return Some(FunctionPatch {
                binary: patched,
                truth,
                kind: PatchKind::Resize,
                function: f.entry(),
                window: (ret_addr, ret_addr + 2),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SynthConfig};

    #[test]
    fn neutral_patch_changes_text_only() {
        let case = synthesize(&SynthConfig::small(17));
        let p = patch_function(&case, 3, PatchKind::Neutral).expect("site exists");
        assert_eq!(p.kind, PatchKind::Neutral);
        assert_ne!(p.binary.text().bytes, case.binary.text().bytes);
        assert_eq!(p.binary.symbols, case.binary.symbols);
        assert_eq!(
            p.binary.section(SectionKind::EhFrame).map(|s| &s.bytes),
            case.binary.section(SectionKind::EhFrame).map(|s| &s.bytes),
        );
        // Only the 4 immediate bytes moved.
        let (a, b) = (&case.binary.text().bytes, &p.binary.text().bytes);
        assert_eq!(a.len(), b.len());
        let diff: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        assert!(!diff.is_empty() && diff.len() <= 4, "diff: {diff:?}");
        let lo = case.binary.text().addr + diff[0] as u64;
        assert!(p.window.0 <= lo && lo < p.window.1);
    }

    #[test]
    fn behavioral_patch_materializes_a_code_address() {
        let case = synthesize(&SynthConfig::small(18));
        let p = patch_function(&case, 4, PatchKind::Behavioral).expect("site exists");
        // The new immediate is a function entry inside .text.
        let off = (p.window.0 - p.binary.text().addr) as usize;
        let imm = i32::from_le_bytes(p.binary.text().bytes[off..off + 4].try_into().unwrap());
        assert!(p.binary.is_code(imm as u64));
        assert!(case.truth.is_start(imm as u64));
    }

    #[test]
    fn resize_patch_grows_body_and_fde_together() {
        let case = synthesize(&SynthConfig::small(19));
        let p = patch_function(&case, 5, PatchKind::Resize).expect("padding exists");
        let old = case.truth.function_at(p.function).unwrap();
        let new = p.truth.function_at(p.function).unwrap();
        let grown: Vec<_> = old
            .parts
            .iter()
            .zip(&new.parts)
            .filter(|(o, n)| o.len != n.len)
            .collect();
        assert_eq!(grown.len(), 1);
        assert_eq!(grown[0].0.len + 1, grown[0].1.len);
        // The FDE tracks the new length.
        let eh = p.binary.eh_frame().unwrap();
        let covered = eh
            .groups
            .iter()
            .flat_map(|(_, f)| f)
            .any(|fde| fde.pc_begin == grown[0].1.start && fde.pc_range == grown[0].1.len);
        assert!(covered);
        // Text grew by zero bytes (we consumed padding), eh_frame changed.
        assert_eq!(p.binary.text().bytes.len(), case.binary.text().bytes.len());
        assert_ne!(
            p.binary.section(SectionKind::EhFrame).map(|s| &s.bytes),
            case.binary.section(SectionKind::EhFrame).map(|s| &s.bytes),
        );
    }

    #[test]
    fn patches_are_deterministic() {
        let case = synthesize(&SynthConfig::small(20));
        for kind in [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize] {
            let a = patch_function(&case, 9, kind);
            let b = patch_function(&case, 9, kind);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.binary, b.binary);
                assert_eq!(a.window, b.window);
            }
        }
    }
}
