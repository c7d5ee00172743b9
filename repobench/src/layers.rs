//! The per-layer metric catalogue, the traced core pipeline, and the
//! `cold_scan` workload.

use crate::daemon::{cpu_ms, peak_rss_mb};
use crate::inputs::{Corpus, PassOrder};
use crate::stats::{median, sort, Metric};
use crate::trace::{SpanId, Tracer};
use crate::{secs, Accuracy, Args, Report, Timed};
use fetch_binary::{Binary, ElfImage};
use fetch_core::{DetectionResult, DetectionState, LayerSpec, Pipeline};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run prints, with its unit. A metric
/// ending in `_us` is the median self time per call of the span named
/// without that suffix. Layers a workload does not exercise read 0.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("binary.load_us", "us"),
    ("core.fde_us", "us"),
    ("core.rec_us", "us"),
    ("core.xref_us", "us"),
    ("core.tcallfix_us", "us"),
    ("disasm.decoded_insts", "count"),
    ("disasm.decode_hit_ratio", "ratio"),
    ("core.xref_accept_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("core.fingerprint_us", "us"),
    ("serve.render_us", "us"),
    ("serve.reply_bytes", "bytes"),
    ("serve.handle_cache_us", "us"),
    ("serve.handle_store_us", "us"),
    ("serve.handle_delta_us", "us"),
    ("serve.handle_cold_us", "us"),
    ("serve.store_load_us", "us"),
    ("serve.store_save_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.ops_cache", "count"),
    ("serve.ops_store", "count"),
    ("serve.ops_delta", "count"),
    ("serve.ops_cold", "count"),
    ("serve.errors", "count"),
    ("serve.store_errors", "count"),
    ("core.digest_us", "us"),
    ("core.diff_us", "us"),
    ("core.delta_us", "us"),
    ("core.delta_reuse_ratio", "ratio"),
    ("core.serial_bytes", "bytes"),
    ("bench.traced_ops", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`CATALOGUE`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            CATALOGUE.iter().any(|(n, _)| *n == name),
            "{name} is not in the per-layer catalogue"
        );
        self.0.insert(name, value);
    }

    /// Sets every `_us` metric whose span the tracer recorded to that
    /// span's median self time.
    pub fn set_span_medians(&mut self, tracer: &Tracer) {
        let selfs = tracer.self_times_us();
        for (name, _) in CATALOGUE {
            if let Some(mut v) = name.strip_suffix("_us").and_then(|s| selfs.get(s)).cloned() {
                sort(&mut v);
                self.set(name, median(&v).expect("recorded spans"));
            }
        }
    }

    /// Every catalogued metric, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        CATALOGUE
            .iter()
            .map(|(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The span name of one core layer of the FETCH stack.
fn layer_span(spec: &LayerSpec) -> &'static str {
    match spec.id() {
        "FDE" => "core.fde",
        "Rec" => "core.rec",
        "Xref" => "core.xref",
        "TcallFix" => "core.tcallfix",
        _ => "core.other",
    }
}

/// Parses an ELF image into a binary: the `binary.load` layer.
pub fn load(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    op: u64,
    elf: &[u8],
) -> Result<Binary, String> {
    let span = tr.begin("binary.load", parent, op);
    let image = ElfImage::parse(elf.to_vec()).map_err(|e| format!("ELF does not parse: {e}"))?;
    let binary = image.to_binary();
    tr.end(span);
    Ok(binary)
}

/// Runs `Pipeline::fetch()` cold on `binary`, one `LayerSpec::apply` per
/// span — the same steps as `Pipeline::run`.
pub fn run_layers(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    op: u64,
    binary: &Binary,
) -> DetectionResult {
    let mut state = DetectionState::new(binary);
    for spec in Pipeline::fetch().specs() {
        let span = tr.begin(layer_span(spec), parent, op);
        spec.apply(&mut state);
        tr.end(span);
    }
    state.into_result()
}

/// Per-op work counters read from a result's layer trace:
/// (decoded instructions, decode-cache hits, Xref candidates checked,
/// Xref starts added).
pub fn work_counts(result: &DetectionResult) -> (u64, u64, u64, u64) {
    let mut c = (0, 0, 0, 0);
    for t in &result.trace {
        c.0 += t.decode_misses;
        c.1 += t.decode_hits;
        if t.name == "Xref" {
            c.2 += t.candidates_checked;
            c.3 += t.added.len() as u64;
        }
    }
    c
}

/// Sets the `disasm.*` and `core.xref_accept_ratio` counts from one
/// result per distinct input, so they repeat exactly.
pub fn set_work_counts<'a>(
    layers: &mut Layers,
    results: impl Iterator<Item = &'a DetectionResult>,
) {
    let (mut n, mut misses, mut hits, mut cands, mut added) = (0u64, 0, 0, 0, 0);
    for r in results {
        let c = work_counts(r);
        n += 1;
        misses += c.0;
        hits += c.1;
        cands += c.2;
        added += c.3;
    }
    layers.set("disasm.decoded_insts", misses as f64 / n.max(1) as f64);
    layers.set(
        "disasm.decode_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("core.xref_accept_ratio", added as f64 / cands.max(1) as f64);
}

/// Ops per tracing chunk: traced runs alternate traced and untraced
/// chunks of this many ops, so both see the same op mix.
pub const CHUNK: usize = 32;

/// Tracing overhead in percent from the two halves' busy time.
pub fn overhead_pct(traced: (usize, Duration), untraced: (usize, Duration)) -> f64 {
    let rate = |(ops, t): (usize, Duration)| ops as f64 / t.as_secs_f64().max(1e-9);
    (1.0 - rate(traced) / rate(untraced)) * 100.0
}

/// `cold_scan`: the paper's batch use. Each op takes one corpus binary,
/// in seeded passes, from ELF bytes through the FETCH stack in this
/// thread.
pub fn cold_scan(args: &Args, setups: usize) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut corpus = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        corpus = Some(Corpus::build(args.seed));
        setup_s.push(secs(t0));
    }
    let corpus = corpus.expect("at least one set-up");
    eprintln!(
        "repobench: cold_scan corpus: {} binaries, {} bytes",
        corpus.len(),
        corpus.bytes()
    );

    let mut tracer = Tracer::new(false);
    let mut order = PassOrder::new(corpus.len(), args.seed);
    let mut latency_us = Vec::new();
    let mut first: HashMap<usize, DetectionResult> = HashMap::new();
    let mut ops_on = vec![0u64; corpus.len()];
    let mut wrong_ops = vec![0u64; corpus.len()];
    let mut halves = [(0usize, Duration::ZERO); 2];
    let pid = std::process::id();
    let cpu0 = cpu_ms(pid).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    while Instant::now() < deadline {
        let i = order.next().expect("corpus is not empty");
        let traced = args.trace && (op as usize / CHUNK) % 2 == 1;
        tracer.set_enabled(traced);
        let start = Instant::now();
        let root = tracer.begin("op", None, op);
        let result = load(&mut tracer, root, op, &corpus.elves[i])
            .map(|binary| run_layers(&mut tracer, root, op, &binary));
        tracer.end(root);
        let took = start.elapsed();
        latency_us.push(took.as_secs_f64() * 1e6);
        let half = &mut halves[usize::from(traced)];
        half.0 += 1;
        half.1 += took;
        ops_on[i] += 1;
        match result {
            Ok(r) => match first.get(&i) {
                Some(f) if f.starts != r.starts => wrong_ops[i] += 1,
                Some(_) => {}
                None => {
                    first.insert(i, r);
                }
            },
            Err(_) => wrong_ops[i] += 1,
        }
        op += 1;
    }
    let wall_s = secs(t0);
    let cpu = cpu_ms(pid).map_err(|e| e.to_string())? - cpu0;
    tracer.set_enabled(false);

    // Answer check: every input's answer against an independent cold
    // run on the synthesized binary (no ELF round trip) and against
    // ground truth. Inputs the timed phase never reached are run now,
    // so the accuracy set is always the whole corpus.
    let mut accuracy = Accuracy::default();
    let mut failed = 0;
    for (i, case) in corpus.cases.iter().enumerate() {
        let reference = Pipeline::fetch().run(&case.binary);
        let answer = match first.remove(&i) {
            Some(r) => r,
            None => load(&mut tracer, None, 0, &corpus.elves[i])
                .map(|b| run_layers(&mut tracer, None, 0, &b))?,
        };
        // A wrong first answer makes every op on that input wrong.
        failed += if answer.starts == reference.starts {
            wrong_ops[i]
        } else {
            ops_on[i]
        };
        accuracy.add(&fetch_metrics::evaluate(&answer.start_set(), case));
        first.insert(i, answer);
    }

    let mut layers = Layers::default();
    if args.trace {
        layers.set_span_medians(&tracer);
        set_work_counts(&mut layers, first.values());
        layers.set("bench.traced_ops", halves[1].0 as f64);
        layers.set(
            "bench.trace_overhead_pct",
            overhead_pct(halves[1], halves[0]),
        );
        crate::write_spans(args, &tracer)?;
    }
    Ok(Report {
        setup_s,
        timed: Timed {
            latency_us,
            wall_s,
            cpu_ms: cpu,
            peak_rss_mb: peak_rss_mb(pid).map_err(|e| e.to_string())?,
            failed,
        },
        accuracy,
        problems: Vec::new(),
        layers,
    })
}
