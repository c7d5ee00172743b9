//! The daemon workloads, `serve_repeat` and `rebuild_delta`.
//!
//! Both drive a separate `fetch-serve` process over one persistent
//! Unix-socket connection, one request at a time (closed loop, one
//! client). The traced run replays the same seeded op sequence
//! in-process through `parse_request` → `handle_with_id` →
//! `to_line_with`, with spans around each call and around probes of
//! the core functions the handler uses.

use crate::daemon::{cpu_ms, peak_rss_mb, Conn, Daemon};
use crate::inputs::{fnv, version_pool, Corpus, PassOrder, Version, Zipf};
use crate::layers::{load, overhead_pct, run_layers, Layers, CHUNK};
use crate::stats::{median, sort};
use crate::trace::{SpanId, Tracer};
use crate::{secs, Accuracy, Args, Report, RunDir, Timed};
use fetch_binary::{ElfImage, TestCase};
use fetch_core::{
    diff_digests, image_fingerprint, run_delta, serialize_result_with_digest, CacheCapacity,
    DetectionResult, ImageDigest, Pipeline,
};
use fetch_disasm::RecEngine;
use fetch_serve::json::Json;
use fetch_serve::protocol::{
    parse_hex_u64, parse_request, result_json, AnalyzeInput, Reply, Request,
};
use fetch_serve::service::{AnalysisService, ServeConfig};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve_repeat` cache bound: below the 174-binary working set, so the
/// run mixes cache hits with store hits.
const REPEAT_CACHE: usize = 32;
/// Zipf exponent of `serve_repeat` popularity.
const ZIPF_S: f64 = 1.0;
/// `rebuild_delta` cache bound; every op adds an entry, so it must be
/// bounded to keep daemon memory flat.
const REBUILD_CACHE: usize = 64;
/// Distinct patched versions generated per binary and patch kind: the
/// pool (about 20900 versions) must outlast a timed phase, since a
/// repeat would be a cache hit.
const VERSIONS_PER_KIND: usize = 40;
/// `rebuild_delta` accuracy set: the originals plus this many versions
/// from the head of the sequence, sent even if the timed phase stops
/// earlier, so precision and recall repeat exactly.
const ACCURACY_VERSIONS: usize = 300;
/// Fresh connections timed for `serve.connect_us`.
const CONNECT_PROBES: usize = 30;

/// The `result` object and `source` token of an analyze reply line;
/// `None` for an error reply. Replies render keys in sorted order, so
/// `source` directly follows `result`.
fn reply_parts(line: &str) -> Option<(&str, &str)> {
    let r = line.find("\"result\":")? + "\"result\":".len();
    let s = line[r..].find(",\"source\":\"")? + r;
    let tok = s + ",\"source\":\"".len();
    let end = line[tok..].find('"')? + tok;
    Some((&line[r..s], &line[tok..end]))
}

/// The fingerprint an analyze reply was keyed under.
fn reply_fingerprint(line: &str) -> Option<u64> {
    let f = line.find("\"fingerprint\":\"")? + "\"fingerprint\":\"".len();
    let end = line[f..].find('"')? + f;
    parse_hex_u64(&line[f..end])
}

/// The start addresses of a rendered `result` object.
fn result_starts(result: &str) -> BTreeSet<u64> {
    Json::parse(result)
        .ok()
        .and_then(|j| match j.get("starts") {
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .filter_map(|pair| match pair {
                        Json::Arr(p) => p.first()?.as_str().and_then(parse_hex_u64),
                        _ => None,
                    })
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default()
}

/// The daemon's answer-path counters, from its `stats` verb.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    total: u64,
    cache: u64,
    store: u64,
    delta: u64,
    cold: u64,
    coalesced: u64,
    errors: u64,
    store_errors: u64,
}

impl Counts {
    fn since(self, before: Counts) -> Counts {
        Counts {
            total: self.total - before.total,
            cache: self.cache - before.cache,
            store: self.store - before.store,
            delta: self.delta - before.delta,
            cold: self.cold - before.cold,
            coalesced: self.coalesced - before.coalesced,
            errors: self.errors - before.errors,
            store_errors: self.store_errors - before.store_errors,
        }
    }
}

fn call_json(conn: &mut Conn, line: &[u8]) -> Result<Json, String> {
    let mut reply = String::new();
    conn.call(line, &mut reply).map_err(|e| e.to_string())?;
    Json::parse(reply.trim()).map_err(|e| format!("unparseable reply: {e}"))
}

fn stats(conn: &mut Conn) -> Result<Counts, String> {
    let j = call_json(conn, b"{\"cmd\":\"stats\"}\n")?;
    let n = |group: &str, key: &str| -> Result<u64, String> {
        j.get(group)
            .and_then(|g| g.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats reply lacks {group}.{key}"))
    };
    Ok(Counts {
        total: n("requests", "requests_total")?,
        cache: n("requests", "cache_hits")?,
        store: n("requests", "store_hits")?,
        delta: n("delta", "delta_hits")?,
        cold: n("requests", "cold")?,
        coalesced: n("requests", "coalesced")?,
        errors: n("requests", "errors")?,
        store_errors: n("requests", "store_errors")?,
    })
}

/// Mean of a daemon latency histogram, from its `metrics` verb.
fn histogram_mean(metrics: &Json, name: &str) -> f64 {
    let h = metrics.get("metrics").and_then(|m| m.get(name));
    let get = |k| {
        h.and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get("sum") / get("count").max(1.0)
}

/// One `analyze` request line per corpus binary, newline-terminated.
fn analyze_lines(corpus: &Corpus) -> Vec<String> {
    corpus
        .elves
        .iter()
        .map(|elf| {
            let mut line = Request::Analyze {
                input: AnalyzeInput::Bytes(elf.clone()),
                pipeline: Pipeline::fetch(),
            }
            .to_line();
            line.push('\n');
            line
        })
        .collect()
}

/// A set-up daemon: corpus, daemon on a fresh store, and the warm fill's
/// answer (rendered `result` object) for every corpus binary.
struct Served {
    corpus: Corpus,
    lines: Vec<String>,
    pool: Vec<Version>,
    fill: Vec<String>,
    fingerprints: Vec<u64>,
    fill_order: Vec<usize>,
    daemon: Daemon,
    /// Removed when the run ends.
    _dir: RunDir,
    setup_s: Vec<f64>,
}

/// Sets up `setups` times and keeps the last: synthesize the corpus
/// (and the version pool), start the daemon on a fresh store (its
/// recovery sweep runs at start), and fill the store with one cold
/// `analyze` of every binary in a seeded order.
fn set_up(args: &Args, setups: usize, cache: usize, with_pool: bool) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut last: Option<Served> = None;
    for k in 0..setups {
        // Stop the previous set-up's daemon before timing the next.
        if let Some(mut prev) = last.take() {
            prev.daemon.shutdown().map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        let corpus = Corpus::build(args.seed);
        let pool = if with_pool {
            let pool = version_pool(&corpus, VERSIONS_PER_KIND, args.seed);
            let per_kind = |k| pool.iter().filter(|v| v.kind == k).count();
            eprintln!(
                "repobench: {} versions: {} neutral, {} behavioral, {} resize; {:.2} s",
                pool.len(),
                per_kind(fetch_synth::PatchKind::Neutral),
                per_kind(fetch_synth::PatchKind::Behavioral),
                per_kind(fetch_synth::PatchKind::Resize),
                secs(t0)
            );
            pool
        } else {
            Vec::new()
        };
        let lines = analyze_lines(&corpus);
        let dir = RunDir::new(&format!("{}-{k}", args.workload)).map_err(|e| e.to_string())?;
        let mut daemon = Daemon::start(&args.serve_bin, dir.path(), cache)
            .map_err(|e| format!("daemon start: {e}"))?;
        let fill_order: Vec<usize> = PassOrder::new(corpus.len(), args.seed)
            .take(corpus.len())
            .collect();
        let mut fill = vec![String::new(); corpus.len()];
        let mut fingerprints = vec![0; corpus.len()];
        let mut reply = String::new();
        for &i in &fill_order {
            daemon
                .conn
                .call(lines[i].as_bytes(), &mut reply)
                .map_err(|e| format!("warm fill: {e}"))?;
            let (result, _) = reply_parts(&reply)
                .ok_or_else(|| format!("warm fill of binary {i} failed: {}", reply.trim()))?;
            fill[i] = result.to_string();
            fingerprints[i] = reply_fingerprint(&reply).ok_or("reply without fingerprint")?;
        }
        setup_s.push(secs(t0));
        last = Some(Served {
            corpus,
            lines,
            pool,
            fill,
            fingerprints,
            fill_order,
            daemon,
            _dir: dir,
            setup_s: Vec::new(),
        });
    }
    let mut served = last.expect("at least one set-up");
    served.setup_s = setup_s;
    Ok(served)
}

/// Predicted answer sources of a `serve_repeat` sequence: an LRU of
/// `capacity` entries that the warm fill left holding its last
/// `capacity` inserts; a miss is a store hit that enters the cache.
/// Returns (cache hits, store hits).
fn predict_repeat(fill_order: &[usize], seq: &[usize], capacity: usize) -> (u64, u64) {
    let mut lru: VecDeque<usize> = VecDeque::new();
    let touch = |lru: &mut VecDeque<usize>, i: usize| -> bool {
        let hit = match lru.iter().position(|x| *x == i) {
            Some(p) => {
                lru.remove(p);
                true
            }
            None => false,
        };
        lru.push_back(i);
        if lru.len() > capacity {
            lru.pop_front();
        }
        hit
    };
    for &i in fill_order {
        touch(&mut lru, i);
    }
    let hits = seq.iter().filter(|&&i| touch(&mut lru, i)).count() as u64;
    (hits, seq.len() as u64 - hits)
}

/// What the socket phase measured.
struct SocketPhase {
    latency_us: Vec<f64>,
    wall_s: f64,
    /// Daemon CPU time over the timed ops.
    cpu_ms: f64,
    /// Answer-path counters over the timed ops only.
    delta: Counts,
    /// Counters over the daemon's whole life.
    lifetime: Counts,
    metrics: Option<Json>,
    connect_us: Vec<f64>,
    peak_rss_mb: f64,
}

/// Reads the daemon's figures after the timed phase and, for traced
/// runs, its `metrics` verb and the fresh-connection probe; then stops
/// it.
fn finish_socket(
    served: &mut Served,
    args: &Args,
    cpu_ms: f64,
    delta: Counts,
    latency_us: Vec<f64>,
    wall_s: f64,
) -> Result<SocketPhase, String> {
    let daemon = &mut served.daemon;
    let (metrics, connect_us) = if args.trace {
        let metrics = call_json(&mut daemon.conn, b"{\"cmd\":\"metrics\"}\n")?;
        let mut connect_us = Vec::new();
        let mut reply = String::new();
        for _ in 0..CONNECT_PROBES {
            let t0 = Instant::now();
            let mut conn = Conn::connect(daemon.socket()).map_err(|e| e.to_string())?;
            conn.call(b"{\"cmd\":\"stats\"}\n", &mut reply)
                .map_err(|e| e.to_string())?;
            connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        (Some(metrics), connect_us)
    } else {
        (None, Vec::new())
    };
    let lifetime = stats(&mut daemon.conn)?;
    let peak_rss_mb = peak_rss_mb(daemon.pid()).map_err(|e| e.to_string())?;
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    Ok(SocketPhase {
        latency_us,
        wall_s,
        cpu_ms,
        delta,
        lifetime,
        metrics,
        connect_us,
        peak_rss_mb,
    })
}

/// The daemon's CPU time since `cpu0` and its counters since `before`.
fn timed_totals(served: &mut Served, cpu0: f64, before: Counts) -> Result<(f64, Counts), String> {
    let cpu = cpu_ms(served.daemon.pid()).map_err(|e| e.to_string())? - cpu0;
    Ok((cpu, stats(&mut served.daemon.conn)?.since(before)))
}

/// Checks every counter the benchmark can predict; returns problems.
fn check_counts(phase: &SocketPhase, ops: u64, expect: Counts) -> Vec<String> {
    let mut problems = Vec::new();
    let d = phase.delta;
    eprintln!(
        "repobench: op mix over {ops} ops: cache {} store {} delta {} cold {}",
        d.cache, d.store, d.delta, d.cold
    );
    if d.total != ops {
        problems.push(format!(
            "daemon counted {} requests for {ops} ops sent",
            d.total
        ));
    }
    let sum = d.cache + d.store + d.delta + d.cold + d.coalesced + d.errors;
    if sum != ops {
        problems.push(format!("op mix {d:?} sums to {sum}, not {ops}"));
    }
    if d != (Counts {
        total: ops,
        ..expect
    }) {
        problems.push(format!(
            "op mix {d:?} differs from the seeded sequence's {expect:?}"
        ));
    }
    if phase.lifetime.errors != 0 || phase.lifetime.store_errors != 0 {
        problems.push(format!(
            "daemon errors {} / store errors {}",
            phase.lifetime.errors, phase.lifetime.store_errors
        ));
    }
    problems
}

/// Per-layer values read from the socket phase.
fn socket_layers(layers: &mut Layers, phase: &SocketPhase, ops: u64) {
    let d = phase.delta;
    let ops_f = ops.max(1) as f64;
    layers.set("serve.ops_cache", d.cache as f64);
    layers.set("serve.ops_store", d.store as f64);
    layers.set("serve.ops_delta", d.delta as f64);
    layers.set("serve.ops_cold", d.cold as f64);
    layers.set("serve.cache_hit_ratio", d.cache as f64 / ops_f);
    layers.set("serve.store_hit_ratio", d.store as f64 / ops_f);
    layers.set("serve.errors", phase.lifetime.errors as f64);
    layers.set("serve.store_errors", phase.lifetime.store_errors as f64);
    if let Some(m) = &phase.metrics {
        layers.set(
            "serve.store_load_us",
            histogram_mean(m, "fetch_store_load_us"),
        );
        layers.set(
            "serve.store_save_us",
            histogram_mean(m, "fetch_store_save_us"),
        );
        layers.set(
            "serve.queue_wait_us",
            histogram_mean(m, "fetch_queue_wait_us"),
        );
    }
    let mut c = phase.connect_us.clone();
    sort(&mut c);
    if let Some(v) = median(&c) {
        layers.set("serve.connect_us", v);
    }
}

/// The in-process replay of a traced run: the same request lines
/// through the service's public calls, alternating traced and untraced
/// chunks of [`CHUNK`] ops.
struct Replay {
    service: AnalysisService,
    _dir: RunDir,
    tracer: Tracer,
    halves: [(usize, Duration); 2],
    untraced_op_us: Vec<f64>,
    reply_bytes: Vec<f64>,
}

impl Replay {
    fn new(args: &Args, cache: usize, lines: &[String], order: &[usize]) -> Result<Replay, String> {
        let dir = RunDir::new(&format!("{}-replay", args.workload)).map_err(|e| e.to_string())?;
        let service = AnalysisService::new(&ServeConfig {
            store_dir: Some(dir.path().join("store")),
            cache_capacity: CacheCapacity::entries(cache),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        for &i in order {
            let request = parse_request(&lines[i]).map_err(|e| e.message)?;
            if let Reply::Error { message, .. } = service.handle(request) {
                return Err(format!("replay fill: {message}"));
            }
        }
        Ok(Replay {
            service,
            _dir: dir,
            tracer: Tracer::new(false),
            halves: [(0, Duration::ZERO); 2],
            untraced_op_us: Vec::new(),
            reply_bytes: Vec::new(),
        })
    }

    /// Replays op `op` (request `line`); returns the reply and, when the
    /// op is traced, the span to hang probes under.
    fn op(&mut self, op: u64, line: &str) -> Result<(Reply, Option<SpanId>), String> {
        let traced = (op as usize / CHUNK) % 2 == 1;
        let tr = &mut self.tracer;
        tr.set_enabled(traced);
        let start = Instant::now();
        let root = tr.begin("op", None, op);
        let span = tr.begin("serve.parse", root, op);
        let request = parse_request(line).map_err(|e| e.message)?;
        tr.end(span);
        let span = tr.begin("serve.handle", root, op);
        let reply = self.service.handle_with_id(op, request);
        let name = match &reply {
            Reply::Analyze(a) => match a.source.token() {
                "cache" => "serve.handle_cache",
                "store" => "serve.handle_store",
                "delta" => "serve.handle_delta",
                _ => "serve.handle_cold",
            },
            _ => "serve.handle_error",
        };
        tr.end_as(span, name);
        let span = tr.begin("serve.render", root, op);
        let rendered = reply.to_line_with(op);
        tr.end(span);
        tr.end(root);
        let took = start.elapsed();
        let half = &mut self.halves[usize::from(traced)];
        half.0 += 1;
        half.1 += took;
        if traced {
            self.reply_bytes.push(rendered.len() as f64 + 1.0);
        } else {
            self.untraced_op_us.push(took.as_secs_f64() * 1e6);
        }
        let probe = tr.begin("probe", None, op);
        Ok((reply, probe))
    }

    /// Per-layer values of the replay; `socket_us` is the socket
    /// phase's latency, for the transport share.
    fn finish(mut self, args: &Args, layers: &mut Layers, socket_us: &[f64]) -> Result<(), String> {
        self.tracer.set_enabled(false);
        layers.set_span_medians(&self.tracer);
        let mut bytes = self.reply_bytes.clone();
        sort(&mut bytes);
        if let Some(v) = median(&bytes) {
            layers.set("serve.reply_bytes", v);
        }
        let (mut sock, mut inproc) = (socket_us.to_vec(), self.untraced_op_us.clone());
        sort(&mut sock);
        sort(&mut inproc);
        if let (Some(s), Some(i)) = (median(&sock), median(&inproc)) {
            layers.set("serve.transport_us", s - i);
        }
        layers.set("bench.traced_ops", self.halves[1].0 as f64);
        layers.set(
            "bench.trace_overhead_pct",
            overhead_pct(self.halves[1], self.halves[0]),
        );
        crate::write_spans(args, &self.tracer)
    }
}

/// Probes `binary.load` and `core.fingerprint` under `probe`.
fn probe_load(
    tr: &mut Tracer,
    probe: Option<SpanId>,
    op: u64,
    elf: &[u8],
) -> Result<(fetch_binary::Binary, u64), String> {
    let binary = load(tr, probe, op, elf)?;
    let image = ElfImage::parse(elf.to_vec()).map_err(|e| e.to_string())?;
    let fp = tr.span("core.fingerprint", probe, op, || image_fingerprint(&image));
    Ok((binary, fp))
}

/// `serve_repeat`: Zipf-skewed repeat `analyze` traffic over the corpus,
/// answered from the bounded cache or the store the set-up filled.
pub fn serve_repeat(args: &Args, setups: usize) -> Result<Report, String> {
    let mut served = set_up(args, setups, REPEAT_CACHE, false)?;
    let n = served.corpus.len();
    let pid = served.daemon.pid();
    let before = stats(&mut served.daemon.conn)?;
    let cpu0 = cpu_ms(pid).map_err(|e| e.to_string())?;
    let mut zipf = Zipf::new(n, ZIPF_S, args.seed);
    let mut seq = Vec::new();
    let mut latency_us = Vec::new();
    let mut ops_on = vec![0u64; n];
    let mut failed = 0u64;
    let mut reply = String::with_capacity(1 << 16);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let i = zipf.next().expect("endless");
        let start = Instant::now();
        served
            .daemon
            .conn
            .call(served.lines[i].as_bytes(), &mut reply)
            .map_err(|e| format!("op {}: {e}", seq.len()))?;
        latency_us.push(start.elapsed().as_secs_f64() * 1e6);
        seq.push(i);
        ops_on[i] += 1;
        // Every answer must equal the warm fill's answer for its input;
        // the fill's answers are checked against cold runs below.
        match reply_parts(&reply) {
            Some((result, _)) if result == served.fill[i] => {}
            _ => failed += 1,
        }
    }
    let wall_s = secs(t0);
    let (cpu, delta) = timed_totals(&mut served, cpu0, before)?;
    let phase = finish_socket(&mut served, args, cpu, delta, latency_us, wall_s)?;
    let Served {
        corpus,
        lines,
        fill,
        fill_order,
        setup_s,
        ..
    } = served;

    let (cache_hits, store_hits) = predict_repeat(&fill_order, &seq, REPEAT_CACHE);
    let ops = seq.len() as u64;
    let mut problems = check_counts(
        &phase,
        ops,
        Counts {
            cache: cache_hits,
            store: store_hits,
            ..Counts::default()
        },
    );

    let mut accuracy = Accuracy::default();
    for (i, case) in corpus.cases.iter().enumerate() {
        let reference = Pipeline::fetch().run(&case.binary);
        if result_json(&reference).to_string() != fill[i] {
            problems.push(format!(
                "binary {i}: the daemon's answer differs from a cold run"
            ));
            failed += ops_on[i];
        }
        accuracy.add(&fetch_metrics::evaluate(&result_starts(&fill[i]), case));
    }

    let mut layers = Layers::default();
    if args.trace {
        socket_layers(&mut layers, &phase, ops);
        let mut replay = Replay::new(args, REPEAT_CACHE, &lines, &fill_order)?;
        let t0 = Instant::now();
        for (op, &i) in seq.iter().enumerate() {
            if secs(t0) > args.seconds {
                break;
            }
            let (_, probe) = replay.op(op as u64, &lines[i])?;
            probe_load(&mut replay.tracer, probe, op as u64, &corpus.elves[i])?;
            replay.tracer.end(probe);
        }
        replay.finish(args, &mut layers, &phase.latency_us)?;
    }
    Ok(Report {
        setup_s,
        timed: Timed {
            latency_us: phase.latency_us,
            wall_s: phase.wall_s,
            cpu_ms: phase.cpu_ms,
            peak_rss_mb: phase.peak_rss_mb,
            failed: failed.min(ops),
        },
        accuracy,
        problems,
        layers,
    })
}

/// The `reanalyze` line of every corpus binary, newline-terminated,
/// with the offset where its `bytes_hex` digits start.
fn reanalyze_templates(corpus: &Corpus, fingerprints: &[u64]) -> Vec<(Vec<u8>, usize)> {
    corpus
        .elves
        .iter()
        .zip(fingerprints)
        .map(|(elf, &fp)| {
            let mut line = Request::Reanalyze {
                prev_fingerprint: fp,
                input: AnalyzeInput::Bytes(elf.clone()),
                pipeline: Pipeline::fetch(),
            }
            .to_line();
            line.push('\n');
            let at =
                line.find("\"bytes_hex\":\"").expect("inline request") + "\"bytes_hex\":\"".len();
            (line.into_bytes(), at)
        })
        .collect()
}

/// Writes version `v`'s request line into `buf`: its base's template
/// with the changed bytes' hex digits rewritten.
fn version_line(buf: &mut Vec<u8>, templates: &[(Vec<u8>, usize)], v: &Version) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let (template, at) = &templates[v.base];
    buf.clear();
    buf.extend_from_slice(template);
    for &(off, b) in &v.diff {
        let p = at + 2 * off as usize;
        buf[p] = DIGITS[usize::from(b >> 4)];
        buf[p + 1] = DIGITS[usize::from(b & 0xf)];
    }
}

/// The answer source a version's patch kind must get: a neutral patch
/// is reused from its base by the delta ladder; the others recompute.
fn expected_source(v: &Version) -> &'static str {
    match v.kind {
        fetch_synth::PatchKind::Neutral => "delta",
        _ => "cold",
    }
}

/// `rebuild_delta`: `reanalyze` of distinct one-function versions of
/// the corpus against each binary's original, in seeded rounds.
pub fn rebuild_delta(args: &Args, setups: usize) -> Result<Report, String> {
    let mut served = set_up(args, setups, REBUILD_CACHE, true)?;
    let templates = reanalyze_templates(&served.corpus, &served.fingerprints);
    let pid = served.daemon.pid();
    let before = stats(&mut served.daemon.conn)?;
    let cpu0 = cpu_ms(pid).map_err(|e| e.to_string())?;
    let mut latency_us = Vec::new();
    // Per op: hash of the answer's `result` object (None on error); the
    // head of the sequence keeps the whole object for accuracy.
    let mut answers: Vec<Option<u64>> = Vec::new();
    let mut head_answers: Vec<String> = Vec::new();
    let mut mix_mismatch = 0u64;
    let mut buf = Vec::new();
    let mut reply = String::with_capacity(1 << 16);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let mut send = |served: &mut Served, k: usize, timed: bool| -> Result<(), String> {
        let v = &served.pool[k];
        version_line(&mut buf, &templates, v);
        let start = Instant::now();
        served
            .daemon
            .conn
            .call(&buf, &mut reply)
            .map_err(|e| format!("op {k}: {e}"))?;
        if timed {
            latency_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let parts = reply_parts(&reply);
        if parts.is_some_and(|(_, src)| src != expected_source(v)) {
            mix_mismatch += 1;
        }
        answers.push(parts.map(|(result, _)| fnv(result.as_bytes())));
        if k < ACCURACY_VERSIONS {
            head_answers.push(parts.map_or(String::new(), |(r, _)| r.to_string()));
        }
        Ok(())
    };
    let mut k = 0;
    while k < served.pool.len() && Instant::now() < deadline {
        send(&mut served, k, true)?;
        k += 1;
    }
    let wall_s = secs(t0);
    let ops = k as u64;
    if k == served.pool.len() {
        eprintln!("repobench: rebuild_delta used the whole pool of {k} versions");
    }
    let (cpu, delta) = timed_totals(&mut served, cpu0, before)?;
    // Complete the accuracy set outside the timed phase.
    while k < ACCURACY_VERSIONS.min(served.pool.len()) {
        send(&mut served, k, false)?;
        k += 1;
    }
    let phase = finish_socket(&mut served, args, cpu, delta, latency_us, wall_s)?;
    let Served {
        corpus,
        lines,
        pool,
        fill,
        fingerprints,
        fill_order,
        setup_s,
        ..
    } = served;

    let neutral = pool[..ops as usize]
        .iter()
        .filter(|v| expected_source(v) == "delta")
        .count() as u64;
    let mut problems = check_counts(
        &phase,
        ops,
        Counts {
            delta: neutral,
            cold: ops - neutral,
            ..Counts::default()
        },
    );
    if mix_mismatch > 0 {
        problems.push(format!(
            "{mix_mismatch} replies came from another tier than their patch kind's"
        ));
    }

    // Answer check: originals (from the fill) and every version sent,
    // against cold runs and ground truth.
    let mut accuracy = Accuracy::default();
    let mut failed = 0u64;
    for (i, case) in corpus.cases.iter().enumerate() {
        let reference = Pipeline::fetch().run(&case.binary);
        if result_json(&reference).to_string() != fill[i] {
            problems.push(format!(
                "binary {i}: the daemon's answer differs from a cold run"
            ));
        }
        accuracy.add(&fetch_metrics::evaluate(&result_starts(&fill[i]), case));
    }
    for (k, answer) in answers.iter().enumerate() {
        let case: TestCase = pool[k].case(&corpus);
        let reference = Pipeline::fetch().run(&case.binary);
        let right = *answer == Some(fnv(result_json(&reference).to_string().as_bytes()));
        if !right {
            if (k as u64) < ops {
                failed += 1;
            } else {
                problems.push(format!("version {k}: wrong or failed answer"));
            }
        }
        if k < ACCURACY_VERSIONS {
            accuracy.add(&fetch_metrics::evaluate(
                &result_starts(&head_answers[k]),
                &case,
            ));
        }
    }

    let mut layers = Layers::default();
    if args.trace {
        socket_layers(&mut layers, &phase, ops);
        layers.set(
            "core.delta_reuse_ratio",
            phase.delta.delta as f64 / ops.max(1) as f64,
        );
        replay_rebuild(
            args,
            &mut layers,
            &phase,
            &corpus,
            &lines,
            &fill_order,
            &pool[..ops as usize],
            &fingerprints,
            &templates,
        )?;
    }
    Ok(Report {
        setup_s,
        timed: Timed {
            latency_us: phase.latency_us,
            wall_s: phase.wall_s,
            cpu_ms: phase.cpu_ms,
            peak_rss_mb: phase.peak_rss_mb,
            failed,
        },
        accuracy,
        problems,
        layers,
    })
}

/// The traced in-process replay of `rebuild_delta`, with probes of the
/// delta ladder's public steps on every traced op and of the core
/// layers on the ops that fell back to a cold run.
#[allow(clippy::too_many_arguments)]
fn replay_rebuild(
    args: &Args,
    layers: &mut Layers,
    phase: &SocketPhase,
    corpus: &Corpus,
    lines: &[String],
    fill_order: &[usize],
    versions: &[Version],
    fingerprints: &[u64],
    templates: &[(Vec<u8>, usize)],
) -> Result<(), String> {
    let mut replay = Replay::new(args, REBUILD_CACHE, lines, fill_order)?;
    let originals: Vec<(Arc<DetectionResult>, ImageDigest)> = corpus
        .elves
        .iter()
        .zip(fingerprints)
        .map(|(elf, &fp)| {
            let binary = ElfImage::parse(elf.clone())
                .expect("corpus ELF parses")
                .to_binary();
            (
                Arc::new(Pipeline::fetch().run(&binary)),
                ImageDigest::compute(&binary, fp),
            )
        })
        .collect();
    let mut serial_bytes = Vec::new();
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for (op, v) in versions.iter().enumerate() {
        if secs(t0) > args.seconds {
            break;
        }
        let op = op as u64;
        version_line(&mut buf, templates, v);
        let line = std::str::from_utf8(&buf).map_err(|e| e.to_string())?;
        let (reply, probe) = replay.op(op, line)?;
        if probe.is_none() {
            continue;
        }
        let tr = &mut replay.tracer;
        let elf = v.elf(corpus);
        let (binary, fp) = probe_load(tr, probe, op, &elf)?;
        let (prev, prev_digest) = &originals[v.base];
        let digest = tr.span("core.digest", probe, op, || {
            ImageDigest::compute(&binary, fp)
        });
        tr.span("core.diff", probe, op, || {
            diff_digests(prev_digest, &digest)
        });
        let mut engine = RecEngine::new();
        let out = tr.span("core.delta", probe, op, || {
            run_delta(
                &Pipeline::fetch(),
                prev,
                Some(prev_digest),
                &binary,
                &digest,
                &mut engine,
            )
        });
        let bytes =
            serialize_result_with_digest(&out.result, Some(&digest)).map_err(|e| e.to_string())?;
        serial_bytes.push(bytes.len() as f64);
        if matches!(&reply, Reply::Analyze(a) if a.source.token() == "cold") {
            run_layers(tr, probe, op, &binary);
        }
        tr.end(probe);
    }
    sort(&mut serial_bytes);
    if let Some(v) = median(&serial_bytes) {
        layers.set("core.serial_bytes", v);
    }
    replay.finish(args, layers, &phase.latency_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parts_finds_result_and_source() {
        let line = "{\"fingerprint\":\"0x1f\",\"ok\":true,\"pipeline\":\"FDE\",\"req_id\":3,\
                    \"result\":{\"layers\":[\"FDE\"],\"start_count\":1,\"starts\":[[\"0x10\",\"fde\"]]},\
                    \"source\":\"cache\",\"wall_us\":1.5}\n";
        let (result, source) = reply_parts(line).unwrap();
        assert_eq!(source, "cache");
        assert_eq!(result_starts(result), BTreeSet::from([0x10]));
        assert_eq!(reply_fingerprint(line), Some(0x1f));
        assert!(reply_parts("{\"code\":\"busy\",\"error\":\"x\",\"ok\":false}").is_none());
    }

    #[test]
    fn lru_prediction_counts_hits_and_misses() {
        // Capacity 2, fill 0,1,2 leaves {1,2}.
        let (hits, misses) = predict_repeat(&[0, 1, 2], &[2, 1, 0, 0, 2], 2);
        // 2 hit, 1 hit, 0 miss (evicts 2), 0 hit, 2 miss.
        assert_eq!((hits, misses), (3, 2));
    }
}
