//! The `serve_mixed` workload: one client in a closed loop against an
//! in-process `fastbar-serve` daemon on a Unix socket, with a fresh empty
//! result cache every pass.
//!
//! The seed draws the request stream. A fixed catalogue of cells (fig4 at
//! 4–16 cores and small kernels) gives each cell a few variants of nearly
//! equal cost — another factorisation of the same barrier count, another
//! noise rate, a slightly different size — so the seed changes which
//! specs run and in what order, but not the cost profile. The seed picks
//! two variants per cell; each distinct spec is requested four times, so
//! three requests in four hit the cache.

use std::fs;
use std::path::Path;
use std::time::Instant;

use barrier_filter::BarrierMechanism as M;
use bench_suite::{
    result_json, run_cached, Client, Endpoint, ItemResult, Listener, ResultCache, Server,
    SweepRunner,
};
use cmp_sim::json::Json;
use kernels::{RunSpec, WorkloadSpec as W};

use crate::layers::Layers;
use crate::report::{median, ratio, Metrics, Pass, Tally};
use crate::sim::run_observed;
use crate::spans::Spans;

/// Requests per distinct spec.
const REPEATS: usize = 4;
/// Distinct variants the seed draws from each cell.
const VARIANTS_PER_CELL: usize = 2;

/// splitmix64: a small seeded generator for the stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The catalogue: each cell lists variants of nearly equal cost.
fn cells() -> Vec<Vec<RunSpec>> {
    let mut cells = Vec::new();
    for cores in [4, 8, 12, 16] {
        for m in M::ALL {
            for barriers in [8u64, 16, 32] {
                cells.push(
                    [1u64, 2, 4, 8]
                        .into_iter()
                        .map(|outer| RunSpec::fig4(m, cores, barriers / outer, outer))
                        .collect(),
                );
            }
        }
    }
    let execs = |threads: &[usize], mechanisms: &[M]| {
        let mut v: Vec<Option<(usize, M)>> = vec![None];
        for &t in threads {
            v.extend(mechanisms.iter().map(|&m| Some((t, m))));
        }
        v
    };
    let spec = |w: W, exec: Option<(usize, M)>| match exec {
        Some((t, m)) => RunSpec::parallel(w, t, m),
        None => RunSpec::sequential(w),
    };
    let loop3_execs = execs(
        &[4, 8, 16],
        &[
            M::FilterD,
            M::FilterI,
            M::SwTree,
            M::SwCentral,
            M::HwDedicated,
        ],
    );
    for base in [64, 192] {
        for &exec in &loop3_execs {
            cells.push(
                (0..4)
                    .map(|k| spec(W::Loop3 { n: base + 8 * k }, exec))
                    .collect(),
            );
        }
    }
    let small_execs = execs(&[4], &[M::FilterD, M::FilterI, M::HwDedicated]);
    let mut viterbi_execs = small_execs.clone();
    viterbi_execs.push(Some((8, M::FilterD)));
    for exec in viterbi_execs {
        cells.push(
            (0..6)
                .map(|k| {
                    let w = W::Viterbi {
                        constraint: 5,
                        data_bits: 24,
                        noise_per_mille: 5 * k,
                    };
                    spec(w, exec)
                })
                .collect(),
        );
    }
    for &exec in &small_execs {
        cells.push(
            (0..4)
                .map(|k| spec(W::Loop6 { n: 32 + 2 * k }, exec))
                .collect(),
        );
        cells.push(
            (0..4)
                .map(|k| {
                    spec(
                        W::Autocorr {
                            n: 128 + 16 * k,
                            lags: 8,
                        },
                        exec,
                    )
                })
                .collect(),
        );
    }
    for exec in [None, Some((4, M::FilterD))] {
        cells.push(
            (0..4)
                .map(|k| {
                    spec(
                        W::Ocean {
                            grid: 18 + 2 * k,
                            sweeps: 2,
                        },
                        exec,
                    )
                })
                .collect(),
        );
    }
    cells
}

/// A seeded request stream over distinct specs.
#[derive(Debug, Clone)]
pub struct Stream {
    pub specs: Vec<RunSpec>,
    /// Index into `specs` of each request, in arrival order.
    pub order: Vec<usize>,
}

impl Stream {
    /// The stream for `seed`; `quick` keeps every twelfth cell.
    pub fn new(seed: u64, quick: bool) -> Stream {
        let mut rng = Rng(seed ^ 0x5e57_e5ed_0000_0000);
        let mut specs = Vec::new();
        for (i, mut variants) in cells().into_iter().enumerate() {
            if quick && i % 12 != 0 {
                continue;
            }
            for _ in 0..VARIANTS_PER_CELL {
                specs.push(variants.swap_remove(rng.below(variants.len())));
            }
        }
        let mut order: Vec<usize> = (0..specs.len())
            .flat_map(|d| std::iter::repeat_n(d, REPEATS))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Stream { specs, order }
    }
}

/// The in-process result body of every distinct spec (`kernels::run` +
/// `result_json`): what every served body must equal byte for byte.
/// `None` where the in-process run failed (counted as a failure).
pub fn reference_bodies(stream: &Stream, tally: &mut Tally) -> Vec<Option<String>> {
    stream
        .specs
        .iter()
        .map(|spec| match kernels::run(spec) {
            Ok(out) => {
                tally.op(Ok(()));
                Some(result_json(spec, &out))
            }
            Err(e) => {
                tally.op(Err(format!("in-process {}: {e}", spec.canonical_json())));
                None
            }
        })
        .collect()
}

fn body_u64(body: &str, key: &str) -> Option<u64> {
    Json::parse(body).ok()?.get(key).and_then(Json::as_u64)
}

/// Check one response against the in-process reference and, for a
/// repeat, against the live body the same pass received first.
fn check_item(
    spec: &RunSpec,
    item: &ItemResult,
    first: Option<&str>,
    reference: Option<&str>,
) -> Result<(), String> {
    let what = spec.canonical_json();
    match first {
        None if item.cached => return Err(format!("{what}: first request served from cache")),
        Some(_) if !item.cached => return Err(format!("{what}: repeat request missed the cache")),
        Some(live) if item.body != live => {
            return Err(format!("{what}: cached body differs from the live body"))
        }
        _ => {}
    }
    let Some(reference) = reference else {
        return Err(format!("{what}: no in-process reference"));
    };
    if body_u64(&item.body, "stats_digest") != body_u64(reference, "stats_digest") {
        return Err(format!(
            "{what}: stats_digest differs from in-process kernels::run"
        ));
    }
    if item.body != reference {
        return Err(format!("{what}: body differs from the in-process body"));
    }
    Ok(())
}

/// What one pass produced.
pub struct PassOutput {
    pub pass: Pass,
    /// Replay layers (traced passes only).
    pub layers: Layers,
    /// In-process `run_cached` hit times, ms (traced passes only).
    pub hit_inproc_ms: Vec<f64>,
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// One pass: bind a daemon over a fresh cache, send the whole stream
/// from one client, shut the daemon down. Traced passes then replay the
/// stream in-process over another fresh cache to split round trips into
/// cache, engine and wire time.
pub fn run_pass(
    stream: &Stream,
    reference: &[Option<String>],
    work: &Path,
    pass_no: usize,
    tally: &mut Tally,
    spans: &mut Spans,
) -> std::io::Result<PassOutput> {
    let mut pass = Pass::default();
    let root = work.join(format!("serve{pass_no}"));
    let setup = spans.begin("setup", 0);
    let t_setup = Instant::now();
    fresh_dir(&root)?;
    let cache_root = root.join("cache");
    fs::create_dir_all(&cache_root)?;
    let endpoint = Endpoint::Unix(root.join("serve.sock"));
    let listener = Listener::bind(&endpoint)?;
    let server = Server::new(ResultCache::new(&cache_root), SweepRunner::new(1));

    std::thread::scope(|scope| -> std::io::Result<()> {
        let daemon = scope.spawn(|| listener.serve(&server));
        let mut client = Client::connect(&endpoint)?;
        pass.setup(t_setup.elapsed().as_secs_f64());
        spans.end(setup);

        let run = spans.begin("run", 0);
        let mut live: Vec<Option<String>> = vec![None; stream.specs.len()];
        for (i, &d) in stream.order.iter().enumerate() {
            let spec = &stream.specs[d];
            let s = spans.begin("serve.Client.run_spec", i);
            let t = Instant::now();
            let response = client.run_spec(spec);
            let rt = t.elapsed().as_secs_f64();
            spans.end(s);
            match response {
                Ok(item) => {
                    pass.op(rt, !item.cached);
                    pass.sim_cycles += body_u64(&item.body, "cycles").unwrap_or(0);
                    if !item.cached {
                        pass.instructions += body_u64(&item.body, "instructions").unwrap_or(0);
                    }
                    tally.op(check_item(
                        spec,
                        &item,
                        live[d].as_deref(),
                        reference[d].as_deref(),
                    ));
                    if live[d].is_none() {
                        live[d] = Some(item.body);
                    }
                }
                Err(e) => {
                    pass.op(rt, false);
                    tally.op(Err(format!("request {i}: {e}")));
                }
            }
        }
        spans.end(run);

        // A client whose connection broke cannot shut the daemon down;
        // a fresh one can.
        let stopped = client.shutdown().or_else(|_| {
            Client::connect(&endpoint)
                .map_err(|e| e.to_string())?
                .shutdown()
        });
        tally.op(stopped.map_err(|e| format!("shutdown: {e}")));
        let served = daemon
            .join()
            .map_err(|_| std::io::Error::other("daemon panicked"))?;
        tally.op(served.map_err(|e| format!("daemon: {e}")));
        Ok(())
    })?;

    let mut out = PassOutput {
        pass,
        layers: Layers::default(),
        hit_inproc_ms: Vec::new(),
    };
    if spans.enabled() {
        replay(
            stream,
            reference,
            &root.join("replay"),
            tally,
            spans,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Replay the stream in-process: first requests take the miss path step
/// by step (`ResultCache::load`, `kernels::run_with`, `result_json`,
/// `ResultCache::store`); repeats go through `run_cached`.
fn replay(
    stream: &Stream,
    reference: &[Option<String>],
    root: &Path,
    tally: &mut Tally,
    spans: &mut Spans,
    out: &mut PassOutput,
) -> std::io::Result<()> {
    fresh_dir(root)?;
    let cache = ResultCache::new(root.join("cache"));
    let mut seen = vec![false; stream.specs.len()];
    let replay = spans.begin("replay", 0);
    for (i, &d) in stream.order.iter().enumerate() {
        let spec = &stream.specs[d];
        let want = reference[d].as_deref();
        let body = if seen[d] {
            let s = spans.begin("serve.run_cached", i);
            let t = Instant::now();
            let r = run_cached(&cache, spec);
            out.hit_inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.end(s);
            match r {
                Ok((body, true)) => Ok(body),
                Ok((_, false)) => Err("replayed repeat missed the cache".to_string()),
                Err(e) => Err(e.to_string()),
            }
        } else {
            seen[d] = true;
            let digest = spec.digest();
            let s = spans.begin("serve.ResultCache.load", i);
            let hit = cache.load(digest);
            spans.end(s);
            let l = &mut out.layers;
            let (run, sink, build, engine) =
                run_observed(spans, i, |att| kernels::run_with(spec, att));
            l.build_s += build;
            l.engine_s += engine;
            l.kernels_run_s += build + engine;
            match (hit, run) {
                (Some(_), _) => Err("first replayed request hit a fresh cache".to_string()),
                (None, Err(e)) => Err(e.to_string()),
                (None, Ok(run)) => {
                    l.engine_instr += run.outcome.sim.instructions;
                    l.add_outcome(&run.outcome, sink.as_ref());
                    if let W::Fig4 { inner, outer } = spec.workload {
                        l.add_barrier_loop(run.outcome.sim.cycles, inner * outer);
                    }
                    let body = result_json(spec, &run);
                    let s = spans.begin("serve.ResultCache.store", i);
                    let stored = cache.store(digest, &body);
                    spans.end(s);
                    stored.map(|_| body).map_err(|e| e.to_string())
                }
            }
        };
        tally.op(match body {
            Ok(body) if Some(body.as_str()) == want => Ok(()),
            Ok(_) => Err(format!("replay {i}: traced body differs from untraced")),
            Err(e) => Err(format!("replay {i}: {e}")),
        });
    }
    spans.end(replay);
    Ok(())
}

/// The serve layer metrics of the traced passes.
pub fn serve_metrics(passes: &[PassOutput], m: &mut Metrics) {
    let per = |f: &dyn Fn(&PassOutput) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // A request that ran a simulation was a cache miss.
    let rts = |p: &PassOutput, cached: bool| -> Vec<f64> {
        p.pass
            .ops
            .iter()
            .filter(|&&(_, simulation)| simulation != cached)
            .map(|&(ms, _)| ms)
            .collect()
    };
    let requests = passes.last().map_or(0, |p| p.pass.ops.len());
    m.push("serve.requests", requests as f64, "count");
    m.push(
        "serve.hit_ratio",
        per(&|p| ratio(rts(p, true).len() as f64, p.pass.ops.len() as f64)),
        "ratio",
    );
    m.push("serve.hit_ms", per(&|p| median(&rts(p, true))), "ms");
    m.push("serve.live_ms", per(&|p| median(&rts(p, false))), "ms");
    m.push(
        "serve.wire_ms",
        per(&|p| median(&rts(p, true)) - median(&p.hit_inproc_ms)),
        "ms",
    );
    m.push(
        "serve.live_engine_share",
        per(&|p| ratio(p.layers.kernels_run_s * 1e3, rts(p, false).iter().sum())),
        "ratio",
    );
}
