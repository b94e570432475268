//! `perfbench`: the fastbar simulator's benchmark.
//!
//! ```text
//! perfbench --workload <fig4_spin|kernels_filter|scale_1024|serve_mixed>
//!           [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//! perfbench --self-test [--work-dir DIR]
//! perfbench --print-digests
//! ```
//!
//! One run times passes over one workload for `--seconds` host seconds
//! (at least [`MIN_PASSES`]) and reports each operation, set-up included,
//! at its fastest across the passes. Every
//! simulated result is checked against an expected digest; the last line
//! of standard output is the JSON result, and any failed operation makes
//! the exit code 1. `--trace 1` spends half the time untraced and half
//! traced (spans around every layer call, counting observers on kernel
//! runs) and reports the per-layer metrics instead. See `README.md` next
//! to this crate for the workloads and metrics.

mod expected;
mod layers;
mod report;
mod serve_mixed;
mod sim;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use expected::Expected;
use layers::{layer_metrics, Layers};
use report::{end_to_end, peak_rss_mb, result_line, Metrics, Pass, Tally};
use spans::Spans;

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = ["fig4_spin", "kernels_filter", "scale_1024", "serve_mixed"];

/// Passes per timed phase, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The seed that later claims must also hold on, beside the one they
/// were made with.
const HELD_OUT_SEED: u64 = 20061209;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_test: bool,
    print_digests: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        self_test: false,
        print_digests: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--self-test" => a.self_test = true,
            "--print-digests" => a.print_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.self_test && !a.print_digests && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn sim_workload(name: &str, quick: bool) -> Option<sim::SimWorkload> {
    match name {
        "fig4_spin" => Some(sim::fig4_spin(quick)),
        "kernels_filter" => Some(sim::kernels_filter(quick)),
        "scale_1024" => Some(sim::scale_1024(quick)),
        _ => None,
    }
}

/// Run passes until `seconds` would be exceeded by one more pass of the
/// mean length so far, and at least `min` of them.
fn timed_passes<T>(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len()));
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / out.len() as f64;
        if out.len() >= min && elapsed + mean > seconds {
            return out;
        }
    }
}

/// Everything one run measured.
struct Outcome {
    tally: Tally,
    metrics: Metrics,
    notes: Vec<String>,
    spans: Spans,
}

/// The per-layer metrics of a traced run: layer counters and times from
/// the traced passes, the serve split where the workload has one, and
/// traced ÷ untraced `wall_s` − 1.
fn traced_metrics(
    untraced: &[Pass],
    traced: &[Pass],
    layers: &[Layers],
    serve: &[serve_mixed::PassOutput],
) -> Metrics {
    let wall = |passes| end_to_end(passes, 0.0).get("wall_s").unwrap_or(0.0);
    let mut m = Metrics::default();
    layer_metrics(layers, &mut m);
    serve_mixed::serve_metrics(serve, &mut m);
    m.push(
        "trace_overhead",
        wall(traced) / wall(untraced) - 1.0,
        "ratio",
    );
    m
}

/// Untraced passes, then (with `--trace 1`) traced ones, half the time
/// each.
fn budget(a: &Args) -> (f64, usize) {
    if a.trace {
        (a.seconds / 2.0, 2)
    } else {
        (a.seconds, MIN_PASSES)
    }
}

fn run_sim(w: &sim::SimWorkload, a: &Args, expected: &Expected) -> Outcome {
    let mut tally = Tally::default();
    let (seconds, min) = budget(a);
    let mut off = Spans::new(false);
    let plain = timed_passes(seconds, min, |_| {
        sim::run_pass(w, expected, &mut tally, &mut off)
    });
    let passes: Vec<Pass> = plain.iter().map(|p| p.pass.clone()).collect();
    let mut notes = vec![format!(
        "{} items per pass, {} passes",
        w.items.len(),
        passes.len()
    )];
    let mut spans = Spans::new(a.trace);
    let metrics = if a.trace {
        let traced = timed_passes(seconds, min, |_| {
            sim::run_pass(w, expected, &mut tally, &mut spans)
        });
        for t in &traced {
            for ((item, got), want) in w.items.iter().zip(&t.digests).zip(&plain[0].digests) {
                tally.op(if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: traced digest {got:#x} != untraced {want:#x}",
                        item.name
                    ))
                });
            }
        }
        notes.push(format!("{} traced passes", traced.len()));
        let layers: Vec<Layers> = traced.iter().map(|t| t.layers.clone()).collect();
        let traced: Vec<Pass> = traced.into_iter().map(|t| t.pass).collect();
        traced_metrics(&passes, &traced, &layers, &[])
    } else {
        end_to_end(&passes, peak_rss_mb())
    };
    Outcome {
        tally,
        metrics,
        notes,
        spans,
    }
}

fn run_serve(a: &Args) -> Outcome {
    let mut tally = Tally::default();
    let stream = serve_mixed::Stream::new(a.seed, a.quick);
    let reference = serve_mixed::reference_bodies(&stream, &mut tally);
    // Each pass's cache stays on disk after the run: deleting thousands of
    // small files on a filesystem mounted with `discard` slowed the
    // metadata operations of later set-ups (daemon bind, cache-root
    // creation) up to tenfold, for minutes.
    let work = a
        .work_dir
        .join(format!("{}-{}", a.workload, std::process::id()));
    let (seconds, min) = budget(a);
    let pass = |n: usize, spans: &mut Spans, tally: &mut Tally| {
        serve_mixed::run_pass(&stream, &reference, &work, n, tally, spans)
            .map_err(|e| tally.op(Err(format!("serve pass {n}: {e}"))))
            .ok()
    };
    let mut off = Spans::new(false);
    let plain = timed_passes(seconds, min, |n| pass(n, &mut off, &mut tally));
    // Traced passes number on from the untraced ones, so each pass has a
    // directory of its own and none is deleted during the run.
    let first_traced = plain.len();
    let passes: Vec<Pass> = plain.into_iter().flatten().map(|p| p.pass).collect();
    let mut notes = vec![format!(
        "{} requests over {} distinct specs per pass, {} passes",
        stream.order.len(),
        stream.specs.len(),
        passes.len()
    )];
    let mut spans = Spans::new(a.trace);
    let metrics = if a.trace {
        let traced = timed_passes(seconds, min, |n| {
            pass(first_traced + n, &mut spans, &mut tally)
        });
        let traced: Vec<_> = traced.into_iter().flatten().collect();
        notes.push(format!("{} traced passes", traced.len()));
        let layers: Vec<Layers> = traced.iter().map(|t| t.layers.clone()).collect();
        let traced_passes: Vec<Pass> = traced.iter().map(|t| t.pass.clone()).collect();
        traced_metrics(&passes, &traced_passes, &layers, &traced)
    } else {
        end_to_end(&passes, peak_rss_mb())
    };
    Outcome {
        tally,
        metrics,
        notes,
        spans,
    }
}

fn run_workload(a: &Args, expected: &Expected) -> Outcome {
    match sim_workload(&a.workload, a.quick) {
        Some(w) => run_sim(&w, a, expected),
        None => run_serve(a),
    }
}

fn write_spans(a: &Args, spans: &Spans) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&a.work_dir).map_err(|e| e.to_string())?;
    let path = a
        .work_dir
        .join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    std::fs::write(&path, spans.to_json(&a.workload, a.seed)).map_err(|e| e.to_string())?;
    Ok(path)
}

fn report(a: &Args, o: &mut Outcome) {
    println!(
        "perfbench {} seed {} (held-out seed {HELD_OUT_SEED}) trace {}",
        a.workload, a.seed, a.trace as u8
    );
    for n in &o.notes {
        println!("  {n}");
    }
    print!("{}", o.metrics.table());
    println!(
        "  error_rate {:.6} ({} failed of {} operations)",
        o.tally.error_rate(),
        o.tally.failed,
        o.tally.attempted
    );
    for f in &o.tally.failures {
        println!("  FAILED {f}");
    }
    if o.spans.enabled() {
        println!("  self time by layer call (all traced passes):");
        for (name, (total, self_s)) in o.spans.self_times() {
            println!("    {name:<28} total {total:>10.4} s  self {self_s:>10.4} s");
        }
        match write_spans(a, &o.spans) {
            Ok(path) => println!("  spans written to {}", path.display()),
            Err(e) => o.tally.op(Err(format!("writing spans: {e}"))),
        }
    }
}

/// Names of the metrics a run must emit with `--trace` off and on, as
/// `BENCHMARK.json` declares them.
fn required(trace: bool) -> Vec<String> {
    let doc = cmp_sim::json::Json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let list = if trace { "per_layer" } else { "end_to_end" };
    doc.get(list)
        .map(cmp_sim::json::Json::items)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(cmp_sim::json::Json::as_str))
        .map(str::to_string)
        .collect()
}

/// Every workload in quick mode, untraced and traced: each must emit
/// every required metric with a unit and fail nothing. Then a wrong
/// expected digest must be caught.
fn self_test(work_dir: &Path) -> Result<(), String> {
    let quick = |workload: &str, trace| Args {
        workload: workload.to_string(),
        seed: HELD_OUT_SEED,
        seconds: 0.0,
        trace,
        quick: true,
        self_test: false,
        print_digests: false,
        work_dir: work_dir.to_path_buf(),
    };
    let expected = Expected::load();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let o = run_workload(&quick(workload, trace), &expected);
            if o.tally.failed != 0 {
                return Err(format!("{workload} trace {trace}: {:?}", o.tally.failures));
            }
            for name in required(trace) {
                match o.metrics.0.iter().find(|(n, _, _)| *n == name) {
                    Some((_, v, unit)) if v.is_finite() && !unit.is_empty() => {}
                    _ => return Err(format!("{workload} trace {trace}: metric {name} missing")),
                }
            }
            if o.metrics.0.len() != required(trace).len() {
                return Err(format!("{workload} trace {trace}: unexpected metrics"));
            }
            println!("self-test {workload} trace {}: ok", trace as u8);
        }
    }
    for (workload, name) in [
        ("fig4_spin", "fig4_spin/quick"),
        ("fig4_spin", "fig4/sw-tree/16c/1cl/8x2"),
        ("kernels_filter", "viterbi/k5-24b-10n/filter-d/16t"),
        ("scale_1024", "fig4/hw-dedicated/1024c/16cl/4x2"),
    ] {
        let mut wrong = expected.clone();
        if !wrong.corrupt(name) {
            return Err(format!("no expectation named {name}"));
        }
        let o = run_workload(&quick(workload, false), &wrong);
        if o.tally.failed == 0 || o.tally.error_rate() <= 0.0 {
            return Err(format!("a wrong digest for {name} went unnoticed"));
        }
        println!(
            "self-test wrong digest {name}: caught (error_rate {:.4})",
            o.tally.error_rate()
        );
    }
    Ok(())
}

/// Print the digest of every simulation item as a `RECORDED` entry.
fn print_digests() {
    for quick in [true, false] {
        for name in &WORKLOADS[..3] {
            let w = sim_workload(name, quick).expect("simulation workload");
            let mut tally = Tally::default();
            let out = sim::run_pass(&w, &Expected::load(), &mut tally, &mut Spans::new(false));
            for (item, d) in w.items.iter().zip(&out.digests) {
                println!("    (\"{}\", {d:#018x}),", item.name);
            }
            if let Some(fold) = w.fold {
                let folded = bench_suite::fold_fig4_digests(out.digests.iter().copied());
                println!("    (\"{fold}\", {folded:#018x}),");
            }
        }
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.print_digests {
        print_digests();
        return ExitCode::SUCCESS;
    }
    if a.self_test {
        return match self_test(&a.work_dir) {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let expected = Expected::load();
    let mut o = run_workload(&a, &expected);
    report(&a, &mut o);
    for name in required(a.trace) {
        if o.metrics.get(&name).is_none() {
            o.tally.op(Err(format!("metric {name} missing")));
        }
    }
    println!("{}", result_line(&o.tally, &o.metrics));
    if o.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
