//! The three simulation workloads: `fig4_spin`, `kernels_filter` and
//! `scale_1024`. Each is a fixed list of digest-checked items, run
//! serially; a pass sets up and runs one item after the other.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use barrier_filter::BarrierMechanism as M;
use bench_suite::{fig4_machine, fold_fig4_digests, scale_clusters, scale_reps};
use cmp_sim::Measurement;
use kernels::livermore::{Loop2, Loop3, Loop6};
use kernels::{
    Autocorr, ExecSpec, KernelError, OceanProxy, RunAttachments, RunOutput, RunSpec, Viterbi,
    WorkloadSpec as W,
};

use crate::expected::Expected;
use crate::layers::{CountingSink, Layers, SinkCounts};
use crate::report::{check_digest, Pass, Tally};
use crate::spans::Spans;

/// How an item is built and run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A Figure 4 barrier loop of this many barriers: built by
    /// `bench_suite::fig4_machine`, run by `Machine::run`.
    Machine { barriers: u64 },
    /// A paper kernel: its constructor generates the inputs, then
    /// `run_with` builds, runs and validates it.
    Kernel,
}

/// One digest-checked unit of work.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    pub spec: RunSpec,
    pub shape: Shape,
}

/// A fixed list of items, plus the name of the pinned digest that the
/// items' digests fold into (`fig4_spin` only).
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub items: Vec<Item>,
    pub fold: Option<&'static str>,
}

fn fig4_item(spec: RunSpec) -> Item {
    let W::Fig4 { inner, outer } = spec.workload else {
        unreachable!("fig4 items are fig4 specs")
    };
    let name = format!(
        "fig4/{}/{}c/{}cl/{inner}x{outer}",
        spec.exec.mechanism.map_or("seq", M::name),
        spec.exec.threads,
        spec.exec.clusters,
    );
    Item {
        name,
        spec,
        shape: Shape::Machine {
            barriers: inner * outer,
        },
    }
}

/// Figure 4 at 16 flat cores: all seven paper mechanisms, 64 × 64
/// barriers each (quick: 8 × 2). The digests fold into the pinned
/// `fig4_16core` digest.
pub fn fig4_spin(quick: bool) -> SimWorkload {
    let (inner, outer) = if quick { (8, 2) } else { (64, 64) };
    SimWorkload {
        items: M::ALL
            .into_iter()
            .map(|m| fig4_item(RunSpec::fig4(m, 16, inner, outer)))
            .collect(),
        fold: Some(if quick {
            "fig4_spin/quick"
        } else {
            crate::expected::FIG4_16CORE
        }),
    }
}

/// The clustered machine: sw-tree, filter-d-hier and hw-dedicated at
/// 1024 cores / 16 clusters plus sw-hier at 256 cores, at `fig_scale`'s
/// rep counts (all pinned in `BENCH_scale.json`). Quick keeps the two
/// cheap 1024-core points.
pub fn scale_1024(quick: bool) -> SimWorkload {
    let mut points = vec![(1024, M::FilterDHier), (1024, M::HwDedicated)];
    if !quick {
        points.insert(0, (1024, M::SwTree));
        points.push((256, M::SwHier));
    }
    SimWorkload {
        items: points
            .into_iter()
            .map(|(cores, m)| {
                let (inner, outer) = scale_reps(cores, m, false);
                fig4_item(RunSpec::fig4(m, cores, inner, outer).clustered(scale_clusters(cores)))
            })
            .collect(),
        fold: None,
    }
}

fn kernel_item(w: W, exec: Option<(usize, M)>) -> Item {
    let spec = match exec {
        Some((threads, m)) => RunSpec::parallel(w, threads, m),
        None => RunSpec::sequential(w),
    };
    let size = match w {
        W::Viterbi {
            constraint,
            data_bits,
            noise_per_mille,
        } => format!("k{constraint}-{data_bits}b-{noise_per_mille}n"),
        W::Autocorr { n, lags } => format!("{n}-{lags}lags"),
        W::Ocean { grid, sweeps } => format!("{grid}g-{sweeps}s"),
        W::Loop2 { n } | W::Loop3 { n } | W::Loop6 { n } => format!("{n}"),
        other => unreachable!("{} is not a kernels_filter kernel", other.kind()),
    };
    let exec = exec.map_or("seq".to_string(), |(t, m)| format!("{m}/{t}t"));
    Item {
        name: format!("{}/{size}/{exec}", w.kind()),
        spec,
        shape: Shape::Kernel,
    }
}

/// The paper kernels at 16 threads under the filter barriers, plus their
/// sequential baselines. Viterbi K5 at 96 bits under filter-d is the
/// pinned `viterbi_k5_16t` run.
pub fn kernels_filter(quick: bool) -> SimWorkload {
    let viterbi = |data_bits| W::Viterbi {
        constraint: 5,
        data_bits,
        noise_per_mille: 10,
    };
    let fd = Some((16, M::FilterD));
    let fi = Some((16, M::FilterI));
    let items = if quick {
        vec![
            kernel_item(viterbi(24), fd),
            kernel_item(viterbi(24), None),
            kernel_item(W::Loop3 { n: 64 }, fi),
        ]
    } else {
        let mut items = Vec::new();
        for w in [
            viterbi(96),
            viterbi(256),
            W::Loop6 { n: 256 },
            W::Autocorr { n: 1024, lags: 32 },
            W::Ocean {
                grid: 130,
                sweeps: 8,
            },
        ] {
            items.push(kernel_item(w, fd));
            items.push(kernel_item(w, None));
        }
        for n in [64, 256, 1024] {
            for w in [W::Loop2 { n }, W::Loop3 { n }] {
                items.push(kernel_item(w, fd));
                items.push(kernel_item(w, fi));
            }
        }
        items.push(kernel_item(W::Loop2 { n: 1024 }, None));
        items.push(kernel_item(W::Loop3 { n: 1024 }, None));
        items
    };
    SimWorkload { items, fold: None }
}

/// A constructed kernel: inputs generated, not yet built.
enum Kernel {
    Loop2(Loop2),
    Loop3(Loop3),
    Loop6(Loop6),
    Autocorr(Autocorr),
    Viterbi(Viterbi),
    Ocean(OceanProxy),
}

impl Kernel {
    fn new(w: &W) -> Kernel {
        match *w {
            W::Loop2 { n } => Kernel::Loop2(Loop2::new(n)),
            W::Loop3 { n } => Kernel::Loop3(Loop3::new(n)),
            W::Loop6 { n } => Kernel::Loop6(Loop6::new(n)),
            W::Autocorr { n, lags } => Kernel::Autocorr(Autocorr::with_lags(n, lags)),
            W::Viterbi {
                constraint,
                data_bits,
                noise_per_mille,
            } => Kernel::Viterbi(Viterbi::with_params(constraint, data_bits, noise_per_mille)),
            W::Ocean { grid, sweeps } => Kernel::Ocean(OceanProxy::new(grid, sweeps)),
            ref other => unreachable!("{} is not a kernels_filter kernel", other.kind()),
        }
    }

    fn run_with(&self, exec: &ExecSpec, att: RunAttachments<'_>) -> Result<RunOutput, KernelError> {
        match self {
            Kernel::Loop2(k) => k.run_with(exec, att),
            Kernel::Loop3(k) => k.run_with(exec, att),
            Kernel::Loop6(k) => k.run_with(exec, att),
            Kernel::Autocorr(k) => k.run_with(exec, att),
            Kernel::Viterbi(k) => k.run_with(exec, att),
            Kernel::Ocean(k) => k.run_with(exec, att),
        }
    }
}

/// What one pass produced: the end-to-end record, the layer counters and
/// every item's digest (0 for a failed item), in item order.
pub struct PassOutput {
    pub pass: Pass,
    pub layers: Layers,
    pub digests: Vec<u64>,
}

/// Run a kernel with a counting observer attached, splitting the host
/// time of the call at the first simulation event (build before, engine
/// after). Sequential runs have no barrier, so no observer, and all of
/// their time counts as engine time. Returns the output, the sink counts
/// (parallel runs only) and `(build, engine)` seconds.
pub fn run_observed(
    spans: &mut Spans,
    item: usize,
    run: impl FnOnce(RunAttachments<'_>) -> Result<RunOutput, KernelError>,
) -> (Result<RunOutput, KernelError>, Option<SinkCounts>, f64, f64) {
    let counts = Rc::new(RefCell::new(SinkCounts::default()));
    let sink = Rc::clone(&counts);
    let att = RunAttachments::observed(move |_| {
        Some(Box::new(CountingSink(sink)) as Box<dyn cmp_sim::TraceSink>)
    });
    let observed = spans.begin("kernels.run", item);
    let t0 = Instant::now();
    let out = run(att);
    let t1 = Instant::now();
    let c = *counts.borrow();
    let (sink, build, engine) = match c.first_event {
        Some(first) => {
            spans.record("kernels.build", item, t0, first);
            spans.record("cmp_sim.run", item, first, t1);
            (
                Some(c),
                (first - t0).as_secs_f64(),
                (t1 - first).as_secs_f64(),
            )
        }
        None => (None, 0.0, (t1 - t0).as_secs_f64()),
    };
    spans.end(observed);
    (out, sink, build, engine)
}

/// Set up and run every item of `w` once, one item at a time so only
/// one machine is alive at once. Traced passes record spans and attach
/// the counting observer to kernel runs; untraced passes time the same
/// calls with nothing attached.
pub fn run_pass(
    w: &SimWorkload,
    expected: &Expected,
    tally: &mut Tally,
    spans: &mut Spans,
) -> PassOutput {
    let traced = spans.enabled();
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let mut digests = Vec::with_capacity(w.items.len());
    for (i, item) in w.items.iter().enumerate() {
        let result = run_item(i, item, &mut pass, &mut layers, spans, traced);
        match result {
            Ok(sim) => {
                pass.instructions += sim.instructions;
                pass.sim_cycles += sim.cycles;
                digests.push(sim.stats_digest);
                tally.op(check_digest(
                    &item.name,
                    sim.stats_digest,
                    expected.get(&item.name),
                ));
            }
            Err(e) => {
                digests.push(0);
                tally.op(Err(format!("{}: {e}", item.name)));
            }
        }
    }
    if let Some(fold) = w.fold {
        let folded = fold_fig4_digests(digests.iter().copied());
        tally.op(check_digest(fold, folded, expected.get(fold)));
    }
    PassOutput {
        pass,
        layers,
        digests,
    }
}

/// Set up (timed as set-up) and run (timed as the pass) one item.
fn run_item(
    i: usize,
    item: &Item,
    pass: &mut Pass,
    layers: &mut Layers,
    spans: &mut Spans,
    traced: bool,
) -> Result<Measurement, String> {
    item.spec.validate().map_err(|e| e.to_string())?;
    let exec = &item.spec.exec;
    match item.shape {
        Shape::Machine { barriers } => {
            let s = spans.begin("bench_suite.fig4_machine", i);
            let t = Instant::now();
            let built = fig4_machine(&item.spec);
            let secs = t.elapsed().as_secs_f64();
            spans.end(s);
            pass.setup(secs);
            layers.build_s += secs;
            let mut m = built.map_err(|e| format!("build: {e}"))?;

            let s = spans.begin("cmp_sim.Machine.run", i);
            let t = Instant::now();
            let summary = m.run();
            let secs = t.elapsed().as_secs_f64();
            spans.end(s);
            pass.op(secs, true);
            layers.engine_s += secs;
            let summary = summary.map_err(|e| e.to_string())?;
            let sim = Measurement::new(&summary, &m.stats());
            layers.engine_instr += sim.instructions;
            layers.add_machine(&m, &sim, barriers);
            Ok(sim)
        }
        Shape::Kernel => {
            let s = spans.begin("kernels.construct", i);
            let t = Instant::now();
            let k = Kernel::new(&item.spec.workload);
            let secs = t.elapsed().as_secs_f64();
            spans.end(s);
            pass.setup(secs);
            layers.input_s += secs;

            let t = Instant::now();
            let (out, sink, build, engine) = if traced {
                run_observed(spans, i, |att| k.run_with(exec, att))
            } else {
                let out = k.run_with(exec, RunAttachments::default());
                (out, None, 0.0, t.elapsed().as_secs_f64())
            };
            let secs = t.elapsed().as_secs_f64();
            pass.op(secs, true);
            layers.kernels_run_s += build + engine;
            layers.build_s += build;
            layers.engine_s += engine;
            let out = out.map_err(|e| e.to_string())?;
            layers.engine_instr += out.outcome.sim.instructions;
            layers.add_outcome(&out.outcome, sink.as_ref());
            Ok(out.outcome.sim)
        }
    }
}
