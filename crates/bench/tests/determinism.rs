//! Determinism regression tests for the simulation engine.
//!
//! The engine's correctness contract is bit-level reproducibility: the same
//! `SimConfig` and program must produce the same cycle counts, instruction
//! counts and full `MachineStats` on every run, in every process. The
//! hot-path machinery this guards — the calendar event queue's
//! same-cycle FIFO order and the deterministic `FxHashMap` line tables —
//! has no randomized fallback, so any divergence here is a real engine bug,
//! not flakiness.

use analyze::RaceDetectorSink;
use barrier_filter::BarrierMechanism;
use bench_suite::latency::{barrier_latency, fig4_machine, fig4_machine_with, run_latency};
use bench_suite::scale::scale_clusters;
use bench_suite::throughput::{
    fig4_sample_with, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST,
};
use bench_suite::{build_latency_machine, SweepRunner};
use cmp_sim::{Measurement, TraceConfig, TraceSink};
use kernels::viterbi::Viterbi;
use kernels::{EngineKnobs, ExecSpec, RunAttachments, RunSpec};

/// Run the Figure 4 micro-benchmark twice from scratch and require the
/// whole observable outcome — `RunSummary` and the full `MachineStats`
/// snapshot (caches, directory, buses, per-core counters) — to match.
fn assert_repeatable(mechanism: BarrierMechanism) {
    let (cores, inner, outer) = (8, 8, 2);
    let mut a = build_latency_machine(mechanism, cores, inner, outer);
    let mut b = build_latency_machine(mechanism, cores, inner, outer);
    let sa = a.run().expect("first run");
    let sb = b.run().expect("second run");
    assert_eq!(sa, sb, "{mechanism}: RunSummary must be identical");
    assert!(sa.cycles > 0 && sa.instructions > 0);
    assert_eq!(
        a.stats(),
        b.stats(),
        "{mechanism}: full MachineStats must be identical"
    );
    assert_eq!(a.stats().digest(), b.stats().digest());
}

#[test]
fn software_central_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::SwCentral);
}

#[test]
fn software_tree_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::SwTree);
}

#[test]
fn filter_d_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::FilterD);
}

#[test]
fn filter_i_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::FilterI);
}

/// The topology layer's degenerate case: `fig_scale` reaches the 16-core
/// machine through a [`RunSpec`] clustered with `scale_clusters(16)` (the
/// spec shape every clustered point uses), while the historical figures
/// go through `barrier_latency`'s flat sugar. The two must be the same
/// machine bit-for-bit — same `Measurement` (cycles, instructions, stats
/// digest) — or the 1-cluster topology is not actually degenerate.
#[test]
fn the_scale_path_reproduces_the_flat_machine_bit_identically() {
    let (inner, outer) = (8, 2);
    for mechanism in [
        BarrierMechanism::SwCentral,
        BarrierMechanism::FilterD,
        BarrierMechanism::SwHier,
        BarrierMechanism::FilterDHier,
    ] {
        let flat = barrier_latency(mechanism, 16, inner, outer).expect("flat path");
        let spec = RunSpec::fig4(mechanism, 16, inner, outer).clustered(scale_clusters(16));
        let scaled = run_latency(&spec).expect("scale path");
        assert_eq!(
            flat.sim, scaled.sim,
            "{mechanism}: the 1-cluster topology must be degenerate"
        );
        assert_eq!(flat.cycles_per_barrier, scaled.cycles_per_barrier);
        assert!(flat.sim.cycles > 0);
    }
}

/// Run-twice determinism beyond the old 64-core ceiling: a 256-core
/// clustered machine (16 clusters x 16 cores) under both tree-combining
/// variants must reproduce its whole `Measurement` from scratch.
#[test]
fn clustered_256_core_tree_barriers_are_deterministic() {
    for mechanism in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
        let spec = RunSpec::fig4(mechanism, 256, 4, 2).clustered(scale_clusters(256));
        let run = || run_latency(&spec).expect("256-core run");
        let (a, b) = (run(), run());
        assert_eq!(
            a.sim, b.sim,
            "{mechanism}: 256-core measurement must be reproducible"
        );
        assert_eq!(a.cycles_per_barrier, b.cycles_per_barrier);
        assert_eq!(a.cores, 256);
        assert!(a.sim.cycles > 0);
    }
}

#[test]
fn viterbi_kernel_is_deterministic_end_to_end() {
    // A data-bearing kernel (not just the barrier loop): coherence traffic,
    // store buffers and parked fills all in play.
    let run = || {
        Viterbi::new(32)
            .run_parallel(4, BarrierMechanism::FilterD)
            .expect("viterbi run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.sim, b.sim);
    assert!(a.sim.cycles > 0);
    assert!(
        a.sim.episodes.episodes > 0,
        "FilterD runs have barrier episodes"
    );
}

/// The sink-invariance contract: enabling ANY trace sink must leave
/// `MachineStats::digest()` and cycle counts bit-identical to the
/// untraced run. Sinks are observers; if one ever acquires a simulated
/// resource or perturbs event order, this fails.
#[test]
fn trace_sinks_never_change_simulated_behaviour() {
    let (cores, inner, outer) = (8, 8, 2);
    let tmp = std::env::temp_dir().join("fastbar_determinism_sink.trace.json");
    let chrome = TraceConfig::ChromeJson {
        path: tmp.to_str().expect("utf-8 temp path").to_string(),
    };
    for mechanism in [
        BarrierMechanism::FilterD,
        BarrierMechanism::SwCentral,
        BarrierMechanism::HwDedicated,
    ] {
        let mut base = build_latency_machine(mechanism, cores, inner, outer);
        let sum_base = base.run().expect("untraced run");
        let stats_base = base.stats();
        for trace in [TraceConfig::ring(), TraceConfig::Metrics, chrome.clone()] {
            let label = format!("{mechanism} with {trace:?}");
            let spec = RunSpec::fig4(mechanism, cores, inner, outer);
            let mut m = fig4_machine_with(&spec, &mut RunAttachments::traced(trace))
                .expect("traced machine");
            let sum = m.run().expect("traced run");
            assert_eq!(sum, sum_base, "{label}: RunSummary diverged");
            let stats = m.stats();
            assert_eq!(
                stats.digest(),
                stats_base.digest(),
                "{label}: stats digest diverged"
            );
            assert_eq!(stats, stats_base, "{label}: full MachineStats diverged");
        }
    }
    std::fs::remove_file(&tmp).ok();
}

/// The strongest form of the observer contract: attaching the
/// happens-before race detector to the two committed throughput
/// workloads must reproduce their *pinned* digests bit-for-bit — not
/// merely match an unobserved re-run, but land on the exact constants
/// every past trajectory committed to. A detector that acquires a
/// simulated resource, reorders an event, or even perturbs trace
/// emission timing fails here. And the observation is not vacuous: the
/// detector must actually have processed events and found both
/// workloads race-free.
#[test]
fn race_detector_leaves_pinned_digests_bit_identical() {
    // fig4_16core: all seven mechanisms at 16 cores, 64 × 64 barriers,
    // one detector per mechanism run.
    let mut handles = Vec::new();
    let fig4 = fig4_sample_with(16, 64, 64, EngineKnobs::default(), |bar| {
        let sink = RaceDetectorSink::new([bar.protocol()]);
        handles.push(sink.handle());
        Some(Box::new(sink) as Box<dyn TraceSink>)
    });
    assert_eq!(
        fig4.sim.stats_digest, EXPECTED_FIG4_16CORE_DIGEST,
        "fig4_16core digest moved under observation: {:#018x} != committed {:#018x}",
        fig4.sim.stats_digest, EXPECTED_FIG4_16CORE_DIGEST
    );
    assert_eq!(handles.len(), BarrierMechanism::ALL.len());
    let mut observed_traffic = 0;
    for handle in &handles {
        let report = handle.report();
        assert!(!report.racy(), "barrier loop raced: {:?}", report.races);
        // The dedicated-network loop legitimately touches no memory at
        // all; the software and filter loops must show sync traffic.
        observed_traffic += report.sync_accesses + report.writes_checked;
    }
    assert!(observed_traffic > 0, "no detector saw any event — vacuous");

    // viterbi_k5_16t: the committed kernel workload (K=5, 96 data bits,
    // 16 threads, FilterD), observed end to end.
    let mut handle = None;
    let outcome = Viterbi::new(96)
        .run_with(
            &ExecSpec::parallel(16, BarrierMechanism::FilterD),
            RunAttachments::observed(|bar| {
                let sink = RaceDetectorSink::new([bar.protocol()]);
                handle = Some(sink.handle());
                Some(Box::new(sink))
            }),
        )
        .expect("observed viterbi workload")
        .outcome;
    assert_eq!(
        outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST,
        "viterbi_k5_16t digest moved under observation: {:#018x} != committed {:#018x}",
        outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST
    );
    let report = handle.expect("observe hook ran").report();
    assert!(!report.racy(), "viterbi raced: {:?}", report.races);
    assert!(report.reads_checked > 0 && report.writes_checked > 0);
}

/// Per-episode accounting on a FilterD barrier loop at N threads: each of
/// the `inner * outer` barriers runs exactly one episode, and every
/// thread's arrival fill is either parked (it got there early) or serviced
/// directly (it was the episode's own releaser — its dcbi opened the
/// barrier before its read reached the hook). So across the run
/// `parks + serviced == N * episodes` exactly, and every parked fill is
/// released with data (`releases == parks`). Note serviced is *at least*
/// one per episode, not exactly one: when release fan-out overlaps the
/// next barrier's arrivals, a fast re-arriver can also be serviced
/// directly rather than parked.
#[test]
fn filter_d_episode_accounting_is_exact() {
    let (cores, inner, outer) = (8u64, 8u64, 2u64);
    let mut m = build_latency_machine(BarrierMechanism::FilterD, cores as usize, inner, outer);
    m.run().expect("FilterD loop");
    let e = m.stats().episodes;
    let episodes = inner * outer;
    assert_eq!(e.episodes, episodes, "one episode per barrier");
    assert_eq!(
        e.parks + e.serviced,
        cores * episodes,
        "every thread's arrival fill is either parked or serviced"
    );
    assert_eq!(e.releases, e.parks, "every parked fill is released");
    assert_eq!(e.errors, 0, "no timeouts in a clean run");
    assert!(
        e.serviced >= episodes,
        "at least the releasing arriver of each episode is serviced directly \
         ({} serviced < {episodes} episodes)",
        e.serviced
    );
    assert!(e.arrival_spread_total > 0, "arrivals are not simultaneous");
    assert!(e.release_fanout_total > 0, "release fan-out takes cycles");
    // The digest must NOT cover episode stats (historical digests predate
    // them); fills_parked, which it does cover, must agree with the
    // episode layer.
    assert_eq!(m.stats().fills_parked(), e.parks);
}

/// The host-parallelism contract: running the Figure 4 grid on a
/// `SweepRunner` with any worker count yields the same results, in the
/// same order, as the serial sweep — bit-identical `RunSummary`, full
/// `MachineStats`, and digests per grid point. The sweep points share no
/// simulated state, so the only way this can fail is a runner bug
/// (result-slot mixup, lost job) or a hidden global in the engine.
#[test]
fn parallel_sweep_matches_serial_sweep() {
    let (inner, outer) = (8u64, 2);
    let grid: Vec<(BarrierMechanism, usize)> = BarrierMechanism::ALL
        .into_iter()
        .flat_map(|m| [4usize, 8].into_iter().map(move |c| (m, c)))
        .collect();
    let sweep = |jobs: usize| {
        SweepRunner::new(jobs)
            .run_all(&grid, |_, &(mechanism, cores)| {
                let mut m = build_latency_machine(mechanism, cores, inner, outer);
                let summary = m.run().expect("grid point");
                (summary, m.stats().clone())
            })
            .expect("no panics in the grid")
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial.len(), grid.len());
    for (i, ((ser_sum, ser_stats), (par_sum, par_stats))) in
        serial.iter().zip(&parallel).enumerate()
    {
        let (mechanism, cores) = grid[i];
        let label = format!("{mechanism} @ {cores} cores (grid slot {i})");
        assert_eq!(ser_sum, par_sum, "{label}: RunSummary diverged");
        assert_eq!(ser_stats, par_stats, "{label}: full MachineStats diverged");
        assert_eq!(
            ser_stats.digest(),
            par_stats.digest(),
            "{label}: digest diverged"
        );
    }
}

/// The engine fast-path contract, as a full matrix: the core-step burst
/// (consuming a core's own ready events in place while every queued event
/// is strictly later) and the decoded-superblock cache (executing
/// pre-decoded instruction runs, with memory ops fused, without touching
/// `Program::fetch`) are execution shortcuts, not model changes. Every
/// combination of `burst_budget ∈ {0, 1, 64}` × `decode_cache` must yield
/// a bit-identical `RunSummary`, full `MachineStats`, and digest for every
/// barrier mechanism. The matrix is held non-vacuous through the engine's
/// own host-side counters: budgets 0 and 1 must never burst (a burst
/// needs at least two steps), budget 64 must; with the decode cache on it
/// must hit and retire fused accesses — for every mechanism whose barrier
/// loop touches data memory at all (filter-i stores its arrival flag then
/// sleeps on an interrupt, so its loop can legitimately retire zero fused
/// *loads*), with an aggregate check that fused loads and line-memo hits
/// actually happened somewhere in the matrix, and the software barriers'
/// flag spins must be credited by the spin pool rather than interpreted;
/// with it off, every decode, fused and spin counter must read zero.
#[test]
fn engine_fast_paths_never_change_simulated_behaviour() {
    let (cores, inner, outer) = (8, 8, 2);
    let budgets = [0u32, 1, 64];
    let mut fused_loads_anywhere = 0u64;
    let mut fused_memo_hits_anywhere = 0u64;
    for mechanism in BarrierMechanism::ALL {
        let run = |knobs: EngineKnobs| {
            let spec = RunSpec::fig4(mechanism, cores, inner, outer).with_knobs(knobs);
            let mut m = fig4_machine(&spec).expect("fig4 machine");
            let summary = m.run().expect("barrier loop");
            (
                summary,
                m.stats().clone(),
                m.burst_retired(),
                m.decode_stats(),
                m.fused_stats(),
                m.spin_stats(),
            )
        };
        let (ref_sum, ref_stats, ..) = run(EngineKnobs {
            burst_budget: Some(0),
            decode_cache: Some(false),
        });
        let ref_digest = ref_stats.digest();
        let l1d_traffic: u64 = ref_stats.l1d.iter().map(|c| c.hits + c.misses).sum();
        for budget in budgets {
            for decode in [false, true] {
                let label = format!("{mechanism} budget={budget} decode={decode}");
                let (sum, stats, bursts, dstats, fstats, spin) = run(EngineKnobs {
                    burst_budget: Some(budget),
                    decode_cache: Some(decode),
                });
                assert_eq!(sum, ref_sum, "{label}: RunSummary diverged");
                assert_eq!(stats, ref_stats, "{label}: full MachineStats diverged");
                assert_eq!(stats.digest(), ref_digest, "{label}: digest diverged");
                if budget < 2 {
                    assert_eq!(bursts, 0, "{label}: a burst needs at least two steps");
                } else {
                    assert!(bursts > 0, "{label}: burst path never engaged — vacuous");
                }
                if decode {
                    assert!(dstats.hits > 0, "{label}: decode cache never hit — vacuous");
                    assert!(dstats.builds > 0, "{label}: decode cache built nothing");
                    if l1d_traffic > 0 {
                        assert!(
                            fstats.loads + fstats.stores > 0,
                            "{label}: loop touches data memory but the fused \
                             executor retired nothing — vacuous"
                        );
                    }
                    fused_loads_anywhere += fstats.loads;
                    fused_memo_hits_anywhere += fstats.memo_hits;
                    if matches!(
                        mechanism,
                        BarrierMechanism::SwCentral | BarrierMechanism::SwTree
                    ) {
                        assert!(
                            spin.credited_instructions > 0,
                            "{label}: flag spins never credited — the spin pool is vacuous"
                        );
                    }
                } else {
                    assert_eq!(
                        dstats,
                        Default::default(),
                        "{label}: disabled decode cache must stay silent"
                    );
                    assert_eq!(
                        fstats,
                        Default::default(),
                        "{label}: fused-memory counters must stay silent"
                    );
                    assert_eq!(
                        spin,
                        Default::default(),
                        "{label}: the reference interpreter never parks a spinner"
                    );
                }
            }
        }
    }
    assert!(
        fused_loads_anywhere > 0,
        "no mechanism retired a fused load — the fused path is vacuous"
    );
    assert!(
        fused_memo_hits_anywhere > 0,
        "no mechanism hit the fused line memo — the memo path is vacuous"
    );
}

/// The knob matrix beyond the flat topology: one 256-core clustered point
/// (16 clusters × 16 cores, tree-combining software barrier) must produce
/// the identical `Measurement` — digest included — with the decode cache
/// on and off, held non-vacuous through the same counters as the flat
/// matrix (its hierarchical barrier's flag spins are credited with the
/// decode cache on, never with it off).
#[test]
fn clustered_256_core_knob_matrix_is_digest_invariant() {
    let run = |decode: bool| {
        let spec = RunSpec::fig4(BarrierMechanism::SwHier, 256, 4, 2)
            .clustered(scale_clusters(256))
            .with_knobs(EngineKnobs {
                decode_cache: Some(decode),
                ..EngineKnobs::default()
            });
        let mut m = fig4_machine(&spec).expect("256-core clustered machine");
        let summary = m.run().expect("256-core clustered run");
        (
            Measurement::new(&summary, &m.stats()),
            m.fused_stats(),
            m.spin_stats(),
        )
    };
    let (reference, off, off_spin) = run(false);
    assert_eq!(
        off,
        Default::default(),
        "decode off must retire nothing fused"
    );
    assert_eq!(off_spin, Default::default(), "decode off must never park");
    let (on, fused, spin) = run(true);
    assert_eq!(on, reference, "256-core decode=true: Measurement diverged");
    assert!(
        fused.loads > 0,
        "256-core decode=true: no fused loads — vacuous"
    );
    assert!(
        spin.credited_instructions > 0,
        "256-core decode=true: sw-hier flag spins never credited — vacuous"
    );
}

/// The decode cache must reproduce the *pinned* digests of both committed
/// throughput workloads with the cache disabled — not merely match a
/// same-process re-run. The committed constants were minted by engine
/// trajectories without the decoded-superblock layer, so hitting them
/// from both sides of the switch proves the cache is invisible to the
/// simulated machine on the real workloads, at full 16-core scale.
/// Non-vacuousness is pinned through the host-side counters on both
/// sides: off-runs must report zero decode activity, on-runs must hit.
#[test]
fn decode_cache_reproduces_pinned_digests_on_and_off() {
    for decode in [false, true] {
        let knobs = EngineKnobs {
            decode_cache: Some(decode),
            ..EngineKnobs::default()
        };
        let fig4 = fig4_sample_with(16, 64, 64, knobs, |_| None);
        assert_eq!(
            fig4.sim.stats_digest, EXPECTED_FIG4_16CORE_DIGEST,
            "fig4_16core digest moved with decode_cache={decode}: {:#018x} != committed {:#018x}",
            fig4.sim.stats_digest, EXPECTED_FIG4_16CORE_DIGEST
        );
        let mut exec = ExecSpec::parallel(16, BarrierMechanism::FilterD);
        exec.knobs = knobs;
        let outcome = Viterbi::new(96)
            .run_with(&exec, RunAttachments::default())
            .expect("viterbi workload")
            .outcome;
        assert_eq!(
            outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST,
            "viterbi_k5_16t digest moved with decode_cache={decode}: {:#018x} != committed {:#018x}",
            outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST
        );
        if decode {
            assert!(
                fig4.decode.hits > 0,
                "fig4 decode cache never hit — vacuous"
            );
            assert!(outcome.decode.hits > 0, "viterbi decode cache never hit");
        } else {
            assert_eq!(fig4.decode, Default::default());
            assert_eq!(outcome.decode, Default::default());
        }
    }
}
