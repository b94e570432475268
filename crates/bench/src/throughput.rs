//! Wall-clock simulator-throughput benchmark.
//!
//! The paper's figures are about *simulated* cycles; this module is about
//! how fast the simulator itself chews through them. Every PR that touches
//! the engine hot path runs `cargo run --release -p bench-suite --bin
//! throughput` and commits the resulting `BENCH_throughput.json`, so the
//! host-throughput trajectory is tracked alongside the paper results.
//!
//! Two invariants make these numbers comparable across commits:
//!
//! 1. The workloads are fixed: the Figure 4 barrier-latency sweep (all
//!    mechanisms, 16 cores, 64 × 64 barriers) and the Viterbi kernel
//!    (K=5, 16 threads, FilterD).
//! 2. Each sample reports the simulated cycle count and a
//!    [`MachineStats::digest`](cmp_sim::MachineStats) fingerprint; an
//!    engine optimization must leave both bit-identical. Host seconds may
//!    move, simulated behaviour may not.

use std::time::Instant;

use barrier_filter::{Barrier, BarrierMechanism};
use cmp_sim::{json_escape, DecodeCacheStats, FusedMemStats, Measurement, SpinStats, TraceSink};
use kernels::viterbi::Viterbi;
use kernels::{EngineKnobs, ExecSpec, RunAttachments, RunSpec};

use crate::latency::fig4_machine_with;
use crate::sweep::SweepRunner;

/// Committed digest of the full `fig4_16core` workload (16 cores, 64 × 64
/// barriers, all mechanisms chained in [`BarrierMechanism::ALL`] order).
/// Every engine optimization must reproduce it bit-for-bit.
pub const EXPECTED_FIG4_16CORE_DIGEST: u64 = 0x0546_812c_cc90_cd5e;

/// Committed digest of the full `viterbi_k5_16t` workload (96 data bits,
/// 16 threads, FilterD).
pub const EXPECTED_VITERBI_K5_16T_DIGEST: u64 = 0x6694_92d6_5199_a9fb;

/// One measured workload: the shared [`Measurement`] record (simulated
/// cycles, instructions, digest, episode metrics — none of which may
/// change across engine PRs) plus the host-side timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSample {
    /// Workload identifier (stable across PRs; new workloads append).
    pub workload: String,
    /// The simulated-run record shared with every other measurement layer.
    pub sim: Measurement,
    /// Host wall-clock seconds for the simulation calls only (excludes
    /// machine construction and input generation).
    pub wall_seconds: f64,
    /// `sim.instructions / wall_seconds` — the headline number.
    pub instr_per_sec: f64,
    /// Decoded-superblock cache counters summed over the workload's
    /// machines. Host-side engine metrics (schema v3): they vary with
    /// [`SimConfig::decode_cache`](cmp_sim::SimConfig::decode_cache)
    /// while `sim` stays bit-identical.
    pub decode: DecodeCacheStats,
    /// Memory-op-fused executor counters summed over the workload's
    /// machines (schema v4). All zero when the decode cache is off.
    pub fused: FusedMemStats,
    /// Spin-pool counters summed over the workload's machines (schema
    /// v6): parks, wakes and instructions credited instead of
    /// interpreted. All zero when the decode cache is off.
    pub spin: SpinStats,
}

fn sample(
    workload: &str,
    sim: Measurement,
    wall_seconds: f64,
    decode: DecodeCacheStats,
    fused: FusedMemStats,
    spin: SpinStats,
) -> ThroughputSample {
    ThroughputSample {
        workload: workload.to_string(),
        sim,
        wall_seconds,
        instr_per_sec: sim.instructions as f64 / wall_seconds.max(1e-9),
        decode,
        fused,
        spin,
    }
}

/// The measured outcome of one mechanism's run within the fig4 workload —
/// the unit of host parallelism when the workload runs on a
/// [`SweepRunner`].
#[derive(Debug, Clone)]
struct Fig4Part {
    sim: Measurement,
    wall: f64,
    decode: DecodeCacheStats,
    fused: FusedMemStats,
    spin: SpinStats,
}

fn fig4_finish(mechanism: BarrierMechanism, cores: usize, mut m: cmp_sim::Machine) -> Fig4Part {
    let t0 = Instant::now();
    let summary = m
        .run()
        .unwrap_or_else(|e| panic!("fig4 {mechanism} @ {cores} cores failed: {e}"));
    let wall = t0.elapsed().as_secs_f64();
    Fig4Part {
        sim: Measurement::new(&summary, &m.stats()),
        wall,
        decode: m.decode_stats(),
        fused: m.fused_stats(),
        spin: m.spin_stats(),
    }
}

fn fig4_part(spec: &RunSpec, mut att: RunAttachments<'_>) -> Fig4Part {
    let mechanism = spec.exec.mechanism.expect("fig4 parts are parallel");
    let cores = spec.exec.threads;
    let m = fig4_machine_with(spec, &mut att)
        .unwrap_or_else(|e| panic!("fig4 {mechanism} @ {cores} cores failed to build: {e}"));
    fig4_finish(mechanism, cores, m)
}

/// Fold per-mechanism parts — which must be in [`BarrierMechanism::ALL`]
/// order — into the combined fig4 sample. The digest chain is
/// order-sensitive by design, so the fold reproduces the serial digest
/// exactly no matter which part's simulation finished first on the host.
fn fold_fig4(cores: usize, parts: &[Fig4Part]) -> ThroughputSample {
    let mut sim = Measurement::default();
    let mut wall = 0f64;
    let mut decode = DecodeCacheStats::default();
    let mut fused = FusedMemStats::default();
    let mut spin = SpinStats::default();
    for part in parts {
        sim.cycles += part.sim.cycles;
        sim.instructions += part.sim.instructions;
        wall += part.wall;
        decode.hits += part.decode.hits;
        decode.builds += part.decode.builds;
        decode.invalidations += part.decode.invalidations;
        fused.loads += part.fused.loads;
        fused.stores += part.fused.stores;
        fused.memo_hits += part.fused.memo_hits;
        spin.parks += part.spin.parks;
        spin.wakes += part.spin.wakes;
        spin.credited_instructions += part.spin.credited_instructions;
        sim.episodes.merge(&part.sim.episodes);
    }
    sim.stats_digest = fold_fig4_digests(parts.iter().map(|p| p.sim.stats_digest));
    sample(&format!("fig4_{cores}core"), sim, wall, decode, fused, spin)
}

/// The per-mechanism [`RunSpec`]s of the fig4 workload: every mechanism
/// in [`BarrierMechanism::ALL`] at `cores` cores, `inner` × `outer`
/// barriers each, sharing `knobs`. These are the exact values a serve
/// batch, a cache key and the in-process sample agree on.
pub fn fig4_specs(cores: usize, inner: u64, outer: u64, knobs: EngineKnobs) -> Vec<RunSpec> {
    BarrierMechanism::ALL
        .into_iter()
        .map(|mechanism| RunSpec::fig4(mechanism, cores, inner, outer).with_knobs(knobs))
        .collect()
}

/// Chain per-mechanism stats digests — which must be in
/// [`BarrierMechanism::ALL`] order — into the combined fig4 workload
/// digest (the value pinned by [`EXPECTED_FIG4_16CORE_DIGEST`]). Public
/// so a serve client can fold the digests it got off the wire and check
/// them against the committed value.
pub fn fold_fig4_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for d in digests {
        for b in d.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }
    digest
}

/// The Figure 4 workload: every barrier mechanism at `cores` cores,
/// `inner` × `outer` barriers each. Returns totals across mechanisms and a
/// digest chained over each run's full stats snapshot.
///
/// # Panics
///
/// Panics if any mechanism's run fails: the workload is fixed and must
/// always complete.
pub fn fig4_sample(cores: usize, inner: u64, outer: u64) -> ThroughputSample {
    fig4_sample_with(cores, inner, outer, EngineKnobs::default(), |_| None)
}

/// [`fig4_sample`] with every engine fast-path knob explicit (a `None`
/// knob keeps the config default) and a hook that may attach a trace
/// sink (e.g. a race detector) to each mechanism's machine once its
/// barrier is registered. Knobs are host-side execution strategies and
/// sinks are observers: every combination must yield a bit-identical
/// chained digest — `tests/determinism.rs` and `throughput --check` pin
/// this against the committed [`EXPECTED_FIG4_16CORE_DIGEST`].
///
/// # Panics
///
/// Panics if any mechanism's run fails.
pub fn fig4_sample_with(
    cores: usize,
    inner: u64,
    outer: u64,
    knobs: EngineKnobs,
    mut observe: impl FnMut(&Barrier) -> Option<Box<dyn TraceSink>>,
) -> ThroughputSample {
    let parts: Vec<Fig4Part> = fig4_specs(cores, inner, outer, knobs)
        .iter()
        .map(|spec| {
            fig4_part(
                spec,
                RunAttachments::observed(&mut |b: &Barrier| observe(b)),
            )
        })
        .collect();
    fold_fig4(cores, &parts)
}

/// The Viterbi workload: the paper's worst-scaling kernel (K=5, 16
/// threads, FilterD), dominated by fine-grained barrier episodes and
/// line ping-pong — a directory/coherence-heavy counterweight to the
/// barrier-only fig4 loop.
///
/// # Panics
///
/// Panics if the kernel fails to run or validate.
pub fn viterbi_sample(data_bits: usize, threads: usize) -> ThroughputSample {
    let v = Viterbi::new(data_bits);
    let t0 = Instant::now();
    let outcome = v
        .run_parallel(threads, BarrierMechanism::FilterD)
        .expect("viterbi throughput workload");
    let wall = t0.elapsed().as_secs_f64();
    sample(
        &format!("viterbi_k5_{threads}t"),
        outcome.sim,
        wall,
        outcome.decode,
        outcome.fused,
        outcome.spin,
    )
}

/// [`viterbi_sample`] with a Chrome trace streamed to `trace_path`
/// (viewable in `chrome://tracing`/Perfetto). The digest and cycle count
/// are bit-identical to the untraced run; `wall_seconds` includes the
/// trace-writing overhead, so traced samples should not be committed to
/// `BENCH_throughput.json`.
///
/// # Panics
///
/// Panics if the kernel fails to run, validate, or open the trace file.
pub fn viterbi_sample_traced(
    data_bits: usize,
    threads: usize,
    trace_path: &str,
) -> ThroughputSample {
    let v = Viterbi::new(data_bits);
    let trace = cmp_sim::TraceConfig::ChromeJson {
        path: trace_path.to_string(),
    };
    let t0 = Instant::now();
    let outcome = v
        .run_with(
            &ExecSpec::parallel(threads, BarrierMechanism::FilterD),
            RunAttachments::traced(trace),
        )
        .expect("traced viterbi throughput workload")
        .outcome;
    let wall = t0.elapsed().as_secs_f64();
    sample(
        &format!("viterbi_k5_{threads}t_traced"),
        outcome.sim,
        wall,
        outcome.decode,
        outcome.fused,
        outcome.spin,
    )
}

/// One independent simulation of the throughput suite — the job unit the
/// [`SweepRunner`] schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuiteJob {
    /// One mechanism's run of the fig4 workload.
    Fig4(BarrierMechanism),
    /// The whole Viterbi workload (a single machine).
    Viterbi,
}

enum SuiteOut {
    Fig4(Fig4Part),
    Viterbi(Box<ThroughputSample>),
}

/// The whole throughput suite executed on `runner`: the seven fig4
/// mechanism runs and the Viterbi kernel as eight independent jobs.
/// `samples` is `[fig4_{cores}core, viterbi_k5_{threads}t]` — built from
/// per-job results reassembled in workload order, so every simulated
/// number and digest is bit-identical to the serial suite.
/// `suite_wall_seconds` is the host wall time of the whole batch, the
/// quantity host parallelism actually improves (per-sample `wall_seconds`
/// stays the *sum* of that workload's simulation times, comparable across
/// job counts).
pub struct SuiteResult {
    /// `[fig4, viterbi]` samples, in that order.
    pub samples: Vec<ThroughputSample>,
    /// Host wall-clock seconds for the whole batch, dispatch to last join.
    pub suite_wall_seconds: f64,
}

/// Run the throughput suite on `runner`.
///
/// # Panics
///
/// Panics if any workload fails: the suite is fixed and must always
/// complete.
pub fn run_suite(
    runner: &SweepRunner,
    cores: usize,
    inner: u64,
    outer: u64,
    vit_bits: usize,
    vit_threads: usize,
) -> SuiteResult {
    let jobs: Vec<SuiteJob> = BarrierMechanism::ALL
        .into_iter()
        .map(SuiteJob::Fig4)
        .chain(std::iter::once(SuiteJob::Viterbi))
        .collect();
    let t0 = Instant::now();
    let outs = runner
        .run_all(&jobs, |_, &job| match job {
            SuiteJob::Fig4(mechanism) => SuiteOut::Fig4(fig4_part(
                &RunSpec::fig4(mechanism, cores, inner, outer),
                RunAttachments::default(),
            )),
            SuiteJob::Viterbi => SuiteOut::Viterbi(Box::new(viterbi_sample(vit_bits, vit_threads))),
        })
        .unwrap_or_else(|e| panic!("throughput suite: {e}"));
    let suite_wall_seconds = t0.elapsed().as_secs_f64();
    // Jobs come back in dispatch order: ALL-order fig4 parts, then viterbi.
    let mut parts = Vec::new();
    let mut viterbi = None;
    for out in outs {
        match out {
            SuiteOut::Fig4(p) => parts.push(p),
            SuiteOut::Viterbi(s) => viterbi = Some(*s),
        }
    }
    SuiteResult {
        samples: vec![
            fold_fig4(cores, &parts),
            viterbi.expect("viterbi job present"),
        ],
        suite_wall_seconds,
    }
}

/// The `BENCH_throughput.json` document: the fixed workload samples plus
/// the host-parallelism context that makes wall times interpretable.
pub struct ThroughputDoc {
    /// Worker count the parallel pass ran with.
    pub jobs: usize,
    /// Hardware threads the host reported (`available_parallelism`) — a
    /// `jobs > host_threads` run is oversubscribed and its parallel wall
    /// time says nothing about runner scaling.
    pub host_threads: usize,
    /// Whole-suite wall seconds with one worker.
    pub serial_wall_seconds: f64,
    /// Whole-suite wall seconds with `jobs` workers.
    pub parallel_wall_seconds: f64,
    /// Per-workload samples (simulated numbers identical in both passes).
    pub samples: Vec<ThroughputSample>,
}

/// Serialize the document as `BENCH_throughput.json` (std-only,
/// hand-rolled JSON: the repo builds with no registry access).
///
/// Schema `fastbar-throughput/v6`: per-sample simulated fields
/// (`sim_cycles`, `sim_instructions`, `stats_digest`, `episodes`) plus the
/// host-side engine counter objects `decode` (decoded-superblock cache
/// hits, builds, invalidations), `fused` (memory-op-fused executor
/// loads, stores and line-memo hits) and `spin` (spin-pool parks, wakes
/// and credited instructions).
pub fn to_json(doc: &ThroughputDoc) -> String {
    let mut out = String::from("{\n  \"schema\": \"fastbar-throughput/v6\",\n");
    out.push_str(&format!("  \"jobs\": {},\n", doc.jobs));
    out.push_str(&format!("  \"host_threads\": {},\n", doc.host_threads));
    out.push_str(&format!(
        "  \"serial_wall_seconds\": {:.6},\n",
        doc.serial_wall_seconds
    ));
    out.push_str(&format!(
        "  \"parallel_wall_seconds\": {:.6},\n",
        doc.parallel_wall_seconds
    ));
    out.push_str("  \"samples\": [\n");
    let samples = &doc.samples;
    for (i, s) in samples.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": \"{}\", ", json_escape(&s.workload)));
        out.push_str(&format!("\"sim_cycles\": {}, ", s.sim.cycles));
        out.push_str(&format!("\"sim_instructions\": {}, ", s.sim.instructions));
        out.push_str(&format!("\"wall_seconds\": {:.6}, ", s.wall_seconds));
        out.push_str(&format!("\"instr_per_sec\": {:.1}, ", s.instr_per_sec));
        out.push_str(&format!(
            "\"stats_digest\": \"{:#018x}\", ",
            s.sim.stats_digest
        ));
        let e = &s.sim.episodes;
        out.push_str(&format!(
            "\"episodes\": {{\"count\": {}, \"parks\": {}, \"releases\": {}, \
             \"serviced\": {}, \"mean_arrival_spread\": {:.1}, \
             \"mean_release_fanout\": {:.1}}}, ",
            e.episodes,
            e.parks,
            e.releases,
            e.serviced,
            e.mean_arrival_spread(),
            e.mean_release_fanout(),
        ));
        let d = &s.decode;
        out.push_str(&format!(
            "\"decode\": {{\"hits\": {}, \"builds\": {}, \"invalidations\": {}}}, ",
            d.hits, d.builds, d.invalidations,
        ));
        let f = &s.fused;
        out.push_str(&format!(
            "\"fused\": {{\"loads\": {}, \"stores\": {}, \"memo_hits\": {}}}, ",
            f.loads, f.stores, f.memo_hits,
        ));
        let p = &s.spin;
        out.push_str(&format!(
            "\"spin\": {{\"parks\": {}, \"wakes\": {}, \"credited_instructions\": {}}}",
            p.parks, p.wakes, p.credited_instructions,
        ));
        out.push('}');
        if i + 1 < samples.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::EpisodeStats;

    fn doc(samples: Vec<ThroughputSample>) -> ThroughputDoc {
        ThroughputDoc {
            jobs: 2,
            host_threads: 8,
            serial_wall_seconds: 1.5,
            parallel_wall_seconds: 0.75,
            samples,
        }
    }

    fn meas(cycles: u64, instructions: u64, stats_digest: u64) -> Measurement {
        Measurement {
            cycles,
            instructions,
            stats_digest,
            episodes: EpisodeStats::default(),
        }
    }

    fn decode(hits: u64, builds: u64, invalidations: u64) -> DecodeCacheStats {
        DecodeCacheStats {
            hits,
            builds,
            invalidations,
        }
    }

    fn fused(loads: u64, stores: u64, memo_hits: u64) -> FusedMemStats {
        FusedMemStats {
            loads,
            stores,
            memo_hits,
        }
    }

    #[test]
    fn fig4_sample_is_deterministic_in_simulated_terms() {
        let a = fig4_sample(4, 4, 2);
        let b = fig4_sample(4, 4, 2);
        assert_eq!(a.sim.cycles, b.sim.cycles);
        assert_eq!(a.sim.instructions, b.sim.instructions);
        assert_eq!(a.sim.stats_digest, b.sim.stats_digest);
        assert!(a.instr_per_sec > 0.0);
    }

    #[test]
    fn parallel_suite_matches_serial_samples() {
        let (cores, inner, outer, bits, threads) = (4, 4, 2, 24, 4);
        let serial_fig4 = fig4_sample(cores, inner, outer);
        let serial_vit = viterbi_sample(bits, threads);
        let suite = run_suite(&SweepRunner::new(4), cores, inner, outer, bits, threads);
        assert_eq!(suite.samples.len(), 2);
        assert!(suite.suite_wall_seconds > 0.0);
        for (par, ser) in suite.samples.iter().zip([&serial_fig4, &serial_vit]) {
            assert_eq!(par.workload, ser.workload);
            assert_eq!(par.sim, ser.sim, "simulated record must be identical");
        }
    }

    #[test]
    fn json_document_has_schema_and_all_samples() {
        let j = to_json(&doc(vec![
            sample(
                "w1",
                meas(10, 20, 7),
                0.5,
                decode(100, 4, 1),
                fused(30, 2, 25),
                SpinStats {
                    parks: 3,
                    wakes: 3,
                    credited_instructions: 17,
                },
            ),
            sample(
                "w2",
                meas(1, 2, 9),
                0.25,
                decode(0, 0, 0),
                fused(0, 0, 0),
                SpinStats::default(),
            ),
        ]));
        assert!(j.contains("fastbar-throughput/v6"));
        assert!(j.contains("\"jobs\": 2"));
        assert!(j.contains("\"host_threads\": 8"));
        assert!(j.contains("\"serial_wall_seconds\": 1.500000"));
        assert!(j.contains("\"parallel_wall_seconds\": 0.750000"));
        assert!(j.contains("\"workload\": \"w1\""));
        assert!(
            j.contains("\"stats_digest\": \"0x0000000000000007\""),
            "digests are always emitted as hex now"
        );
        assert!(j.contains("\"instr_per_sec\": 40.0"));
        assert!(j.contains("\"episodes\": {\"count\": 0"));
        assert!(
            j.contains("\"decode\": {\"hits\": 100, \"builds\": 4, \"invalidations\": 1}"),
            "v3 samples carry the decoded-superblock counters"
        );
        assert!(j.contains("\"decode\": {\"hits\": 0, \"builds\": 0, \"invalidations\": 0}"));
        assert!(
            j.contains("\"fused\": {\"loads\": 30, \"stores\": 2, \"memo_hits\": 25}"),
            "samples carry the fused-memory counters"
        );
        assert!(j.contains("\"fused\": {\"loads\": 0, \"stores\": 0, \"memo_hits\": 0}"));
        assert!(
            j.contains("\"spin\": {\"parks\": 3, \"wakes\": 3, \"credited_instructions\": 17}"),
            "v6 samples carry the spin-pool counters"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let j = to_json(&doc(vec![sample(
            "w\"quoted\\slash",
            meas(1, 1, 0),
            0.5,
            decode(0, 0, 0),
            fused(0, 0, 0),
            SpinStats::default(),
        )]));
        assert!(j.contains("\"workload\": \"w\\\"quoted\\\\slash\""));
    }
}
