//! Per-stage engine cost profiler (the `hotpath` binary).
//!
//! The throughput suite reports one number per workload; when it stalls,
//! the next perf PR starts from a blind profile. This module isolates the
//! engine's per-instruction cost *stages* with differential microbenches:
//! single-core straight-line loops whose bodies exercise exactly one
//! engine path, timed with each fast-path knob toggled. Subtracting the
//! pure-ALU ceiling from each variant yields the marginal cost of one
//! stage (dispatch, scheduling, memory) in host nanoseconds per retired
//! instruction — numbers directly comparable across commits because the
//! workloads are fixed.
//!
//! The committed snapshot lives at `results/hotpath.txt`; regenerate it
//! with `cargo run --release -p bench-suite --bin hotpath`.

use std::time::Instant;

use barrier_filter::BarrierMechanism;
use cmp_sim::{Machine, MachineBuilder, SimConfig, DATA_BASE};
use kernels::EngineKnobs;
use sim_isa::{Asm, Reg};

use crate::latency::build_latency_machine;

/// Ops per loop iteration in each microbench body (plus 2 loop-control
/// instructions: `addi` + `bne`).
const BODY_OPS: u64 = 14;

/// Loop iterations — sized so each point runs a few hundred ms in release.
const ITERS: u64 = 400_000;

/// One timed microbench point.
#[derive(Debug, Clone)]
pub struct HotpathPoint {
    /// Point identifier (workload + knob setting).
    pub name: String,
    /// Instructions the simulated run retired.
    pub instructions: u64,
    /// Host wall-clock seconds for the run (excludes machine build).
    pub wall_seconds: f64,
    /// Of `instructions`, those the spin pool credited instead of
    /// interpreting ([`cmp_sim::SpinStats::credited_instructions`]).
    pub credited: u64,
}

impl HotpathPoint {
    /// Host nanoseconds per retired simulated instruction.
    pub fn ns_per_instr(&self) -> f64 {
        self.wall_seconds * 1e9 / self.instructions.max(1) as f64
    }

    /// Million simulated instructions per host second.
    pub fn minstr_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds.max(1e-9) / 1e6
    }
}

/// Which microbench body the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// `BODY_OPS` register-register ALU ops: the exec + step ceiling.
    Alu,
    /// `BODY_OPS` loads of the same resident line: + the load-hit path.
    LoadHit,
    /// `BODY_OPS` stores to the same line: + the store-buffer/drain path.
    Store,
}

fn build_loop(body: Body, knobs: EngineKnobs) -> Machine {
    let mut config = SimConfig::with_cores(1);
    knobs.apply(&mut config);
    let mut asm = Asm::new();
    asm.label("entry").expect("fresh assembler");
    asm.li(Reg::S2, DATA_BASE as i64);
    asm.li(Reg::S0, ITERS as i64);
    asm.label("loop").expect("unique");
    for _ in 0..BODY_OPS {
        match body {
            Body::Alu => asm.add(Reg::T0, Reg::T1, Reg::T2),
            Body::LoadHit => asm.ldd(Reg::T0, Reg::S2, 0),
            Body::Store => asm.std(Reg::T1, Reg::S2, 0),
        };
    }
    asm.addi(Reg::S0, Reg::S0, -1);
    asm.bne(Reg::S0, Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().expect("assembly");
    let entry = program.require_symbol("entry").expect("entry symbol");
    let mut mb = MachineBuilder::new(config, program).expect("builder");
    mb.add_thread(entry);
    mb.build().expect("build")
}

fn run_point(name: &str, body: Body, knobs: EngineKnobs) -> HotpathPoint {
    let mut m = build_loop(body, knobs);
    let t0 = Instant::now();
    let summary = m.run().unwrap_or_else(|e| panic!("hotpath {name}: {e}"));
    HotpathPoint {
        name: name.to_string(),
        instructions: summary.instructions,
        wall_seconds: t0.elapsed().as_secs_f64(),
        credited: m.spin_stats().credited_instructions,
    }
}

/// The full profile: every microbench point plus the fig4 reference
/// workload.
#[derive(Debug)]
pub struct HotpathReport {
    /// Timed points, in measurement order.
    pub points: Vec<HotpathPoint>,
}

impl HotpathReport {
    fn point(&self, name: &str) -> &HotpathPoint {
        self.points
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing hotpath point {name}"))
    }

    /// Marginal cost of `b` over `a` in ns per instruction (clamped at
    /// zero: a negative difference is measurement noise).
    fn delta(&self, a: &str, b: &str) -> f64 {
        (self.point(b).ns_per_instr() - self.point(a).ns_per_instr()).max(0.0)
    }

    /// Render the human-readable report (the committed snapshot format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Engine hot-path profile (single-core microbenches + fig4 reference)\n");
        out.push_str("ns/instr = host nanoseconds per retired simulated instruction\n\n");
        out.push_str(&format!(
            "{:<34} {:>12} {:>9} {:>10} {:>10}\n",
            "point", "sim Minstr", "host s", "ns/instr", "Minstr/s"
        ));
        out.push_str(&"-".repeat(79));
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!(
                "{:<34} {:>12.2} {:>9.3} {:>10.2} {:>10.2}\n",
                p.name,
                p.instructions as f64 / 1e6,
                p.wall_seconds,
                p.ns_per_instr(),
                p.minstr_per_sec()
            ));
        }
        out.push_str("\nDerived stage costs (marginal ns/instr over the ALU ceiling):\n");
        out.push_str(&format!(
            "  exec+step ceiling (alu, all fast paths) : {:>6.2}\n",
            self.point("alu").ns_per_instr()
        ));
        out.push_str(&format!(
            "  decode stage (alu, decode cache off)    : {:>6.2}\n",
            self.delta("alu", "alu_decode_off")
        ));
        out.push_str(&format!(
            "  schedule stage (alu, burst budget 0)    : {:>6.2}\n",
            self.delta("alu", "alu_burst0")
        ));
        out.push_str(&format!(
            "  memory stage, load hit (fused)          : {:>6.2}\n",
            self.delta("alu", "load_hit")
        ));
        out.push_str(&format!(
            "  decoded executor saving on load hits    : {:>6.2}\n",
            self.delta("load_hit", "load_hit_decode_off")
        ));
        out.push_str(&format!(
            "  memory stage, store                     : {:>6.2}\n",
            self.delta("alu", "store")
        ));
        let fig4 = self.points.iter().filter(|p| p.name.starts_with("fig4/"));
        let (credited, retired) =
            fig4.fold((0, 0), |(c, r), p| (c + p.credited, r + p.instructions));
        if retired > 0 {
            out.push_str(&format!(
                "  spin pool, fig4 instructions credited   : {:>5.1}%\n",
                100.0 * credited as f64 / retired as f64
            ));
        }
        out
    }
}

/// Run the whole profile (a few seconds in release).
///
/// # Panics
///
/// Panics if any microbench run fails: the workloads are fixed
/// straight-line loops and must always complete.
pub fn profile() -> HotpathReport {
    let d = EngineKnobs::default();
    let mut points = vec![
        run_point("alu", Body::Alu, d),
        run_point(
            "alu_decode_off",
            Body::Alu,
            EngineKnobs {
                decode_cache: Some(false),
                ..d
            },
        ),
        run_point(
            "alu_burst0",
            Body::Alu,
            EngineKnobs {
                burst_budget: Some(0),
                ..d
            },
        ),
        run_point("load_hit", Body::LoadHit, d),
        run_point(
            "load_hit_decode_off",
            Body::LoadHit,
            EngineKnobs {
                decode_cache: Some(false),
                ..d
            },
        ),
        run_point("store", Body::Store, d),
    ];
    // The fig4 reference, broken out per mechanism: each barrier mechanism
    // stresses a different engine mix (ll/sc retries, fence drains, spin
    // loads, hook events), so the per-mechanism ns/instr localizes which
    // path a regression lives in.
    let mut total_instr = 0u64;
    let mut total_wall = 0f64;
    let mut total_credited = 0u64;
    for mechanism in BarrierMechanism::ALL {
        let mut m = build_latency_machine(mechanism, 16, 64, 64);
        let t0 = Instant::now();
        let summary = m
            .run()
            .unwrap_or_else(|e| panic!("hotpath fig4 {mechanism}: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        total_instr += summary.instructions;
        total_wall += wall;
        let credited = m.spin_stats().credited_instructions;
        total_credited += credited;
        points.push(HotpathPoint {
            name: format!("fig4/{mechanism}"),
            instructions: summary.instructions,
            wall_seconds: wall,
            credited,
        });
    }
    points.push(HotpathPoint {
        name: "fig4_16core (reference)".to_string(),
        instructions: total_instr,
        wall_seconds: total_wall,
        credited: total_credited,
    });
    HotpathReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_points_time_and_report() {
        let p = run_point("alu", Body::Alu, EngineKnobs::default());
        // 14 body ops + addi + bne per iteration, + 2 preamble + halt.
        assert_eq!(p.instructions, ITERS * (BODY_OPS + 2) + 3);
        assert!(p.ns_per_instr() > 0.0);
    }

    #[test]
    fn load_and_store_bodies_run_to_completion() {
        for body in [Body::LoadHit, Body::Store] {
            let p = run_point("m", body, EngineKnobs::default());
            assert_eq!(p.instructions, ITERS * (BODY_OPS + 2) + 3);
        }
    }

    #[test]
    fn report_renders_every_stage() {
        let mk = |name: &str, ns: f64| HotpathPoint {
            name: name.to_string(),
            instructions: 1_000_000,
            wall_seconds: ns * 1e-9 * 1_000_000.0,
            credited: if name.starts_with("fig4/") {
                750_000
            } else {
                0
            },
        };
        let report = HotpathReport {
            points: vec![
                mk("alu", 5.0),
                mk("alu_decode_off", 8.0),
                mk("alu_burst0", 30.0),
                mk("load_hit", 12.0),
                mk("load_hit_decode_off", 15.0),
                mk("store", 20.0),
                mk("fig4/sw-central", 10.0),
            ],
        };
        let text = report.render();
        assert!(text.contains("instructions credited   :  75.0%"));
        assert!(text.contains("schedule stage"));
        assert!(text.contains("decoded executor saving"));
        assert!(text.contains("25.00"), "burst0 delta = 30 - 5");
    }
}
