//! Property-style randomized tests over the core data structures and
//! invariants.
//!
//! These used to be `proptest` properties; they are now driven by the
//! repo's own seeded [`kernels::input::Prng`] so the whole workspace
//! builds and tests with no registry access. Each property runs a fixed
//! number of seeded cases — deterministic across runs, so a failure
//! message's `case` number is always reproducible.

use kernels::input::Prng;

use barrier_filter::{FilterTable, FilterTableConfig, TableFill, ThreadState};
use cmp_sim::{AddressSpace, Memory, ParkToken, SimConfig};
use sim_isa::{line_of, Asm, Reg, LINE_BYTES};

/// Per-case RNG: decorrelated from neighbouring cases by a fixed stream id.
fn case_rng(stream: u64, case: u64) -> Prng {
    Prng::seed_from_u64(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

// ---------------------------------------------------------------------
// Memory: byte-accurate against a HashMap model
// ---------------------------------------------------------------------

#[test]
fn memory_matches_byte_model() {
    for case in 0..64 {
        let mut r = case_rng(1, case);
        let writes: Vec<(u64, usize, u64)> = (0..1 + r.below(59))
            .map(|_| (r.below(0x4000), 1 + r.below(8) as usize, r.next_u64()))
            .collect();
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::<u64, u8>::new();
        for &(addr, width, value) in &writes {
            mem.write_le(addr, width, value);
            for i in 0..width as u64 {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for &(addr, width, _) in &writes {
            let got = mem.read_le(addr, width);
            let mut want = 0u64;
            for i in 0..width as u64 {
                want |= (*model.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i);
            }
            assert_eq!(got, want, "case {case}: read_le({addr:#x}, {width})");
        }
    }
}

#[test]
fn line_of_is_idempotent_and_aligned() {
    let mut r = case_rng(2, 0);
    for case in 0..256 {
        let addr = r.next_u64();
        let l = line_of(addr);
        assert_eq!(l % LINE_BYTES, 0, "case {case}");
        assert_eq!(line_of(l), l, "case {case}");
        assert!(l <= addr && addr - l < LINE_BYTES, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Address space: bank homing and disjointness
// ---------------------------------------------------------------------

#[test]
fn bank_homed_allocations_are_homed_and_disjoint() {
    for case in 0..32 {
        let mut r = case_rng(3, case);
        let requests: Vec<(usize, u64)> = (0..1 + r.below(19))
            .map(|_| (r.below(4) as usize, 1 + r.below(63)))
            .collect();
        let config = SimConfig::default();
        let mut space = AddressSpace::new(&config);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &(bank, lines) in &requests {
            let base = space.alloc_bank_lines(bank, lines).unwrap();
            for i in 0..lines {
                assert_eq!(config.bank_of(base + i * LINE_BYTES), bank, "case {case}");
            }
            let end = base + lines * LINE_BYTES;
            for &(b, e) in &ranges {
                assert!(end <= b || base >= e, "case {case}: overlap");
            }
            ranges.push((base, end));
        }
    }
}

#[test]
fn data_allocations_never_collide() {
    for case in 0..32 {
        let mut r = case_rng(4, case);
        let requests: Vec<(u64, u32)> = (0..1 + r.below(29))
            .map(|_| (1 + r.below(511), r.below(4) as u32))
            .collect();
        let config = SimConfig::default();
        let mut space = AddressSpace::new(&config);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &(bytes, align_log2) in &requests {
            let align = 1u64 << (3 + align_log2);
            let base = space.alloc(bytes, align).unwrap();
            assert_eq!(base % align, 0, "case {case}");
            for &(b, e) in &ranges {
                assert!(base + bytes <= b || base >= e, "case {case}: overlap");
            }
            ranges.push((base, base + bytes));
        }
    }
}

// ---------------------------------------------------------------------
// Filter table: protocol-conforming event sequences never fault, and the
// barrier opens exactly when the last thread arrives.
// ---------------------------------------------------------------------

#[test]
fn filter_table_protocol_invariants() {
    for case in 0..64 {
        let mut r = case_rng(5, case);
        let threads = 1 + r.below(6) as usize;
        let schedule: Vec<usize> = (0..1 + r.below(199)).map(|_| r.below(8) as usize).collect();
        const A: u64 = 0x2000_0000;
        const E: u64 = 0x2000_4000;
        let mut table = FilterTable::new(FilterTableConfig::entry_exit(A, E, threads));
        // Per-thread protocol position: 0 = before arrival invalidate,
        // 1 = before fill, 2 = parked/waiting for release, 3 = past the
        // barrier (before exit invalidate).
        let mut pos = vec![0u8; threads];
        let mut episodes = 0u64;
        let mut token = 0u64;
        for &pick in &schedule {
            let t = pick % threads;
            let line_a = A + 64 * t as u64;
            let line_e = E + 64 * t as u64;
            match pos[t] {
                0 => {
                    let out = table.on_invalidate(line_a).unwrap();
                    pos[t] = 1;
                    if !out.released.is_empty() || table.thread_state(t) == ThreadState::Servicing {
                        // barrier opened: everyone blocked is now servicing
                        episodes += 1;
                        for (u, p) in pos.iter_mut().enumerate() {
                            if *p == 2 || (*p == 1 && u != t) {
                                *p = 3;
                            }
                        }
                        // the arriving thread itself is also past
                        pos[t] = 3;
                    }
                }
                1 => {
                    token += 1;
                    match table.on_fill(line_a, ParkToken(token), 0).unwrap() {
                        TableFill::Park => pos[t] = 2,
                        TableFill::Service => pos[t] = 3,
                        TableFill::NotMine => panic!("case {case}: arrival must match"),
                    }
                }
                2 => {
                    // parked: nothing to do until release (handled in 0-arm)
                }
                3 => {
                    table.on_invalidate(line_e).unwrap();
                    pos[t] = 0;
                }
                _ => unreachable!(),
            }
            assert!(table.arrived() < threads.max(1), "case {case}");
        }
        assert_eq!(table.stats().episodes, episodes, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Assembler / program round trips
// ---------------------------------------------------------------------

#[test]
fn assembled_programs_fetch_every_pc() {
    for case in 0..32 {
        let mut r = case_rng(6, case);
        let nops = 1 + r.below(99) as usize;
        let jumps = r.below(5) as usize;
        let mut a = Asm::new();
        a.label("entry").unwrap();
        for _ in 0..jumps {
            a.j("end");
        }
        for _ in 0..nops {
            a.nop();
        }
        a.label("end").unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), nops + jumps + 1, "case {case}");
        for (pc, _) in p.iter() {
            assert!(p.fetch(pc).is_some(), "case {case}: pc {pc:#x}");
        }
        assert!(p.fetch(p.code_end()).is_none(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Whole machine: a random integer reduction is exact for any thread count
// and mechanism, and deterministic.
// ---------------------------------------------------------------------

#[test]
fn parallel_sum_is_exact_for_any_gang() {
    use barrier_filter::{BarrierMechanism, BarrierSystem};
    use cmp_sim::MachineBuilder;

    for case in 0..12 {
        let mut r = case_rng(7, case);
        let threads = 1 + r.below(5) as usize;
        let values: Vec<u64> = (0..8 + r.below(56)).map(|_| r.below(1_000_000)).collect();
        let mechanism = BarrierMechanism::ALL[r.below(7) as usize];

        let n = values.len();
        let config = SimConfig::with_cores(threads);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
        let barrier = sys
            .create_barrier(&mut asm, &mut space, mechanism, threads)
            .unwrap();
        let data = space.alloc_u64(n as u64).unwrap();
        let partials = space.alloc_lines(threads as u64).unwrap();
        let out = space.alloc_u64(1).unwrap();
        let chunk = n.div_ceil(threads) as i64;

        asm.label("entry").unwrap();
        asm.li(Reg::T0, chunk);
        asm.mul(Reg::T1, Reg::TID, Reg::T0); // lo
        asm.add(Reg::T2, Reg::T1, Reg::T0);
        asm.li(Reg::T3, n as i64);
        asm.min(Reg::T2, Reg::T2, Reg::T3); // hi
        asm.li(Reg::T4, 0);
        asm.bge(Reg::T1, Reg::T2, "store");
        asm.slli(Reg::T5, Reg::T1, 3);
        asm.li(Reg::T0, data as i64);
        asm.add(Reg::T5, Reg::T5, Reg::T0);
        asm.sub(Reg::T3, Reg::T2, Reg::T1);
        asm.label("acc").unwrap();
        asm.ldd(Reg::T0, Reg::T5, 0);
        asm.add(Reg::T4, Reg::T4, Reg::T0);
        asm.addi(Reg::T5, Reg::T5, 8);
        asm.addi(Reg::T3, Reg::T3, -1);
        asm.bne(Reg::T3, Reg::ZERO, "acc");
        asm.label("store").unwrap();
        asm.slli(Reg::T5, Reg::TID, 6);
        asm.li(Reg::T0, partials as i64);
        asm.add(Reg::T0, Reg::T0, Reg::T5);
        asm.std(Reg::T4, Reg::T0, 0);
        barrier.emit_call(&mut asm);
        asm.bne(Reg::TID, Reg::ZERO, "done");
        asm.li(Reg::T0, partials as i64);
        asm.li(Reg::T1, 0);
        asm.li(Reg::T2, 0);
        asm.label("red").unwrap();
        asm.ldd(Reg::T3, Reg::T0, 0);
        asm.add(Reg::T2, Reg::T2, Reg::T3);
        asm.addi(Reg::T0, Reg::T0, 64);
        asm.addi(Reg::T1, Reg::T1, 1);
        asm.blt(Reg::T1, Reg::NTID, "red");
        asm.li(Reg::T4, out as i64);
        asm.std(Reg::T2, Reg::T4, 0);
        asm.label("done").unwrap();
        asm.halt();

        let program = asm.assemble().unwrap();
        let entry = program.require_symbol("entry").unwrap();
        let mut mb = MachineBuilder::new(config, program).unwrap();
        mb.write_u64_slice(data, &values);
        for _ in 0..threads {
            mb.add_thread(entry);
        }
        sys.install(&mut mb).unwrap();
        let mut machine = mb.build().unwrap();
        let summary = machine.run().unwrap();
        assert_eq!(
            machine.read_u64(out),
            values.iter().sum::<u64>(),
            "case {case}: {threads} threads, {mechanism:?}"
        );
        assert!(summary.cycles > 0, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Whole machine: the decoded executor's spin pool is bit-identical to the
// reference interpreter's polling, at every pause of a randomly paused run.
// ---------------------------------------------------------------------

/// The DATA-region line a spin round waits on.
fn spin_flag(round: u64) -> u64 {
    cmp_sim::DATA_BASE + 0x4000 + round * LINE_BYTES
}

/// Lines sharing round `round`'s flag line's L1D set (64 KiB, 2-way).
fn spin_conflict(round: u64, k: u64) -> u64 {
    spin_flag(round) + k * 0x8000
}

/// A generated spin program: core 0 writes, every other core spins
/// through `rounds` flag rounds.
struct SpinCase {
    program: sim_isa::Program,
    config: SimConfig,
    cores: usize,
    /// Padding nops the harness may patch mid-run.
    pads: Vec<u64>,
}

/// Generate a case: `bne` and `beq` loops, straddling an I-cache line or
/// not; a writer that hits the watched word (with values that keep the
/// loop spinning), other words of its line, lines of its L1 set, `dcbi`,
/// `icbi` of the loop's code and LL/SC before releasing each round; and
/// varied core timing so that same-cycle events are common.
fn spin_case(r: &mut Prng) -> SpinCase {
    let cores = 2 + r.below(3) as usize;
    let rounds = 1 + r.below(3);
    let mut config = SimConfig::with_cores(cores);
    config.timing.issue_width = [1, 2, 4][r.below(3) as usize];
    config.timing.mem_ports = 1 + r.below(2);
    config.timing.branch_taken_penalty = r.below(3);
    config.timing.load = 1 + r.below(2);
    config.l1d.latency = 1 + r.below(3);
    // Small shared levels keep the per-pause state fingerprint cheap.
    config.l2.size_bytes = 256 * 1024;
    config.l3.size_bytes = 512 * 1024;
    // Loop shapes first: the writer's `icbi`s need the loops' pcs, which
    // the layout fixes before the writer is emitted (every instruction
    // is one word, so a second pass reproduces the same addresses).
    let beq: Vec<bool> = (0..rounds).map(|_| r.below(2) == 0).collect();
    let offsets: Vec<u64> = (0..rounds)
        .map(|_| if r.below(2) == 0 { 60 } else { 4 * r.below(15) })
        .collect();
    let private = r.below(2) == 0;
    let noise: Vec<Vec<(u64, u64)>> = (0..rounds)
        .map(|_| {
            (0..2 + r.below(8))
                .map(|_| (r.below(8), r.below(40)))
                .collect()
        })
        .collect();
    let values: Vec<u64> = (0..64).map(|_| 2 + r.below(5)).collect();

    let emit = |loops: &[u64]| -> (sim_isa::Program, Vec<u64>, Vec<u64>) {
        let mut a = Asm::new();
        let mut pads = Vec::new();
        let mut loop_pcs = Vec::new();
        a.label("entry").unwrap();
        a.beq(Reg::TID, Reg::ZERO, "writer");
        for round in 0..rounds {
            let i = round as usize;
            if private {
                // Leave a store draining into the L1D as the spin starts.
                a.slli(Reg::T5, Reg::TID, 6);
                a.li(Reg::T6, (cmp_sim::DATA_BASE + 0x1_0000) as i64);
                a.add(Reg::T5, Reg::T5, Reg::T6);
                a.std(Reg::TID, Reg::T5, 0);
            }
            a.li(Reg::K0, spin_flag(round) as i64);
            a.li(Reg::T1, 1);
            while a.here() % LINE_BYTES != offsets[i] {
                pads.push(a.here());
                a.nop();
            }
            let spin = format!("spin{round}");
            loop_pcs.push(a.here());
            a.label(&spin).unwrap();
            a.ldd(Reg::T0, Reg::K0, 0);
            if beq[i] {
                a.beq(Reg::T0, Reg::ZERO, spin.as_str());
            } else {
                a.bne(Reg::T0, Reg::T1, spin.as_str());
            }
            // Evict the flag line from this core's L1D set.
            for k in 1..=2 {
                a.li(Reg::T5, spin_conflict(round, k) as i64);
                a.ldd(Reg::T6, Reg::T5, 0);
            }
        }
        a.halt();
        a.label("writer").unwrap();
        let mut delay = 0;
        for round in 0..rounds {
            let i = round as usize;
            let flag = spin_flag(round) as i64;
            for (j, &(op, wait)) in noise[i].iter().enumerate() {
                a.li(Reg::T5, flag);
                match op {
                    0 => {
                        let v = if beq[i] { 0 } else { values[j % 64] as i64 };
                        a.li(Reg::T6, v);
                        a.std(Reg::T6, Reg::T5, 0);
                    }
                    1 => {
                        a.li(Reg::T6, values[j % 64] as i64);
                        a.std(Reg::T6, Reg::T5, 8 * (1 + (j as i64 % 7)));
                    }
                    2 => {
                        a.li(Reg::T5, spin_conflict(round, 1 + (j as u64 % 2)) as i64);
                        a.std(Reg::T5, Reg::T5, 0);
                    }
                    3 => {
                        a.dcbi(Reg::T5, 0);
                    }
                    4 => {
                        let pc = loops.get(i).copied().unwrap_or(0);
                        a.li(Reg::T5, line_of(pc) as i64);
                        a.icbi(Reg::T5, 0);
                        a.li(Reg::T5, line_of(pc + 4) as i64);
                        a.icbi(Reg::T5, 0);
                    }
                    5 => {
                        let retry = format!("ll{round}_{j}");
                        a.label(&retry).unwrap();
                        a.ll(Reg::T6, Reg::T5, 0);
                        a.sc(Reg::T7, Reg::T6, Reg::T5, 0);
                        a.beq(Reg::T7, Reg::ZERO, retry.as_str());
                    }
                    _ => {
                        a.ldd(Reg::T6, Reg::T5, 16);
                    }
                }
                if wait > 0 {
                    let l = format!("wait{delay}");
                    delay += 1;
                    a.li(Reg::T4, wait as i64);
                    a.label(&l).unwrap();
                    a.addi(Reg::T4, Reg::T4, -1);
                    a.bne(Reg::T4, Reg::ZERO, l.as_str());
                }
            }
            a.li(Reg::T5, flag);
            a.li(Reg::T6, 1);
            a.std(Reg::T6, Reg::T5, 0);
        }
        a.halt();
        (a.assemble().unwrap(), pads, loop_pcs)
    };
    let (_, _, loops) = emit(&[]);
    let (program, pads, again) = emit(&loops);
    assert_eq!(loops, again, "the layout must not depend on the loop pcs");
    SpinCase {
        program,
        config,
        cores,
        pads,
    }
}

fn spin_machine(case: &SpinCase, decode: bool) -> cmp_sim::Machine {
    let mut config = case.config.clone();
    config.decode_cache = decode;
    let entry = case.program.require_symbol("entry").unwrap();
    let mut mb = cmp_sim::MachineBuilder::new(config, case.program.clone()).unwrap();
    for _ in 0..case.cores {
        mb.add_thread(entry);
    }
    mb.build().unwrap()
}

/// Run one seeded case on both executors, pausing at random cycles (and
/// staging the same code patch on both now and then); returns the decoded
/// run's spin counters.
fn spin_differential(seed: u64) -> cmp_sim::SpinStats {
    use cmp_sim::RunState;
    let mut r = case_rng(11, seed);
    let case = spin_case(&mut r);
    let mut reference = spin_machine(&case, false);
    let mut fast = spin_machine(&case, true);
    let mut pause = 0u64;
    for step in 0.. {
        let span = if r.below(4) == 0 { 2_000 } else { 60 };
        pause += 1 + r.below(span);
        if r.below(8) == 0 && !case.pads.is_empty() {
            let pc = case.pads[r.below(case.pads.len() as u64) as usize];
            let instr = if r.below(2) == 0 {
                sim_isa::Instr::Nop
            } else {
                sim_isa::Instr::Addi(Reg::T6, Reg::T6, 1)
            };
            reference.patch_code(pc, instr).unwrap();
            fast.patch_code(pc, instr).unwrap();
        }
        let a = reference.run_until(pause).unwrap();
        let b = fast.run_until(pause).unwrap();
        let at = format!("seed {seed}, pause {step} at cycle {pause}");
        assert_eq!(a, b, "{at}: run state");
        assert_eq!(reference.now(), fast.now(), "{at}: clock");
        assert_eq!(reference.stats(), fast.stats(), "{at}: MachineStats");
        assert_eq!(
            reference.stats().digest(),
            fast.stats().digest(),
            "{at}: digest"
        );
        assert_eq!(
            reference.state_fingerprint(),
            fast.state_fingerprint(),
            "{at}: registers, pcs, issue accumulators or cache LRU state"
        );
        assert_eq!(reference.spin_stats(), Default::default());
        if matches!(a, RunState::Finished(_)) {
            break;
        }
        assert!(step < 100_000, "seed {seed}: no progress");
    }
    fast.spin_stats()
}

fn spin_fuzz(seeds: std::ops::Range<u64>) {
    let mut total = cmp_sim::SpinStats::default();
    for seed in seeds {
        let s = spin_differential(seed);
        total.parks += s.parks;
        total.wakes += s.wakes;
        total.credited_instructions += s.credited_instructions;
    }
    assert!(total.parks > 0, "no spinner ever parked — vacuous");
    assert!(
        total.credited_instructions > 0,
        "nothing credited — vacuous"
    );
    assert_eq!(total.parks, total.wakes, "every parked core must wake");
}

#[test]
fn spin_pool_matches_polling_at_every_pause() {
    spin_fuzz(0..256);
}

/// The long form of the differential spin fuzz, run in release by
/// `scripts/check.sh`.
#[test]
#[ignore = "slow: run by scripts/check.sh in release"]
fn spin_pool_matches_polling_at_every_pause_long() {
    spin_fuzz(256..1_280);
}
