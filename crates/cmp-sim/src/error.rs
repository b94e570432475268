//! Simulator error type.

use std::fmt;

use crate::hook::HookViolation;

/// Everything that can abort a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A core's program counter left the code image or became misaligned.
    IllegalPc {
        /// Core that faulted.
        core: usize,
        /// Offending program counter.
        pc: u64,
    },
    /// A data access was not naturally aligned for its width.
    UnalignedAccess {
        /// Core that faulted.
        core: usize,
        /// Program counter of the access.
        pc: u64,
        /// Target address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
    /// A store targeted the (read/execute-only) code region.
    CodeRegionWrite {
        /// Core that faulted.
        core: usize,
        /// Program counter of the store.
        pc: u64,
        /// Target address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivisionByZero {
        /// Core that faulted.
        core: usize,
        /// Program counter of the divide.
        pc: u64,
    },
    /// Every unfinished core is blocked and no event can unblock them.
    /// Carries a human-readable description of each blocked core.
    Deadlock {
        /// Cycle at which forward progress stopped.
        cycle: u64,
        /// `(core, reason)` for each unfinished core.
        blocked: Vec<(usize, String)>,
    },
    /// The simulation exceeded [`SimConfig::cycle_limit`](crate::SimConfig).
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// Every unfinished core that can still run spins on a flag nothing
    /// will ever write, and no cycle limit bounds the run: polling would
    /// never return. Only the decoded executor detects this (its spin pool
    /// holds every live spinner with no event pending); the reference
    /// interpreter spins until [`SimConfig::cycle_limit`](crate::SimConfig).
    Livelock {
        /// Cycle of the last event before only spinning remained.
        cycle: u64,
        /// The spinning cores.
        spinners: Vec<usize>,
    },
    /// An L2 bank hook (barrier filter) detected a protocol violation —
    /// the architectural exception of §3.3.4.
    Hook {
        /// Cycle of the violation.
        cycle: u64,
        /// Line address involved.
        line: u64,
        /// Violation detail.
        violation: HookViolation,
    },
    /// An instruction fetch's parked fill was completed with an embedded
    /// error code (hardware timeout); for instruction fills this is an
    /// exception, since there is no value in which to embed the code.
    IFetchErrorReply {
        /// Core that faulted.
        core: usize,
        /// The arrival line whose fill errored.
        line: u64,
    },
    /// A core ran out of miss-status holding registers. Cannot occur with
    /// the in-order model and default configuration; kept as a guard.
    MshrOverflow {
        /// Core that overflowed.
        core: usize,
    },
    /// A `hwbar` instruction named a barrier id with no configured group.
    UnknownHwBarrier {
        /// Core that executed the instruction.
        core: usize,
        /// The unknown barrier id.
        id: u16,
    },
    /// A `hwbar` instruction was executed by a core outside the barrier's
    /// configured group.
    HwBarrierWrongCore {
        /// Core that executed the instruction.
        core: usize,
        /// The barrier id.
        id: u16,
    },
    /// [`Machine::patch_code`](crate::Machine::patch_code) named an address
    /// outside the program image (or misaligned), so there is no
    /// instruction slot to patch.
    PatchOutsideCode {
        /// The offending address.
        pc: u64,
    },
    /// [`Machine::resume_thread`](crate::Machine::resume_thread) was called
    /// for a core that is not context-switched out. Recoverable: fault
    /// injectors and OS models get a typed error instead of a panic.
    NotSwitchedOut {
        /// The core that was not switched out.
        core: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalPc { core, pc } => {
                write!(f, "core {core}: illegal program counter {pc:#x}")
            }
            SimError::UnalignedAccess {
                core,
                pc,
                addr,
                width,
            } => write!(
                f,
                "core {core} at pc {pc:#x}: unaligned {width}-byte access to {addr:#x}"
            ),
            SimError::CodeRegionWrite { core, pc, addr } => {
                write!(
                    f,
                    "core {core} at pc {pc:#x}: store to code region at {addr:#x}"
                )
            }
            SimError::DivisionByZero { core, pc } => {
                write!(f, "core {core} at pc {pc:#x}: division by zero")
            }
            SimError::Deadlock { cycle, blocked } => {
                write!(f, "deadlock at cycle {cycle}: ")?;
                for (i, (core, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "core {core} {why}")?;
                }
                Ok(())
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::Livelock { cycle, spinners } => write!(
                f,
                "livelock at cycle {cycle}: cores {spinners:?} spin on flags no event can change"
            ),
            SimError::Hook {
                cycle,
                line,
                violation,
            } => write!(
                f,
                "barrier-filter protocol violation at cycle {cycle} on line {line:#x}: {violation}"
            ),
            SimError::IFetchErrorReply { core, line } => write!(
                f,
                "core {core}: instruction fill for {line:#x} completed with an error reply"
            ),
            SimError::MshrOverflow { core } => write!(f, "core {core}: MSHR overflow"),
            SimError::UnknownHwBarrier { core, id } => {
                write!(f, "core {core}: hwbar {id} has no configured barrier group")
            }
            SimError::HwBarrierWrongCore { core, id } => {
                write!(
                    f,
                    "core {core} is not a member of hardware barrier group {id}"
                )
            }
            SimError::PatchOutsideCode { pc } => {
                write!(f, "code patch targets {pc:#x}, outside the program image")
            }
            SimError::NotSwitchedOut { core } => {
                write!(f, "core {core} is not context-switched out")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SimError::Deadlock {
            cycle: 100,
            blocked: vec![(0, "parked at barrier line 0x2000".into())],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("core 0"));

        let e = SimError::UnalignedAccess {
            core: 2,
            pc: 0x10004,
            addr: 0x1003,
            width: 8,
        };
        assert!(e.to_string().contains("unaligned"));
    }
}
