//! The spin pool: barrier spinners parked off the event queue.
//!
//! Every software barrier spins on a flag with a two-instruction loop,
//! `ld rd, off(base)` then `bne`/`beq` back to the load. While the flag
//! line stays in the core's L1D, its code line(s) in the L1I and the
//! memory word unchanged, each iteration repeats exactly: the same cache
//! hits, the same register value, the same issue costs. Polling that loop
//! costs the engine two queue events per iteration, for nothing the rest
//! of the machine can observe. The pool takes such a core off the queue
//! instead and credits its iterations in bulk when it wakes (machine.rs
//! decides when a core parks and when it wakes; this module keeps the
//! order bookkeeping and the arithmetic).
//!
//! ## Exactness
//!
//! A parked core's instructions still happen, each at the cycle and in the
//! queue position polling would give it; they are just not materialised
//! until needed. Each such *virtual event* has a cycle and an **epoch**:
//! the queue's sequence counter when its predecessor ran, which is when
//! polling would have pushed it. At equal cycles, a virtual event precedes
//! a real event pushed at sequence number `s` exactly when its epoch is
//! below `s`. Virtual events push nothing, so real events never depend on
//! them, and two spinners never touch each other's state. The pool
//! therefore only needs the order of real events relative to its own:
//! while it is non-empty, the run loop logs each popped event's
//! `(cycle, seq)` and the counter after it ran, and a replay walks each
//! spinner's chain of virtual events against that log.
//!
//! Two virtual events of one cycle and one epoch are ordered by when their
//! predecessors ran. Pushes are FIFO, so that order is the order of the
//! most recent ancestors that ran at different cycles (earlier cycle
//! first). Where the chains never differ back to the last
//! [`renormalise`](SpinPool::renormalise), the ranks assigned there
//! decide. Every spinner's chain is periodic (period 24 elements), so the
//! walk back takes at most 24 steps before it can jump to that point.
//!
//! A woken core's next event goes back into the calendar at its exact key
//! ([`CalendarQueue::insert_after`](crate::event_queue)). Later virtual
//! events sort after it at equal epochs, which is correct because they
//! are pushed later; the parked spinners whose pending events tie with it
//! but precede it are listed in a [`Note`] that the replay and later
//! re-insertions honour.

use std::cmp::Ordering;

use crate::fastmap::FxHashMap;

/// Log length at which the pool replays and clears its log, bounding its
/// memory independently of how long the spinners wait.
const LOG_CAP: usize = 4096;

/// No spinner slot (per-core index into [`SpinPool::spinners`]).
const NONE: u32 = u32::MAX;

/// Host-side spin-pool counters.
///
/// Engine metrics like [`Machine::burst_retired`](crate::Machine::burst_retired):
/// they vary with [`SimConfig::decode_cache`](crate::SimConfig::decode_cache)
/// (the pool rides the decoded executor) while every simulated number
/// stays bit-identical, so they are not part of
/// [`MachineStats`](crate::MachineStats) or its digest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpinStats {
    /// Cores taken off the event queue at a spin branch.
    pub parks: u64,
    /// Cores put back on the queue (a write, invalidation or pause woke
    /// them, or they tied with a core that woke).
    pub wakes: u64,
    /// Instructions retired by crediting instead of interpreting.
    pub credited_instructions: u64,
}

/// Which instruction of the loop a virtual event executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Load,
    Branch,
}

/// A virtual event's instruction and the issue accumulator before it
/// runs, packed as `phase * 12 + frac` (24 states).
type State = usize;

fn state(phase: Phase, frac: u64) -> State {
    (phase == Phase::Branch) as usize * 12 + frac as usize
}

/// Loop timing shared by every spinner of a machine, as step tables over
/// the 24 states.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpinTiming {
    /// Successor state and the cycles to it.
    next: [(u8, u32); 24],
    /// Predecessor state and the cycles back to it.
    back: [(u8, u32); 24],
    /// Cycles per 24 elements (12 iterations), after which the issue
    /// accumulator is back where it started: `12 * branch + load_units`.
    period: u64,
}

impl SpinTiming {
    /// Timing for loops whose taken branch costs `branch` cycles and
    /// whose load costs `load_units` twelfths of a cycle. `None` when an
    /// iteration would not fit the tables or would not advance the clock
    /// (such a core is never parked).
    pub fn new(branch: u64, load_units: u64) -> Option<SpinTiming> {
        let period = 12 * branch + load_units;
        // Every loop element stays well inside the calendar's ring, so a
        // re-inserted event never lands in its overflow heap mid-run.
        if period == 0 || branch > 64 || load_units > 64 * 12 {
            return None;
        }
        let mut next = [(0u8, 0u32); 24];
        let mut back = [(0u8, 0u32); 24];
        for frac in 0..12u64 {
            let units = frac + load_units;
            let after_load = state(Phase::Branch, units % 12);
            next[state(Phase::Load, frac)] = (after_load as u8, (units / 12) as u32);
            back[after_load] = (state(Phase::Load, frac) as u8, (units / 12) as u32);
            next[state(Phase::Branch, frac)] = (state(Phase::Load, frac) as u8, branch as u32);
            back[state(Phase::Load, frac)] = (state(Phase::Branch, frac) as u8, branch as u32);
        }
        Some(SpinTiming { next, back, period })
    }
}

/// One parked core: its loop, its next virtual event, and what it has
/// been credited since it parked.
#[derive(Debug, Clone)]
pub(crate) struct Spinner {
    pub core: u32,
    /// Pc of the loop's load (the branch is the next instruction).
    pub load_pc: u64,
    /// The flag word: the load's address, width in bytes, and line.
    pub addr: u64,
    pub width: u64,
    pub line: u64,
    /// Its L1D slot.
    pub l1d_slot: u32,
    /// L1I slots of the load's and the branch's lines when the loop
    /// straddles two I-cache lines (each iteration then looks both up).
    pub straddle: Option<(u32, u32)>,
    /// Decoded block starting at the load.
    pub block: (u32, u32),
    /// Which park of this core (the pool's park count when it parked).
    park_id: u64,
    /// Cycle of the next virtual event.
    pub cycle: u64,
    /// Its epoch (see the module docs).
    pub epoch: u64,
    /// Its state.
    state: State,
    /// Elements credited since the core parked, the first a load.
    elements: u64,
    /// `elements` at the last renormalisation.
    renormalised_at: u64,
    /// Order among the spinners at the last renormalisation.
    rank: u32,
    /// Parked during the current renormalisation: its first event was
    /// pushed after every other pending one.
    fresh: bool,
    /// The core's L1D lost another line since `stale_loads` loads were
    /// credited, so the next load misses the line memo (a set walk with
    /// the same simulated effect as a memo hit, but not counted as one).
    stale: bool,
    stale_loads: u64,
    /// Credited loads that missed the memo that way.
    memo_misses: u64,
}

impl Spinner {
    /// A core just parked at its spin branch: its next event is the load
    /// at `cycle`, pushed at counter `epoch`, with issue accumulator
    /// `frac`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        core: usize,
        load_pc: u64,
        addr: u64,
        width: u64,
        l1d_slot: u32,
        straddle: Option<(u32, u32)>,
        block: (u32, u32),
        cycle: u64,
        epoch: u64,
        frac: u64,
    ) -> Spinner {
        Spinner {
            core: core as u32,
            load_pc,
            addr,
            width,
            line: sim_isa::line_of(addr),
            l1d_slot,
            straddle,
            block,
            park_id: 0,
            cycle,
            epoch,
            state: state(Phase::Load, frac),
            elements: 0,
            renormalised_at: 0,
            rank: 0,
            fresh: true,
            stale: false,
            stale_loads: 0,
            memo_misses: 0,
        }
    }

    /// The next virtual event's instruction.
    pub fn phase(&self) -> Phase {
        if self.state < 12 {
            Phase::Load
        } else {
            Phase::Branch
        }
    }

    /// The issue accumulator before the next virtual event runs.
    pub fn frac(&self) -> u64 {
        (self.state % 12) as u64
    }

    /// Credited loads (elements alternate, starting with a load).
    pub fn loads(&self) -> u64 {
        self.elements.div_ceil(2)
    }

    /// Credited instructions.
    pub fn credited(&self) -> u64 {
        self.elements
    }

    /// Cycle of the last credited element (meaningful once one ran).
    pub fn last_run(&self, t: &SpinTiming) -> u64 {
        self.cycle - u64::from(t.back[self.state].1)
    }

    /// The core's L1D generation just moved (another line was
    /// invalidated). The pool must be synced.
    fn note_generation(&mut self) {
        if self.memo_retaken() {
            self.memo_misses += 1;
        }
        self.stale = true;
        self.stale_loads = self.loads();
    }

    /// Credited loads that found the line memo valid.
    pub fn memo_hits(&self) -> u64 {
        self.loads() - self.memo_misses - u64::from(self.memo_retaken())
    }

    /// Whether a load re-took the line memo after the last generation
    /// change, so the memo is valid again at the current generation.
    pub fn memo_retaken(&self) -> bool {
        self.stale && self.loads() > self.stale_loads
    }

    /// Whether a write of `width` bytes at `addr` touches the flag word.
    pub fn overlaps(&self, addr: u64, width: u64) -> bool {
        addr < self.addr + self.width && self.addr < addr + width
    }

    fn ident(&self) -> Ident {
        (self.core, self.park_id, self.elements)
    }

    fn chain(&self) -> Chain {
        Chain {
            cycle: self.cycle,
            epoch: self.epoch,
            state: self.state,
            elements: self.elements,
        }
    }

    fn set_chain(&mut self, c: Chain) {
        (self.cycle, self.epoch, self.state, self.elements) =
            (c.cycle, c.epoch, c.state, c.elements);
    }
}

/// A spinner's next virtual event and its credited element count, copied
/// out for the replay loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chain {
    cycle: u64,
    epoch: u64,
    state: State,
    elements: u64,
}

impl Chain {
    /// Run the next virtual event.
    #[inline(always)]
    fn step(&mut self, t: &SpinTiming) {
        let (next, dt) = t.next[self.state];
        self.state = next as State;
        self.cycle += u64::from(dt);
        self.elements += 1;
    }

    /// Run every virtual event strictly before `cycle`, whole periods at a
    /// time where possible, while the queue counter reads `counter`.
    #[inline(always)]
    fn run_below(&mut self, cycle: u64, counter: u64, t: &SpinTiming) {
        if self.cycle >= cycle {
            return;
        }
        self.epoch = counter;
        let span = cycle - self.cycle;
        if span > 2 * t.period {
            // Every element of the jumped periods lies before
            // `self.cycle + k * period <= cycle - period`.
            let k = span / t.period - 1;
            self.cycle += k * t.period;
            self.elements += 24 * k;
        }
        while self.cycle < cycle {
            self.step(t);
        }
    }

    /// Run every virtual event that precedes a real event at `cycle`
    /// pushed at `seq` (or, with `seq` absent, every event before
    /// `cycle`). Only the pending event can tie with it at `cycle`: every
    /// later one is pushed at `counter >= seq`, after it.
    /// `noted` says a re-inserted event at an equal epoch was noted to
    /// follow this pending event.
    #[inline(always)]
    fn run_before(
        &mut self,
        cycle: u64,
        seq: Option<u64>,
        noted: impl FnOnce() -> bool,
        counter: u64,
        t: &SpinTiming,
    ) {
        if self.cycle > cycle
            || (self.cycle == cycle
                && !seq.is_some_and(|s| self.epoch < s || (self.epoch == s && noted())))
        {
            return;
        }
        self.step(t);
        self.epoch = counter;
        self.run_below(cycle, counter, t);
    }
}

/// The true order of two spinners' pending events (see the module docs).
fn order(a: &Spinner, b: &Spinner, t: &SpinTiming) -> Ordering {
    (a.cycle, a.epoch)
        .cmp(&(b.cycle, b.epoch))
        .then_with(|| lineage(a, b, t))
}

/// Order of two pending events at the same cycle and epoch: by their
/// most recent ancestors at different cycles, else by rank.
fn lineage(a: &Spinner, b: &Spinner, t: &SpinTiming) -> Ordering {
    if a.fresh || b.fresh {
        return a.fresh.cmp(&b.fresh);
    }
    let (mut sa, mut da) = (a.state, a.elements - a.renormalised_at);
    let (mut sb, mut db) = (b.state, b.elements - b.renormalised_at);
    let mut walked = 0;
    loop {
        if da == 0 || db == 0 {
            // An event pending at the last renormalisation was pushed
            // before any event pushed since.
            return match (da, db) {
                (0, 0) => a.rank.cmp(&b.rank),
                (0, _) => Ordering::Less,
                _ => Ordering::Greater,
            };
        }
        let (qa, dta) = t.back[sa];
        let (qb, dtb) = t.back[sb];
        if dta != dtb {
            // The ancestor further back ran at the earlier cycle.
            return dtb.cmp(&dta);
        }
        (sa, da) = (qa as State, da - 1);
        (sb, db) = (qb as State, db - 1);
        walked += 1;
        if walked == 24 {
            // Both chains repeat every 24 elements: equal for one period,
            // equal back to the last renormalisation.
            let m = da.min(db);
            da -= m;
            db -= m;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LogEntry {
    cycle: u64,
    seq: u64,
    /// Queue counter after the event ran.
    after: u64,
    /// Index into [`SpinPool::entry_notes`] when the event was a
    /// re-inserted spinner event with a [`Note`], else [`NONE`].
    note: u32,
    /// `bumps[bumps_from..bumps_to]`: parked cores whose L1D generation
    /// the event moved.
    bumps_from: u32,
    bumps_to: u32,
}

/// One virtual event of one spinner: its core, which park of that core,
/// and how many elements the chain had run when it was pending.
type Ident = (u32, u64, u64);

/// A woken core's re-inserted event, and the parked spinners whose
/// pending events tie with it (same cycle and epoch) but precede it. They
/// stay parked; the replay runs them first, and if one wakes too it is
/// re-inserted ahead of this event.
#[derive(Debug, Clone)]
struct Note {
    core: u32,
    cycle: u64,
    epoch: u64,
    before: Vec<Ident>,
}

/// How far a replay runs the spinners beyond the log.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bound {
    /// Up to the logged events only.
    LogEnd,
    /// Up to, not including, the event being dispatched.
    Current,
    /// Every virtual event before this cycle.
    Cycle(u64),
}

/// The pool (see the module docs).
#[derive(Debug)]
pub(crate) struct SpinPool {
    /// `None` when this machine's loops could never park.
    timing: Option<SpinTiming>,
    spinners: Vec<Spinner>,
    /// Per core: index into `spinners`, or [`NONE`].
    slot: Vec<u32>,
    /// Spinners per watched L1D line, so a store finds its waiters with
    /// one probe.
    watched: FxHashMap<u64, u32>,
    log: Vec<LogEntry>,
    /// Replay scratch: the log's cycle index.
    first: Vec<u32>,
    /// Queue counter in effect where the log starts.
    base: u64,
    /// The event being dispatched, as `(cycle, seq)`, and its note.
    current: Option<(u64, u64)>,
    current_note: Option<Vec<Ident>>,
    /// Notes of re-inserted events still queued.
    notes: Vec<Note>,
    /// Notes of logged events (indexed by [`LogEntry::note`]).
    entry_notes: Vec<Vec<Ident>>,
    /// Generation bumps of logged events and, past the last entry's
    /// range, of the current one.
    bumps: Vec<u32>,
    /// Every spinner is already replayed up to `current`.
    synced: bool,
    stats: SpinStats,
}

impl SpinPool {
    pub fn new(cores: usize, timing: Option<SpinTiming>) -> SpinPool {
        SpinPool {
            timing,
            spinners: Vec::new(),
            slot: vec![NONE; cores],
            watched: FxHashMap::default(),
            log: Vec::new(),
            first: Vec::new(),
            base: 0,
            current: None,
            current_note: None,
            notes: Vec::new(),
            entry_notes: Vec::new(),
            bumps: Vec::new(),
            synced: false,
            stats: SpinStats::default(),
        }
    }

    pub fn timing(&self) -> Option<&SpinTiming> {
        self.timing.as_ref()
    }

    /// The loop timing, which exists whenever a core is parked.
    fn loop_timing(&self) -> SpinTiming {
        self.timing.expect("a parked core implies loop timing")
    }

    pub fn stats(&self) -> SpinStats {
        self.stats
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spinners.is_empty()
    }

    pub fn len(&self) -> usize {
        self.spinners.len()
    }

    pub fn get(&self, core: usize) -> Option<&Spinner> {
        self.spinners.get(self.slot[core] as usize)
    }

    /// Whether some spinner reads `line`.
    #[inline]
    pub fn watches(&self, line: u64) -> bool {
        !self.spinners.is_empty() && self.watched.contains_key(&line)
    }

    /// The cores whose flag word a write of `width` bytes at `addr`
    /// touches.
    pub fn watchers(&self, addr: u64, width: u64) -> Vec<usize> {
        self.spinners
            .iter()
            .filter(|s| s.overlaps(addr, width))
            .map(|s| s.core as usize)
            .collect()
    }

    /// Core `core` (parked) just lost a line other than its flag line
    /// from its L1D, during the current event. Recorded with the event's
    /// log entry, and applied when the replay passes it.
    pub fn note_generation(&mut self, core: usize) {
        if self.synced {
            // Already replayed up to this event: apply it now.
            let i = self.slot[core] as usize;
            self.spinners[i].note_generation();
        } else {
            self.bumps.push(core as u32);
        }
    }

    /// The parked cores, ascending.
    pub fn cores(&self) -> Vec<usize> {
        let mut cores: Vec<usize> = self.spinners.iter().map(|s| s.core as usize).collect();
        cores.sort_unstable();
        cores
    }

    /// The run loop is about to dispatch an event popped at `cycle` with
    /// sequence number `seq`; `core` is the core of a ready event.
    pub fn begin(&mut self, cycle: u64, seq: u64, core: Option<u32>) {
        self.current = Some((cycle, seq));
        self.synced = false;
        if let Some(core) = core.filter(|_| !self.notes.is_empty()) {
            // A core has one ready event at a time, and a re-inserted one
            // carries its epoch as `seq`: this matches it exactly.
            if let Some(i) = self
                .notes
                .iter()
                .position(|n| (n.core, n.cycle, n.epoch) == (core, cycle, seq))
            {
                self.current_note = Some(self.notes.swap_remove(i).before);
            }
        }
    }

    /// The current event finished with the queue counter at `after`.
    pub fn end(&mut self, after: u64) {
        let current = self.current.take();
        self.synced = false;
        if self.spinners.is_empty() {
            self.log.clear();
            self.bumps.clear();
            self.current_note = None;
            return;
        }
        let note = match self.current_note.take() {
            Some(before) => {
                self.entry_notes.push(before);
                (self.entry_notes.len() - 1) as u32
            }
            None => NONE,
        };
        if let Some((cycle, seq)) = current {
            let bumps_from = self.log.last().map_or(0, |en| en.bumps_to);
            self.log.push(LogEntry {
                cycle,
                seq,
                after,
                note,
                bumps_from,
                bumps_to: self.bumps.len() as u32,
            });
        }
        if self.log.len() >= LOG_CAP {
            self.replay(Bound::LogEnd);
        }
    }

    /// Replay every spinner up to the event being dispatched (or the end
    /// of the log between events), so the pool's state is exact at this
    /// point of the run.
    pub fn sync(&mut self) {
        if !self.synced {
            self.replay(if self.current.is_some() {
                Bound::Current
            } else {
                Bound::LogEnd
            });
        }
    }

    /// Walk every spinner against the log, then to `bound`, and clear
    /// the log.
    pub fn replay(&mut self, bound: Bound) {
        let Some(t) = self.timing else {
            return;
        };
        let log = &self.log;
        // `first[k]`: the first logged event at or after cycle
        // `log[0].cycle + k`, so each spinner jumps straight past the
        // events that precede its next virtual event. Only built when the
        // log is dense in cycles; a sparse log is cheap to walk.
        let (c0, c1) = match (log.first(), log.last()) {
            (Some(a), Some(b)) => (a.cycle, b.cycle),
            _ => (0, 0),
        };
        let indexed = log.len() >= 64 && c1 - c0 <= 4 * log.len() as u64;
        self.first.clear();
        if indexed {
            let mut i = 0;
            for cycle in c0..=c1 {
                while log[i].cycle < cycle {
                    i += 1;
                }
                self.first.push(i as u32);
            }
        }
        let first = &self.first;
        for sp in &mut self.spinners {
            // The hot fields in locals: this loop runs per logged event
            // near each of the spinner's virtual events.
            let mut chain = sp.chain();
            let (core, park_id) = (sp.core, sp.park_id);
            let sp_id = |c: Chain| (core, park_id, c.elements);
            let mut counter = self.base;
            let mut i = 0;
            while i < log.len() {
                if chain.cycle > log[i].cycle {
                    // Events before the spinner's next virtual event only
                    // move the counter.
                    let j = if !indexed {
                        i + log[i..].partition_point(|en| en.cycle < chain.cycle)
                    } else if chain.cycle > c1 {
                        log.len()
                    } else {
                        first[(chain.cycle - c0) as usize] as usize
                    };
                    let j = j.max(i + 1);
                    let (from, to) = (log[i].bumps_from as usize, log[j - 1].bumps_to as usize);
                    if from < to && self.bumps[from..to].contains(&core) {
                        sp.set_chain(chain);
                        sp.note_generation();
                    }
                    i = j;
                    counter = log[i - 1].after;
                    continue;
                }
                let cycle = log[i].cycle;
                if chain.cycle < cycle {
                    // The next virtual event, and every one before
                    // `cycle`, precede event `i`.
                    chain.run_before(cycle, None, || false, counter, &t);
                    continue;
                }
                let id = sp_id(chain);
                let en = log[i];
                let follows = en.seq > chain.epoch
                    || (en.seq == chain.epoch
                        && en.note != NONE
                        && self.entry_notes[en.note as usize].contains(&id));
                if follows || log.get(i + 1).is_none_or(|next| next.cycle != cycle) {
                    // The common case, one event at this cycle: settle it
                    // directly.
                    if follows {
                        chain.run_before(cycle, Some(u64::MAX), || false, counter, &t);
                    } else {
                        if en.bumps_from < en.bumps_to
                            && self.bumps[en.bumps_from as usize..en.bumps_to as usize]
                                .contains(&core)
                        {
                            sp.set_chain(chain);
                            sp.note_generation();
                        }
                        counter = en.after;
                        i += 1;
                    }
                    continue;
                }
                // Several events at this cycle: events `[i, end)` drain in
                // nondecreasing seq order, so the virtual event follows
                // exactly those pushed at or before its epoch, except a
                // re-inserted one noted to follow it.
                let end = if indexed && cycle < c1 {
                    first[(cycle + 1 - c0) as usize] as usize
                } else {
                    i + log[i..].partition_point(|en| en.cycle == cycle)
                };
                let run = &log[i..end];
                let below = run.partition_point(|en| en.seq < chain.epoch);
                let at = run.partition_point(|en| en.seq <= chain.epoch);
                let k = (below..at)
                    .find(|&k| {
                        run[k].note != NONE && self.entry_notes[run[k].note as usize].contains(&id)
                    })
                    .unwrap_or(at);
                let j = i + k;
                if j > i {
                    let (from, to) = (log[i].bumps_from as usize, log[j - 1].bumps_to as usize);
                    if from < to && self.bumps[from..to].contains(&core) {
                        sp.set_chain(chain);
                        sp.note_generation();
                    }
                    counter = log[j - 1].after;
                }
                if j < end {
                    // It runs before event `j`.
                    chain.run_before(cycle, Some(u64::MAX), || false, counter, &t);
                }
                i = j;
            }
            match bound {
                Bound::LogEnd => {}
                Bound::Current => {
                    if let Some((cycle, seq)) = self.current {
                        let id = sp_id(chain);
                        let noted = || self.current_note.as_ref().is_some_and(|b| b.contains(&id));
                        chain.run_before(cycle, Some(seq), noted, counter, &t);
                        let current = log.last().map_or(0, |en| en.bumps_to) as usize;
                        if self.bumps[current..].contains(&core) {
                            sp.set_chain(chain);
                            sp.note_generation();
                        }
                    }
                }
                Bound::Cycle(cycle) => chain.run_before(cycle, None, || false, counter, &t),
            }
            sp.set_chain(chain);
        }
        if let Some(last) = self.log.last() {
            self.base = last.after;
        }
        self.log.clear();
        self.entry_notes.clear();
        self.bumps.clear();
        self.synced = matches!(bound, Bound::Current);
    }

    /// Add a core that just parked (the pool must be synced), and fix the
    /// order of every pending event.
    pub fn park(&mut self, sp: Spinner, counter: u64) {
        if self.spinners.is_empty() {
            self.log.clear();
            self.base = counter;
        }
        *self.watched.entry(sp.line).or_insert(0) += 1;
        self.stats.parks += 1;
        let mut sp = sp;
        sp.park_id = self.stats.parks;
        self.spinners.push(sp);
        self.renormalise();
    }

    /// Sort the pending events into their true order and restart every
    /// chain's lineage there.
    fn renormalise(&mut self) {
        let t = self.loop_timing();
        self.spinners.sort_unstable_by(|a, b| order(a, b, &t));
        for (i, sp) in self.spinners.iter_mut().enumerate() {
            sp.rank = i as u32;
            sp.renormalised_at = sp.elements;
            sp.fresh = false;
            self.slot[sp.core as usize] = i as u32;
        }
    }

    /// Remove `cores` and return them in true order. The pool must be
    /// synced. A spinner left parked whose next event ties with a woken
    /// one at the same cycle and epoch follows it unless noted otherwise:
    /// at equal epochs the replay orders a re-inserted event first, so
    /// each woken core gets a [`Note`] of the tied spinners that precede
    /// it.
    pub fn take(&mut self, cores: &[usize]) -> Vec<Spinner> {
        let t = self.loop_timing();
        let taken = self.take_where(|s| cores.contains(&(s.core as usize)));
        for w in &taken {
            let before: Vec<Ident> = self
                .spinners
                .iter()
                .filter(|s| {
                    (s.cycle, s.epoch) == (w.cycle, w.epoch) && order(s, w, &t) == Ordering::Less
                })
                .map(Spinner::ident)
                .collect();
            if !before.is_empty() {
                self.notes.push(Note {
                    core: w.core,
                    cycle: w.cycle,
                    epoch: w.epoch,
                    before,
                });
            }
        }
        taken
    }

    /// Every woken spinner is re-inserted: once the pool is empty, no
    /// note can matter any more.
    pub fn settle(&mut self) {
        if self.spinners.is_empty() {
            self.notes.clear();
        }
    }

    /// The cores whose queued re-inserted events `sp`'s next event was
    /// noted to precede: it must be re-inserted ahead of them.
    pub fn noted_after(&self, sp: &Spinner) -> Vec<u32> {
        let id = sp.ident();
        self.notes
            .iter()
            .filter(|n| n.before.contains(&id))
            .map(|n| n.core)
            .collect()
    }

    /// Remove every spinner, in true order.
    pub fn take_all(&mut self) -> Vec<Spinner> {
        self.take_where(|_| true)
    }

    fn take_where(&mut self, pick: impl Fn(&Spinner) -> bool) -> Vec<Spinner> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.spinners.len() {
            if pick(&self.spinners[i]) {
                out.push(self.spinners.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for sp in &out {
            self.slot[sp.core as usize] = NONE;
            if let Some(n) = self.watched.get_mut(&sp.line) {
                *n -= 1;
                if *n == 0 {
                    self.watched.remove(&sp.line);
                }
            }
            self.stats.wakes += 1;
            self.stats.credited_instructions += sp.elements;
        }
        for (i, sp) in self.spinners.iter().enumerate() {
            self.slot[sp.core as usize] = i as u32;
        }
        let t = self.loop_timing();
        out.sort_unstable_by(|a, b| order(a, b, &t));
        if self.spinners.is_empty() {
            self.log.clear();
            self.entry_notes.clear();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_inverts_next() {
        for (branch, units) in [(2, 12), (1, 6), (3, 36), (0, 5), (2, 7)] {
            let t = SpinTiming::new(branch, units).unwrap();
            for s in 0..24 {
                let (n, dt) = t.next[s];
                assert_eq!(t.back[n as usize], (s as u8, dt));
            }
        }
        assert!(SpinTiming::new(0, 0).is_none(), "a free loop never parks");
    }

    fn chain(frac: u64) -> Spinner {
        Spinner::new(0, 0, 0, 8, 0, None, (0, 0), 100, 0, frac)
    }

    #[test]
    fn a_period_is_24_elements() {
        let t = SpinTiming::new(2, 7).unwrap();
        for frac in 0..12 {
            let mut sp = chain(frac);
            let mut cycle = sp.cycle;
            for _ in 0..24 {
                let (n, dt) = t.next[sp.state];
                sp.state = n as State;
                cycle += u64::from(dt);
            }
            assert_eq!(
                (cycle, sp.phase(), sp.frac()),
                (100 + t.period, Phase::Load, frac)
            );
        }
    }

    #[test]
    fn bulk_runs_match_single_steps() {
        let t = SpinTiming::new(2, 7).unwrap();
        for stop in [101, 150, 1_000, 12_345] {
            let mut bulk = chain(5).chain();
            let mut single = bulk;
            bulk.run_below(stop, 9, &t);
            while single.cycle < stop {
                single.step(&t);
            }
            single.epoch = 9;
            assert_eq!(bulk, single);
            let mut sp = chain(5);
            sp.set_chain(bulk);
            assert!(sp.last_run(&t) < stop && sp.cycle >= stop);
        }
    }
}
