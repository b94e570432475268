//! Per-layer accounting, read from outside the program: the public
//! machine counters (`Machine::{stats, burst_retired, decode_stats,
//! fused_stats}`), `KernelOutcome`, and — for kernel runs, whose machine
//! is not reachable — a counting trace sink attached as an observer.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cmp_sim::{EpisodeStats, Machine, Measurement, TraceEvent, TraceSink};
use kernels::KernelOutcome;

use crate::report::{median, ratio, Metrics};

/// Event counts kept by [`CountingSink`], plus the host instant of the
/// first event: the point where a kernel run's machine build ended and
/// its simulation began.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkCounts {
    pub first_event: Option<Instant>,
    pub d_misses: u64,
    pub reads: u64,
    pub writes: u64,
    pub upgrade_copies: u64,
    pub dirty_transfers: u64,
}

/// A pure observer that counts memory-system events.
pub struct CountingSink(pub Rc<RefCell<SinkCounts>>);

impl TraceSink for CountingSink {
    fn record(&mut self, _cycle: u64, ev: &TraceEvent) {
        let mut c = self.0.borrow_mut();
        if c.first_event.is_none() {
            c.first_event = Some(Instant::now());
        }
        match *ev {
            TraceEvent::DMiss { .. } => c.d_misses += 1,
            TraceEvent::DataRead { .. } => c.reads += 1,
            TraceEvent::DataWrite { .. } => c.writes += 1,
            TraceEvent::Upgrade { copies, .. } => c.upgrade_copies += copies as u64,
            TraceEvent::CacheToCache { .. } => c.dirty_transfers += 1,
            _ => {}
        }
    }
}

/// Layer counters and host times of one pass. Counters are sums over the
/// pass's items; ratios are formed only over the items where both sides
/// were observable.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Host seconds inside the engine (`Machine::run`, or the simulation
    /// part of `kernels::run`).
    pub engine_s: f64,
    /// Instructions retired inside `engine_s`.
    pub engine_instr: u64,
    /// Host seconds in kernel constructors (input generation).
    pub input_s: f64,
    /// Host seconds in machine builds (`fig4_machine`, or the part of a
    /// kernel run before its first simulation event).
    pub build_s: f64,
    /// Host seconds inside `kernels::run`, build included.
    pub kernels_run_s: f64,

    pub burst_retired: u64,
    pub burst_instr: u64,
    pub decode_hits: u64,
    pub decode_builds: u64,
    pub decode_invalidations: u64,
    pub memo_hits: u64,
    pub fused_loads: u64,
    pub stores: u64,
    pub store_instr: u64,

    pub l1d_misses: u64,
    pub l1d_accesses: u64,
    pub copies_invalidated: u64,
    pub dirty_transfers: u64,
    pub bus_wait_x_cycles: f64,
    pub bus_wait_cycles: u64,
    pub bus_busy: u64,
    pub bus_busy_cycles: u64,
    pub hook_wait: u64,
    pub hook_grants: u64,
    pub barrier_cycles: u64,
    pub barriers: u64,
    pub episodes: EpisodeStats,
}

impl Layers {
    /// Fold in a finished fig4-shaped machine that ran `barriers`
    /// barriers.
    pub fn add_machine(&mut self, m: &Machine, sim: &Measurement, barriers: u64) {
        let stats = m.stats();
        self.burst_retired += m.burst_retired();
        self.burst_instr += sim.instructions;
        let d = m.decode_stats();
        self.decode_hits += d.hits;
        self.decode_builds += d.builds;
        self.decode_invalidations += d.invalidations;
        let f = m.fused_stats();
        self.memo_hits += f.memo_hits;
        self.fused_loads += f.loads;
        self.stores += stats.cores.iter().map(|c| c.stores).sum::<u64>();
        self.store_instr += sim.instructions;
        self.l1d_misses += stats.l1d_misses();
        self.l1d_accesses += stats.l1d.iter().map(|c| c.hits + c.misses).sum::<u64>();
        self.copies_invalidated += stats.directory.copies_invalidated;
        self.dirty_transfers += stats.directory.dirty_transfers;
        let bus_wait = stats.addr_bus.mean_wait().max(stats.data_bus.mean_wait());
        self.bus_wait_x_cycles += bus_wait * sim.cycles as f64;
        self.bus_wait_cycles += sim.cycles;
        self.bus_busy += stats.addr_bus.busy_cycles.max(stats.data_bus.busy_cycles);
        self.bus_busy_cycles += sim.cycles;
        for port in &stats.hook_ports {
            self.hook_wait += port.wait_cycles;
            self.hook_grants += port.grants;
        }
        self.add_barrier_loop(sim.cycles, barriers);
        self.episodes.merge(&sim.episodes);
    }

    /// Count a Figure 4 barrier loop of `barriers` barriers that took
    /// `cycles` simulated cycles.
    pub fn add_barrier_loop(&mut self, cycles: u64, barriers: u64) {
        self.barrier_cycles += cycles;
        self.barriers += barriers;
    }

    /// Fold in a kernel run's outcome and, for parallel runs, the counts
    /// its observer sink kept.
    pub fn add_outcome(&mut self, o: &KernelOutcome, sink: Option<&SinkCounts>) {
        self.decode_hits += o.decode.hits;
        self.decode_builds += o.decode.builds;
        self.decode_invalidations += o.decode.invalidations;
        self.memo_hits += o.fused.memo_hits;
        self.fused_loads += o.fused.loads;
        self.bus_wait_x_cycles += o.bus_mean_wait * o.sim.cycles as f64;
        self.bus_wait_cycles += o.sim.cycles;
        self.episodes.merge(&o.sim.episodes);
        if let Some(c) = sink {
            self.stores += c.writes;
            self.store_instr += o.sim.instructions;
            self.l1d_misses += c.d_misses;
            self.l1d_accesses += c.reads + c.writes;
            self.copies_invalidated += c.upgrade_copies;
            self.dirty_transfers += c.dirty_transfers;
        }
    }
}

/// Per-layer metrics of the traced passes: host times are medians across
/// passes, counters come from the last pass (they are deterministic).
pub fn layer_metrics(passes: &[Layers], m: &mut Metrics) {
    let Some(l) = passes.last() else { return };
    let med = |f: &dyn Fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    m.push("cmp_sim.run_s", med(&|p| p.engine_s), "s");
    m.push(
        "cmp_sim.ns_per_instr",
        med(&|p| ratio(p.engine_s * 1e9, p.engine_instr as f64)),
        "ns/instr",
    );
    m.push(
        "cmp_sim.burst_share",
        ratio(l.burst_retired as f64, l.burst_instr as f64),
        "ratio",
    );
    m.push(
        "cmp_sim.memo_hit_ratio",
        ratio(l.memo_hits as f64, l.fused_loads as f64),
        "ratio",
    );
    m.push(
        "cmp_sim.decode_hit_ratio",
        ratio(
            l.decode_hits as f64,
            (l.decode_hits + l.decode_builds) as f64,
        ),
        "ratio",
    );
    m.push(
        "cmp_sim.decode_invalidations",
        l.decode_invalidations as f64,
        "count",
    );
    m.push(
        "cmp_sim.store_share",
        ratio(l.stores as f64, l.store_instr as f64),
        "ratio",
    );
    m.push(
        "cmp_sim.l1d_miss_ratio",
        ratio(l.l1d_misses as f64, l.l1d_accesses as f64),
        "ratio",
    );
    m.push(
        "cmp_sim.dir_copies_invalidated",
        l.copies_invalidated as f64,
        "count",
    );
    m.push("cmp_sim.dirty_transfers", l.dirty_transfers as f64, "count");
    m.push(
        "cmp_sim.bus_wait_per_grant",
        ratio(l.bus_wait_x_cycles, l.bus_wait_cycles as f64),
        "cycles",
    );
    m.push(
        "cmp_sim.bus_busy_share",
        ratio(l.bus_busy as f64, l.bus_busy_cycles as f64),
        "ratio",
    );
    let e = &l.episodes;
    m.push(
        "barrier_filter.cycles_per_barrier",
        ratio(l.barrier_cycles as f64, l.barriers as f64),
        "cycles",
    );
    m.push("barrier_filter.episodes", e.episodes as f64, "count");
    m.push("barrier_filter.parks", e.parks as f64, "count");
    m.push("barrier_filter.releases", e.releases as f64, "count");
    m.push("barrier_filter.serviced", e.serviced as f64, "count");
    m.push(
        "barrier_filter.arrival_spread",
        e.mean_arrival_spread(),
        "cycles",
    );
    m.push(
        "barrier_filter.release_fanout",
        e.mean_release_fanout(),
        "cycles",
    );
    m.push(
        "barrier_filter.hook_wait_per_grant",
        ratio(l.hook_wait as f64, l.hook_grants as f64),
        "cycles",
    );
    m.push("kernels.input_s", med(&|p| p.input_s), "s");
    m.push("kernels.build_s", med(&|p| p.build_s), "s");
    m.push("kernels.run_s", med(&|p| p.kernels_run_s), "s");
}
