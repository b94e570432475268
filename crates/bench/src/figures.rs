//! Table-driven runners for the kernel figures.
//!
//! The paper's kernel figures come in two shapes, and each shape is one
//! function here driven by one row of data per figure:
//!
//! * [`SpeedupFigure`] — speedup over sequential by barrier mechanism at a
//!   single kernel size (Figures 5 and 6);
//! * [`LengthFigure`] — cycles per invocation versus vector length, with
//!   the sequential baseline and crossover lines (Figures 7, 8 and 10).
//!
//! Every run goes through [`kernels::run`] on a [`RunSpec`], so a figure
//! cell is the same job a `fastbar-serve` client would submit. Each
//! `src/bin/fig*.rs` binary is its `main` calling [`SpeedupFigure::main`]
//! or [`LengthFigure::main`] on its row.

use barrier_filter::BarrierMechanism;
use kernels::viterbi::Viterbi;
use kernels::{KernelError, KernelOutcome, RunSpec, WorkloadSpec};

use crate::cli::Cli;
use crate::kernel_runs::{measure_on, sweep_grid, GridVariant, SpeedupRow};
use crate::report;

/// Threads every kernel figure runs on (the paper's 16-core CMP).
const THREADS: usize = 16;

/// Run `workload` under `variant`: sequential for [`None`], parallel on
/// [`THREADS`] threads under the mechanism otherwise.
fn run_cell(workload: WorkloadSpec, variant: GridVariant) -> Result<KernelOutcome, KernelError> {
    let spec = match variant {
        None => RunSpec::sequential(workload),
        Some(m) => RunSpec::parallel(workload, THREADS, m),
    };
    Ok(kernels::run(&spec)?.outcome)
}

/// First size whose row beats sequential by `speedup`, if any.
fn crossover(
    sizes: &[usize],
    grid: &[SpeedupRow],
    speedup: fn(&SpeedupRow) -> f64,
) -> Option<usize> {
    sizes
        .iter()
        .zip(grid)
        .find(|(_, row)| speedup(row) > 1.0)
        .map(|(&n, _)| n)
}

fn or_none(n: Option<usize>) -> String {
    n.map_or("none".into(), |n| n.to_string())
}

/// A speedup-by-mechanism figure: one kernel size, one row of speedups.
pub struct SpeedupFigure {
    /// Binary name.
    pub name: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// Kernel size under `--quick` and at full scale.
    pub size: (usize, usize),
    /// The kernel at a given size.
    pub workload: fn(usize) -> WorkloadSpec,
    /// Title line printed above the table.
    pub title: fn(usize) -> String,
    /// Summary lines printed below the table.
    pub summary: fn(&SpeedupRow) -> Vec<String>,
}

impl SpeedupFigure {
    /// Parse the command line, run the figure and print it.
    ///
    /// # Panics
    ///
    /// Panics if any kernel run fails or does not validate.
    pub fn main(&self) {
        let args = Cli::new(self.name, self.about).parse();
        let n = if args.quick { self.size.0 } else { self.size.1 };
        let workload = (self.workload)(n);
        let row = measure_on(
            &args.runner,
            format!("{workload:?}"),
            || run_cell(workload, None),
            |m| run_cell(workload, Some(m)),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", self.name));

        println!("{}", (self.title)(n));
        println!();
        let header = vec!["mechanism".to_string(), "speedup".to_string()];
        let body: Vec<Vec<String>> = BarrierMechanism::ALL
            .iter()
            .map(|&m| vec![m.to_string(), report::f2(row.speedup(m))])
            .collect();
        print!("{}", report::table(&header, &body));
        println!();
        for line in (self.summary)(&row) {
            println!("{line}");
        }
    }
}

/// A cycles-versus-vector-length figure: one row per size, the sequential
/// baseline beside every mechanism.
pub struct LengthFigure {
    /// Binary name.
    pub name: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// Paper figure number.
    pub figure: u32,
    /// Livermore loop number.
    pub kernel: u32,
    /// Vector lengths under `--quick` and at full scale.
    pub sizes: (&'static [usize], &'static [usize]),
    /// The kernel at a given vector length.
    pub workload: fn(usize) -> WorkloadSpec,
    /// Summary lines printed below the table, given the sizes and their
    /// rows.
    pub summary: fn(&[usize], &[SpeedupRow]) -> Vec<String>,
}

impl LengthFigure {
    /// Parse the command line, run the figure and print it.
    ///
    /// # Panics
    ///
    /// Panics if any kernel run fails or does not validate.
    pub fn main(&self) {
        let args = Cli::new(self.name, self.about).parse();
        let sizes = if args.quick {
            self.sizes.0
        } else {
            self.sizes.1
        };
        let k = self.kernel;
        println!(
            "Figure {}: Livermore Loop {k} on {THREADS} cores — cycles per invocation vs vector length",
            self.figure
        );
        println!();
        let labels: Vec<String> = sizes.iter().map(|n| format!("loop{k} N={n}")).collect();
        let grid = sweep_grid(&args.runner, &labels, |row, variant| {
            run_cell((self.workload)(sizes[row]), variant)
        })
        .unwrap_or_else(|e| panic!("loop {k}: {e}"));
        let mut header = vec!["N".to_string(), "sequential".to_string()];
        header.extend(BarrierMechanism::ALL.iter().map(|m| m.to_string()));
        let rows: Vec<Vec<String>> = sizes
            .iter()
            .zip(&grid)
            .map(|(&n, row)| {
                let mut cells = vec![n.to_string(), report::f1(row.sequential)];
                cells.extend(row.parallel.iter().map(|&(_, c)| report::f1(c)));
                cells
            })
            .collect();
        print!("{}", report::table(&header, &rows));
        println!();
        for line in (self.summary)(sizes, &grid) {
            println!("{line}");
        }
    }
}

/// Figure 5: Autocorrelation speedup by mechanism.
pub const FIG5_AUTOCORR: SpeedupFigure = SpeedupFigure {
    name: "fig5_autocorr",
    about: "Figure 5 — Autocorrelation speedup by barrier mechanism (16 cores)",
    size: (512, 2048),
    workload: |n| WorkloadSpec::Autocorr { n, lags: 32 },
    title: |n| {
        format!("Figure 5: Autocorrelation speedup over sequential, 16 cores (N={n}, lag=32)")
    },
    summary: |row| {
        vec![
            format!(
                "best software {:.2}x | best filter {:.2}x | dedicated network {:.2}x",
                row.best_software_speedup(),
                row.best_filter_speedup(),
                row.speedup(BarrierMechanism::HwDedicated),
            ),
            "(paper: 3.86x software, 7.31x best filter, 7.98x dedicated network)".into(),
        ]
    },
};

/// Figure 6: Viterbi decoder speedup by mechanism.
pub const FIG6_VITERBI: SpeedupFigure = SpeedupFigure {
    name: "fig6_viterbi",
    about: "Figure 6 — Viterbi decoder speedup by barrier mechanism (16 cores)",
    size: (128, 512),
    workload: |data_bits| WorkloadSpec::Viterbi {
        constraint: 5,
        data_bits,
        noise_per_mille: 10,
    },
    title: |bits| {
        format!(
            "Figure 6: Viterbi decoder speedup over sequential, 16 cores (K=5, {} states, {bits} data bits)",
            Viterbi::new(bits).states()
        )
    },
    summary: |row| {
        let sw = row.best_software_speedup();
        let filt = row.best_filter_speedup();
        vec![
            format!(
                "best software {sw:.2}x | best filter {filt:.2}x | dedicated {:.2}x",
                row.speedup(BarrierMechanism::HwDedicated)
            ),
            format!(
                "software barriers are {} than sequential (paper: slower, 0.76x)",
                if sw < 1.0 {
                    "slower"
                } else {
                    "FASTER (shape mismatch!)"
                }
            ),
            format!(
                "filter barriers give a speedup: {} (paper: yes)",
                if filt > 1.0 {
                    "yes"
                } else {
                    "NO (shape mismatch!)"
                }
            ),
        ]
    },
};

/// Figure 7: Livermore Loop 2 cycles versus vector length.
pub const FIG7_LOOP2: LengthFigure = LengthFigure {
    name: "fig7_loop2",
    about: "Figure 7 — Livermore Loop 2 cycles vs vector length",
    figure: 7,
    kernel: 2,
    sizes: (&[32, 64, 256], &[16, 32, 64, 128, 256, 512, 1024]),
    workload: |n| WorkloadSpec::Loop2 { n },
    summary: |sizes, grid| {
        vec![
            match crossover(sizes, grid, SpeedupRow::best_filter_speedup) {
                Some(n) => format!("filter-barrier crossover at N = {n} (paper: 256)"),
                None => "no filter-barrier crossover in the sweep (paper: 256)".into(),
            },
        ]
    },
};

/// Figure 8: Livermore Loop 3 cycles versus vector length.
pub const FIG8_LOOP3: LengthFigure = LengthFigure {
    name: "fig8_loop3",
    about: "Figure 8 — Livermore Loop 3 cycles vs vector length",
    figure: 8,
    kernel: 3,
    sizes: (&[32, 64, 256], &[16, 32, 64, 128, 256, 512, 1024]),
    workload: |n| WorkloadSpec::Loop3 { n },
    summary: |sizes, grid| {
        vec![format!(
            "filter crossover at N = {} (paper: 64); software crossover at N = {} (paper: 2-4x longer)",
            or_none(crossover(sizes, grid, SpeedupRow::best_filter_speedup)),
            or_none(crossover(sizes, grid, SpeedupRow::best_software_speedup)),
        )]
    },
};

/// Figure 10: Livermore Loop 6 cycles versus vector length.
pub const FIG10_LOOP6: LengthFigure = LengthFigure {
    name: "fig10_loop6",
    about: "Figure 10 — Livermore Loop 6 cycles vs vector length",
    figure: 10,
    kernel: 6,
    sizes: (&[32, 64, 128], &[16, 32, 64, 128, 256]),
    workload: |n| WorkloadSpec::Loop6 { n },
    summary: |sizes, grid| {
        let mut lines = vec![format!(
            "filter crossover at N = {} (paper: 64)",
            or_none(crossover(sizes, grid, SpeedupRow::best_filter_speedup))
        )];
        if let Some((_, row)) = sizes.iter().zip(grid).find(|(&n, _)| n == 256) {
            lines.push(format!(
                "filter speedup at N = 256: {:.2}x (paper: more than 3x)",
                row.best_filter_speedup()
            ));
        }
        lines
    },
};
