//! Shared speedup-measurement plumbing for the kernel experiments
//! (Table 1, Figures 5–8 and 10).
//!
//! Every kernel figure is the same grid: workload rows (a kernel at some
//! size) × variant columns (the sequential baseline plus one parallel run
//! per [`BarrierMechanism`]). [`sweep_grid`] flattens that grid into
//! independent jobs on a [`SweepRunner`], so every figure binary gets
//! `--jobs` host parallelism from one helper — with results reassembled
//! in row-major, [`BarrierMechanism::ALL`]-column order no matter which
//! job finishes first.

use crate::sweep::SweepRunner;
use barrier_filter::BarrierMechanism;
use kernels::{KernelError, KernelOutcome};

/// One cell of the workload × variant grid: `None` is the sequential
/// baseline column, `Some(m)` a parallel run under mechanism `m`.
pub type GridVariant = Option<BarrierMechanism>;

/// Sequential baseline plus one parallel measurement per mechanism.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload label.
    pub label: String,
    /// Sequential cycles per repetition.
    pub sequential: f64,
    /// `(mechanism, cycles_per_rep)` in [`BarrierMechanism::ALL`] order.
    pub parallel: Vec<(BarrierMechanism, f64)>,
}

impl SpeedupRow {
    /// Speedup of `mechanism` over sequential (>1 is faster).
    pub fn speedup(&self, mechanism: BarrierMechanism) -> f64 {
        let &(_, cycles) = self
            .parallel
            .iter()
            .find(|(m, _)| *m == mechanism)
            .expect("mechanism measured");
        self.sequential / cycles
    }

    /// The best speedup achieved by a software-only barrier — the quantity
    /// Table 1 reports.
    pub fn best_software_speedup(&self) -> f64 {
        BarrierMechanism::ALL
            .into_iter()
            .filter(|m| m.is_software())
            .map(|m| self.speedup(m))
            .fold(f64::MIN, f64::max)
    }

    /// The best speedup achieved by a filter barrier.
    pub fn best_filter_speedup(&self) -> f64 {
        BarrierMechanism::ALL
            .into_iter()
            .filter(|m| m.is_filter())
            .map(|m| self.speedup(m))
            .fold(f64::MIN, f64::max)
    }
}

/// Measure a kernel: the `seq` closure runs the sequential baseline, and
/// `par` runs the parallel version for a given mechanism. Both must
/// validate internally (they return [`KernelOutcome`] only on a verified
/// run). Runs every variant serially on the calling thread; use
/// [`measure_on`] to spread the variants over a [`SweepRunner`].
///
/// # Errors
///
/// Propagates kernel failures, labelled with the workload and mechanism.
pub fn measure(
    label: impl Into<String>,
    seq: impl Fn() -> Result<KernelOutcome, KernelError> + Sync,
    par: impl Fn(BarrierMechanism) -> Result<KernelOutcome, KernelError> + Sync,
) -> Result<SpeedupRow, String> {
    measure_on(&SweepRunner::new(1), label, seq, par)
}

/// [`measure`], with the baseline and the seven mechanism runs dispatched
/// as independent jobs on `runner`. The returned row is identical to the
/// serial one — each variant is a self-contained simulation, and the row
/// is assembled in [`BarrierMechanism::ALL`] order after every job lands.
///
/// # Errors
///
/// Propagates kernel failures and captured job panics, labelled with the
/// workload and mechanism.
pub fn measure_on(
    runner: &SweepRunner,
    label: impl Into<String>,
    seq: impl Fn() -> Result<KernelOutcome, KernelError> + Sync,
    par: impl Fn(BarrierMechanism) -> Result<KernelOutcome, KernelError> + Sync,
) -> Result<SpeedupRow, String> {
    let labels = [label.into()];
    let mut rows = sweep_grid(runner, &labels, |_, variant| match variant {
        None => seq(),
        Some(m) => par(m),
    })?;
    Ok(rows.pop().expect("one label in, one row out"))
}

/// Run the full workload × variant grid on `runner` and fold the outcomes
/// into one [`SpeedupRow`] per workload.
///
/// `run(row, variant)` must execute workload `labels[row]` under
/// `variant` ([`None`] = sequential baseline, `Some(m)` = parallel under
/// `m`) and is called exactly once per grid cell, possibly concurrently
/// from pool workers. Rows come back in `labels` order with parallel
/// columns in [`BarrierMechanism::ALL`] order — the same shapes the
/// serial loops produced — regardless of job completion order.
///
/// # Errors
///
/// Collects every failed cell (kernel error or captured panic) into one
/// report; any failure fails the grid.
pub fn sweep_grid(
    runner: &SweepRunner,
    labels: &[String],
    run: impl Fn(usize, GridVariant) -> Result<KernelOutcome, KernelError> + Sync,
) -> Result<Vec<SpeedupRow>, String> {
    let cells: Vec<(usize, GridVariant)> = (0..labels.len())
        .flat_map(|row| {
            std::iter::once((row, None)).chain(
                BarrierMechanism::ALL
                    .into_iter()
                    .map(move |m| (row, Some(m))),
            )
        })
        .collect();
    let outcomes = runner.run_all(&cells, |_, &(row, variant)| {
        run(row, variant).map_err(|e| match variant {
            None => format!("{} sequential: {e}", labels[row]),
            Some(m) => format!("{} {m}: {e}", labels[row]),
        })
    })?;
    let failures: Vec<String> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err().cloned())
        .collect();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let width = 1 + BarrierMechanism::ALL.len();
    let rows = labels
        .iter()
        .enumerate()
        .map(|(row, label)| {
            let cells = &outcomes[row * width..(row + 1) * width];
            let cycles = |i: usize| {
                cells[i]
                    .as_ref()
                    .expect("failures drained above")
                    .cycles_per_rep
            };
            SpeedupRow {
                label: label.clone(),
                sequential: cycles(0),
                parallel: BarrierMechanism::ALL
                    .into_iter()
                    .enumerate()
                    .map(|(i, m)| (m, cycles(1 + i)))
                    .collect(),
            }
        })
        .collect();
    Ok(rows)
}

/// Render rows as a speedup table (columns: workload, sequential cycles,
/// one speedup per mechanism).
pub fn speedup_table(rows: &[SpeedupRow]) -> String {
    let mut header = vec!["workload".to_string(), "seq cycles".to_string()];
    header.extend(BarrierMechanism::ALL.iter().map(|m| m.to_string()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone(), crate::report::f1(r.sequential)];
            row.extend(
                BarrierMechanism::ALL
                    .iter()
                    .map(|&m| crate::report::f2(r.speedup(m))),
            );
            row
        })
        .collect();
    crate::report::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row() -> SpeedupRow {
        SpeedupRow {
            label: "x".into(),
            sequential: 1000.0,
            parallel: BarrierMechanism::ALL
                .into_iter()
                .map(|m| {
                    let c = match m {
                        BarrierMechanism::SwCentral => 2000.0,
                        BarrierMechanism::SwTree => 800.0,
                        BarrierMechanism::HwDedicated => 200.0,
                        _ => 400.0,
                    };
                    (m, c)
                })
                .collect(),
        }
    }

    #[test]
    fn speedups_and_bests() {
        let r = fake_row();
        assert_eq!(r.speedup(BarrierMechanism::SwCentral), 0.5);
        assert_eq!(r.best_software_speedup(), 1.25);
        assert_eq!(r.best_filter_speedup(), 2.5);
    }

    #[test]
    fn table_renders() {
        let t = speedup_table(&[fake_row()]);
        assert!(t.contains("sw-central"));
        assert!(t.contains("0.50"));
    }

    /// A deterministic fake cell: cycles encode (row, column) so any
    /// reordering or cross-slot mixup is visible in the reassembled rows.
    fn fake_cell(row: usize, variant: GridVariant) -> Result<KernelOutcome, KernelError> {
        let col = match variant {
            None => 0,
            Some(m) => {
                1 + BarrierMechanism::ALL
                    .iter()
                    .position(|&x| x == m)
                    .expect("known mechanism")
            }
        };
        let cycles = (100 * row + col) as u64;
        Ok(KernelOutcome {
            sim: cmp_sim::Measurement {
                cycles,
                instructions: 1,
                stats_digest: cycles,
                episodes: Default::default(),
            },
            cycles_per_rep: cycles as f64,
            decode: Default::default(),
            fused: Default::default(),
            spin: Default::default(),
            bus_mean_wait: 0.0,
        })
    }

    #[test]
    fn grid_rows_are_identical_across_job_counts() {
        let labels: Vec<String> = (0..3).map(|i| format!("w{i}")).collect();
        let serial = sweep_grid(&SweepRunner::new(1), &labels, fake_cell).expect("serial grid");
        let parallel = sweep_grid(&SweepRunner::new(4), &labels, fake_cell).expect("parallel grid");
        assert_eq!(serial.len(), 3);
        for (row, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.label, labels[row]);
            assert_eq!(s.label, p.label);
            assert_eq!(s.sequential, (100 * row) as f64);
            assert_eq!(s.sequential, p.sequential);
            assert_eq!(s.parallel, p.parallel);
            for (col, &(m, cycles)) in s.parallel.iter().enumerate() {
                assert_eq!(m, BarrierMechanism::ALL[col], "ALL-order columns");
                assert_eq!(cycles, (100 * row + col + 1) as f64);
            }
        }
    }

    #[test]
    fn grid_reports_every_failed_cell() {
        let labels = vec!["good".to_string(), "bad".to_string()];
        let err = sweep_grid(&SweepRunner::new(2), &labels, |row, variant| {
            if row == 1 && variant == Some(BarrierMechanism::SwTree) {
                Err(KernelError::Validation("boom".into()))
            } else {
                fake_cell(row, variant)
            }
        })
        .expect_err("one bad cell fails the grid");
        assert!(err.contains("bad sw-tree"), "{err}");
        assert!(err.contains("boom"), "{err}");
    }
}
