//! Figure 5: execution speed-up, relative to sequential execution, of the
//! multi-threaded EEMBC Autocorrelation benchmark on 16 cores, by barrier
//! mechanism.
//!
//! Paper shape: "parallelizes readily" — 3.86× with software combining
//! barriers, 7.31× with the best filter barrier, 7.98× with the dedicated
//! barrier network; "the barrier filter performs almost as well as the
//! aggressively modeled Polychronopoulos barrier hardware, but requires
//! less modification to the cores."
//!
//! Usage: `fig5_autocorr [--quick] [--jobs N]`.

fn main() {
    bench_suite::figures::FIG5_AUTOCORR.main();
}
