//! Figure 7: performance (cycles per invocation) of Livermore Loop 2 on 16
//! cores versus vector length, for each barrier mechanism against the
//! sequential baseline.
//!
//! Paper shape: "the performance of the parallel version using filter
//! barriers does not surpass that of the sequential version until vector
//! lengths of 256 elements are reached", and the rapid halving of available
//! parallelism per `do-while` stage gives this kernel "a qualitatively
//! different curvature" from loops 3 and 6.
//!
//! Usage: `fig7_loop2 [--quick] [--jobs N]`.

fn main() {
    bench_suite::figures::FIG7_LOOP2.main();
}
