//! Figure 8: performance (cycles per invocation) of Livermore Loop 3
//! (inner product) on 16 cores versus vector length.
//!
//! Paper shape: "the performance of the parallel versions using filter
//! barriers surpasses that of the sequential version at vector lengths as
//! short as 64 elements (8 elements per thread from each input vector, due
//! to the minimum partition size to avoid useless coherence traffic)";
//! software barriers "required vector lengths longer by a factor of two to
//! four to achieve a speedup".
//!
//! Usage: `fig8_loop3 [--quick] [--jobs N]`.

fn main() {
    bench_suite::figures::FIG8_LOOP3.main();
}
