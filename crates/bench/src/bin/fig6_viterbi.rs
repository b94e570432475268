//! Figure 6: execution speed-up, relative to sequential execution, of the
//! multi-threaded EEMBC Viterbi decoder on 16 cores, by barrier mechanism.
//!
//! Paper shape: "the Viterbi decoder shows more limited improvements —
//! notably, the parallel implementation using software barriers is actually
//! slower than the sequential version. Only with lower overhead barriers
//! was there a speedup from the multi-threaded approach."
//!
//! Usage: `fig6_viterbi [--quick] [--jobs N]`.

fn main() {
    bench_suite::figures::FIG6_VITERBI.main();
}
