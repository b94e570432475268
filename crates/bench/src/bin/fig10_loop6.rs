//! Figure 10: performance of Livermore Loop 6 (general linear recurrence)
//! on 16 cores versus vector length.
//!
//! Paper shape: "fast barrier synchronization provided by barrier filters
//! allows the 16-thread version … to be faster than a sequential version
//! at vector lengths as small as 64 elements. The parallel version is more
//! than a factor of 3 faster … for vector lengths of 256 elements."
//!
//! Usage: `fig10_loop6 [--quick] [--jobs N]`.

fn main() {
    bench_suite::figures::FIG10_LOOP6.main();
}
