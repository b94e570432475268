//! Expected stats digests for every item the benchmark runs.
//!
//! Three sources, in order of authority:
//! 1. the two digests the repository pins in `bench-suite`
//!    (`fig4_16core` and `viterbi_k5_16t`);
//! 2. every point `BENCH_scale.json` pins, read at build time;
//! 3. [`RECORDED`]: the digests of all other items, recorded once from
//!    the unchanged simulator with `--print-digests`.
//!
//! The simulator is deterministic, so a digest that changes means the
//! simulated behaviour changed; the benchmark counts that as a failure.

use std::collections::BTreeMap;

use bench_suite::{EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST};
use cmp_sim::json::Json;

/// Name of the folded digest of the full `fig4_spin` workload.
pub const FIG4_16CORE: &str = "fig4_spin";

/// Item name of the pinned Viterbi run (K=5, 96 bits, 16 threads,
/// filter-d).
pub const VITERBI_K5_16T: &str = "viterbi/k5-96b-10n/filter-d/16t";

const BENCH_SCALE: &str = include_str!("../../BENCH_scale.json");

/// Digests recorded once from the unchanged simulator (items no
/// repository artifact pins).
const RECORDED: &[(&str, u64)] = &[
    ("fig4/sw-central/16c/1cl/8x2", 0x62039318f02bf4b0),
    ("fig4/sw-tree/16c/1cl/8x2", 0x1b870bb14c855a9c),
    ("fig4/filter-d/16c/1cl/8x2", 0x4fcef0caebaf8c70),
    ("fig4/filter-i/16c/1cl/8x2", 0x641709c3777fe234),
    ("fig4/filter-d-pp/16c/1cl/8x2", 0x04217c30b8d2c49b),
    ("fig4/filter-i-pp/16c/1cl/8x2", 0xb40f26d15c7d9991),
    ("fig4/hw-dedicated/16c/1cl/8x2", 0xb5ba1d7033b5d049),
    ("fig4_spin/quick", 0x2c0c7800645f4e27),
    ("viterbi/k5-24b-10n/filter-d/16t", 0x37f373d569f8ed46),
    ("viterbi/k5-24b-10n/seq", 0x3ef1c2273c5f9d26),
    ("loop3/64/filter-i/16t", 0xbc062945a5b907c9),
    ("fig4/sw-central/16c/1cl/64x64", 0x255580d2547d1a62),
    ("fig4/sw-tree/16c/1cl/64x64", 0x4a0d74cf713ac5f8),
    ("fig4/filter-d/16c/1cl/64x64", 0x736e553ff1cc0d5b),
    ("fig4/filter-i/16c/1cl/64x64", 0xdaa64f31b74010e4),
    ("fig4/filter-d-pp/16c/1cl/64x64", 0xc8efb55d31b89d6e),
    ("fig4/filter-i-pp/16c/1cl/64x64", 0xf776a89e34be4b62),
    ("fig4/hw-dedicated/16c/1cl/64x64", 0xbf4c1bb8ad97d555),
    ("viterbi/k5-96b-10n/seq", 0xf100b89aad217bb9),
    ("viterbi/k5-256b-10n/filter-d/16t", 0xa55079245c2a34f7),
    ("viterbi/k5-256b-10n/seq", 0x030e3316cbf7b5bb),
    ("loop6/256/filter-d/16t", 0xd7974d7eab5b594a),
    ("loop6/256/seq", 0x6bc5185fd544de6f),
    ("autocorr/1024-32lags/filter-d/16t", 0xe8a5b3192bf189cf),
    ("autocorr/1024-32lags/seq", 0x279996349c59de9f),
    ("ocean/130g-8s/filter-d/16t", 0xab74fd194fcc1ce0),
    ("ocean/130g-8s/seq", 0xeed59e667c4449cc),
    ("loop2/64/filter-d/16t", 0xf9e91e73de6b446c),
    ("loop2/64/filter-i/16t", 0x44f8028dfd4dfb58),
    ("loop3/64/filter-d/16t", 0xf77f20ab8a20a0a2),
    ("loop2/256/filter-d/16t", 0x0a814196312d50c4),
    ("loop2/256/filter-i/16t", 0x219d0dbae3744f28),
    ("loop3/256/filter-d/16t", 0x1fa1ce01341cfca4),
    ("loop3/256/filter-i/16t", 0x3746fbcbb9fc1f41),
    ("loop2/1024/filter-d/16t", 0x769869f7cd30e1f1),
    ("loop2/1024/filter-i/16t", 0x5284118c3dede3dc),
    ("loop3/1024/filter-d/16t", 0x425c7963e6be9aca),
    ("loop3/1024/filter-i/16t", 0xdee0a877ae70ea72),
    ("loop2/1024/seq", 0xa6135cfc127cad76),
    ("loop3/1024/seq", 0xc8547542963e0ee4),
];

/// Name → expected digest.
#[derive(Debug, Clone)]
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    /// Every expectation, pinned ones overriding recorded ones.
    ///
    /// # Panics
    ///
    /// Panics if `BENCH_scale.json` does not parse.
    pub fn load() -> Expected {
        let mut map: BTreeMap<String, u64> =
            RECORDED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        let doc = Json::parse(BENCH_SCALE).expect("BENCH_scale.json parses");
        for p in doc.get("points").map(Json::items).unwrap_or(&[]) {
            let field = |k: &str| p.get(k).and_then(Json::as_u64);
            let (Some(cores), Some(clusters), Some(inner), Some(outer), Some(digest)) = (
                field("cores"),
                field("clusters"),
                field("inner"),
                field("outer"),
                field("stats_digest"),
            ) else {
                continue;
            };
            let Some(mechanism) = p.get("mechanism").and_then(Json::as_str) else {
                continue;
            };
            map.insert(
                format!("fig4/{mechanism}/{cores}c/{clusters}cl/{inner}x{outer}"),
                digest,
            );
        }
        map.insert(FIG4_16CORE.to_string(), EXPECTED_FIG4_16CORE_DIGEST);
        map.insert(VITERBI_K5_16T.to_string(), EXPECTED_VITERBI_K5_16T_DIGEST);
        Expected(map)
    }

    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.get(name).copied()
    }

    /// Flip a bit of `name`'s expectation (the self-test's deliberately
    /// wrong digest). Returns whether `name` had one.
    pub fn corrupt(&mut self, name: &str) -> bool {
        self.0.get_mut(name).map(|d| *d ^= 1).is_some()
    }
}
