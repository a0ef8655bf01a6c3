//! Workload seeds, the inputs they draw, and golden fingerprints for the
//! default seed and the held-out seed.
//!
//! Every workload simulates the canonical suite programs and mixes (those
//! of [`PROGRAM_SEED`]); the workload seed draws each run's sampling
//! point, i.e. how many cycles run before its timed warm-up window. So
//! different seeds time different windows of the same programs, while
//! the work per repetition stays comparable across seeds: program seeds
//! alone move committed instructions per window by up to ±25%, sampling
//! points by about ±3%.
//!
//! An engine fingerprint is `cycles/committed/per-thread committed`, one
//! per run in workload order (designs outer, mixes inner). A sweep
//! fingerprint is the matrix's total committed instructions and its
//! Pareto frontier. Simulation is deterministic, so these repeat exactly
//! on every host; other seeds are checked for agreement between
//! repetitions and between the traced and untraced paths only.

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 7;

/// The seed held out for confirming later claims (see README.md).
pub const HELD_OUT_SEED: u64 = 2027;

/// The seed of the suite programs and mixes every workload simulates.
pub const PROGRAM_SEED: u64 = 7;

/// The sampling point of run `index` under workload seed `seed`: a
/// cycle count in `[0, span)`, drawn by splitmix64.
pub fn sampling_point(seed: u64, index: usize, span: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % span
}

const ENGINE: &[(&str, u64, &[&str])] = &[
    (
        "engine-busy",
        DEFAULT_SEED,
        &[
            "100000/106175/9704,3736,77686,15049",
            "100000/109368/10072,3627,78027,17642",
            "100000/124334/10403,3999,85610,24322",
        ],
    ),
    (
        "engine-busy",
        HELD_OUT_SEED,
        &[
            "100000/104777/9940,3813,76113,14911",
            "100000/107959/9997,3978,76426,17558",
            "100000/125123/10589,4225,86081,24228",
        ],
    ),
    (
        "engine-membound",
        DEFAULT_SEED,
        &[
            "240000/44101/33125,10976",
            "240000/55742/10772,44970",
            "240000/44182/33321,10861",
            "240000/56124/10707,45417",
            "240000/48941/36753,12188",
            "240000/79225/11380,67845",
        ],
    ),
    (
        "engine-membound",
        HELD_OUT_SEED,
        &[
            "240000/44226/33094,11132",
            "240000/55733/10756,44977",
            "240000/44304/33414,10890",
            "240000/56110/10690,45420",
            "240000/48325/36274,12051",
            "240000/79227/11405,67822",
        ],
    ),
];

const SWEEP: &[(u64, u64, &str)] = &[
    (
        DEFAULT_SEED,
        543_746,
        "base64/2,base64/4,shelf-cons/4,shelf-opt/2,shelf-opt/4",
    ),
    (
        HELD_OUT_SEED,
        544_669,
        "base64/2,base64/4,shelf-cons/2,shelf-cons/4,shelf-opt/2,shelf-opt/4",
    ),
];

/// Golden engine fingerprints for `workload` at `seed`, if recorded.
pub fn engine(workload: &str, seed: u64) -> Option<&'static [&'static str]> {
    ENGINE
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, prints)| *prints)
}

/// Golden `(total committed, frontier)` of the sweep at `seed`.
pub fn sweep(seed: u64) -> Option<(u64, &'static str)> {
    SWEEP
        .iter()
        .find(|(s, _, _)| *s == seed)
        .map(|(_, total, front)| (*total, *front))
}
