//! Golden pins for the lane family's bulk fill (the multicore CPU variant
//! of §IV-A, Figure 6).
//!
//! `ExpanderLanes::fill(lanes, out)` fills chunk `t` of
//! `out.len().div_ceil(lanes)` words from lane `t`. The constants below
//! are FNV-1a hashes of that output, captured from the retired
//! `CpuParallelPrng::generate` (same per-worker seeding, same chunking), so
//! the multicore stream users already depend on cannot drift.

use hprng_core::ExpanderLanes;

/// FNV-1a over the little-endian bytes, the repo's golden-hash idiom.
fn fnv(h: &mut u64, data: &[u64]) {
    for v in data {
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const LANES: [usize; 6] = [1, 2, 3, 4, 7, 16];

/// Output lengths hashed in order per `(seed, lanes)` cell; 3 is shorter
/// than most lane counts, so the trailing lanes serve nothing.
const LENGTHS: [usize; 3] = [3, 1000, 4097];

/// `(seed, [hash per LANES entry])`.
const GOLDEN: [(u64, [u64; 6]); 5] = [
    (
        0,
        [
            0x8c0d9b53b35f2051,
            0x625e5ec1c91ecd56,
            0x58dbe47b28126ef2,
            0xb5ebe63f73ea11c1,
            0x2457e0c1d3bca553,
            0x6bfd537eda8e7073,
        ],
    ),
    (
        1,
        [
            0xc8124491e1627ab5,
            0x092659b36a2ed8f7,
            0xfcf183da7ed8e153,
            0x82e2352d0c7f05d7,
            0xe521c861d8d20056,
            0xfb9f85a58567bece,
        ],
    ),
    (
        42,
        [
            0x6b8618e24ca03cf9,
            0xc0f29f0b91115527,
            0xe33180d2ca40cd87,
            0xb6cbe5a615062439,
            0x56e95016fd206e9c,
            0x24af4cf291a1169a,
        ],
    ),
    (
        20120521,
        [
            0x9bb821534cd47e51,
            0xc5f5f835a5335433,
            0x1084484c05b48abb,
            0xd3aa2175a030b60f,
            0xe0dbc72caae1b7ec,
            0x7c2af319dc6b25d2,
        ],
    ),
    (
        u64::MAX,
        [
            0x929c4a70d89cacdc,
            0x5c3000748574a303,
            0x11091dd44057772f,
            0x06d427d07d8a57a9,
            0x82352a18b8589f92,
            0x0c3a19b18cc4bf5a,
        ],
    ),
];

#[test]
fn lane_fill_matches_the_captured_multicore_streams() {
    for (seed, hashes) in GOLDEN {
        let family = ExpanderLanes::new(seed);
        for (&lanes, &expected) in LANES.iter().zip(&hashes) {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for len in LENGTHS {
                let mut out = vec![0u64; len];
                family.fill(lanes, &mut out);
                fnv(&mut h, &out);
            }
            assert_eq!(h, expected, "seed {seed} lanes {lanes}");
        }
    }
}
