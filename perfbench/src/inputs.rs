//! Workload inputs, all derived from the `--seed` argument. The program
//! under test receives only what these functions generate: the pool seed,
//! lane ids, request sizes, stream lengths, resume positions and the list.

use hprng_baselines::SplitMix64;
use hprng_core::seeding::{lane_seed, mix64};

/// Independent input streams, one per purpose, from one workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    seed: u64,
}

/// Purposes of the seeded streams (domain separation).
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
pub enum Purpose {
    PoolSeed = 1,
    Requests = 2,
    Lanes = 3,
    List = 4,
    EngineSeeds = 5,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// A stream for `purpose`, split per `index` (a client thread, say).
    pub fn stream(&self, purpose: Purpose, index: u64) -> SplitMix64 {
        SplitMix64::new(mix64(lane_seed(mix64(self.seed ^ purpose as u64), index)))
    }

    /// The master seed of the pool (or engines) under test.
    pub fn pool_seed(&self) -> u64 {
        self.stream(Purpose::PoolSeed, 0).next()
    }
}

/// Request sizes, in words, of one serving client: mostly 64-word
/// `fill_words`, one in eight a single-word `try_next_u64`, and one in
/// sixty-four a 4096-word fill. Every block of 64 requests holds exactly
/// that mix in a seeded order, so each seed offers the same load.
pub fn request_sizes(rng: &mut SplitMix64, count: usize) -> Vec<usize> {
    let mut block: Vec<usize> = (0..64)
        .map(|k| match k {
            0..=7 => 1,
            8 => 4096,
            _ => 64,
        })
        .collect();
    let mut sizes = Vec::with_capacity(count);
    while sizes.len() < count {
        shuffle(rng, &mut block);
        sizes.extend_from_slice(&block);
    }
    sizes.truncate(count);
    sizes
}

/// Log-uniform stream lengths in `[64, 65536]` words: three decades,
/// capped so the cost of resuming at that position (a replay of the lane)
/// does not drift with run length. Draws are stratified: each block of
/// [`STRATA`] lengths has one in every sixteenth of the log range, in a
/// seeded order, so a run's length distribution barely depends on the seed.
pub fn stream_lengths(rng: &mut SplitMix64, count: usize) -> Vec<u64> {
    let mut strata: Vec<usize> = (0..STRATA).collect();
    let mut lengths = Vec::with_capacity(count);
    while lengths.len() < count {
        shuffle(rng, &mut strata);
        for &k in &strata {
            let u = (k as f64 + unit(rng)) / STRATA as f64;
            lengths.push((64.0 * 1024f64.powf(u)).round() as u64);
        }
    }
    lengths.truncate(count);
    lengths
}

/// Strata per block of [`stream_lengths`].
pub const STRATA: usize = 16;

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next() >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates with the seeded stream.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for k in (1..items.len()).rev() {
        items.swap(k, (rng.next() % (k as u64 + 1)) as usize);
    }
}

/// A lane id no other draw is likely to repeat (48 random bits).
pub fn lane_id(rng: &mut SplitMix64) -> u64 {
    rng.next() >> 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let (a, b) = (Inputs::new(7), Inputs::new(7));
        assert_eq!(a.pool_seed(), b.pool_seed());
        assert_ne!(a.pool_seed(), Inputs::new(8).pool_seed());
        let sizes = |i: Inputs| request_sizes(&mut i.stream(Purpose::Requests, 1), 1000);
        assert_eq!(sizes(a), sizes(b));
        assert_ne!(
            sizes(a),
            request_sizes(&mut a.stream(Purpose::Requests, 2), 1000)
        );
    }

    #[test]
    fn stream_lengths_span_three_decades_in_every_block() {
        let lengths = stream_lengths(&mut Inputs::new(1).stream(Purpose::Lanes, 0), 10 * STRATA);
        assert!(lengths.iter().all(|&l| (64..=65_536).contains(&l)));
        for block in lengths.chunks(STRATA) {
            assert!(block.iter().any(|&l| l < 100));
            assert!(block.iter().any(|&l| l > 42_000));
        }
    }

    #[test]
    fn the_request_mix_is_mostly_64_word_fills() {
        let sizes = request_sizes(&mut Inputs::new(3).stream(Purpose::Requests, 0), 64_000);
        let count = |n| sizes.iter().filter(|&&s| s == n).count();
        assert_eq!(count(1), 8_000);
        assert_eq!(count(4096), 1_000);
        assert_eq!(count(64), 55_000);
    }
}
