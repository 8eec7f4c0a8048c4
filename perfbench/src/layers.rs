//! Standalone replays of a workload's inputs through each lower layer:
//! the FEED, the bit reader and walk kernel, the session (walk generator
//! or engine), and the transport ring and arena. Each figure is the
//! median over several trials.

use std::hint::black_box;
use std::time::Instant;

use hprng_core::pipeline::BitFeed;
use hprng_core::{ExpanderWalkRng, GlibcFeed, HybridParams};
use hprng_expander::bits::{SliceBitSource, TriBitReader, CHUNKS_PER_WORD};
use hprng_expander::{Vertex, Walk};
use hprng_transport::{bounded, BlockPool};

use crate::stats::{median, quantile_ns};
use crate::{Pass, Session};

/// Trials per layer figure, each tens of milliseconds long; the median
/// discards trials a burst of host CPU steal landed in.
const TRIALS: usize = 7;
/// Words in one transport block: the pool's default prefetch refill and
/// the engine's FEED ring block.
pub const BLOCK_WORDS: usize = 1024;
/// Steps per generated number (the paper's `l`).
pub const WALK_LEN: u32 = 64;
/// Lanes of a pool's engine session, and words of each of its calls.
const SERVING_LANES: usize = 64;
/// Engine calls timed for the per-call figures.
const ENGINE_CALLS: usize = 4000;

/// Per-layer costs, each measured on its own.
#[derive(Debug, Default)]
pub struct Layers {
    pub feed_ns_per_word: f64,
    pub bits_ns_per_chunk: f64,
    /// `Walk::advance` over replayed bits, per step (reads its own bits).
    pub walk_ns_per_step: f64,
    pub rng_ns_per_word: f64,
    pub engine: EngineLayer,
    pub ring_ns_per_block: f64,
    pub arena_ns_per_checkout: f64,
}

#[derive(Debug, Default)]
pub struct EngineLayer {
    pub call_us_p50: f64,
    pub call_us_p99: f64,
    pub ns_per_word: f64,
    /// Mean 64-word call time beyond its words' FEED and walk cost.
    pub overhead_us_per_call: f64,
    pub init_ms: f64,
    pub spans_per_call: f64,
}

/// Runs `f` for [`TRIALS`] trials; each returns (elapsed ns, units done).
fn per_unit(mut f: impl FnMut(usize) -> (f64, f64)) -> f64 {
    let samples: Vec<f64> = (0..TRIALS)
        .map(|trial| {
            let (ns, units) = f(trial);
            ns / units
        })
        .collect();
    median(&samples)
}

fn feed_words(seed: u64, words: usize) -> Vec<u64> {
    let mut buf = vec![0u64; words];
    GlibcFeed::from_master_seed(seed).fill(&mut buf);
    buf
}

pub fn measure(pass: &Pass) -> Layers {
    // Every pass serves at least one lane (or ranking round).
    let seeds = &pass.lane_seeds;
    let seed = |trial: usize| seeds[trial % seeds.len()];

    let feed_ns_per_word = per_unit(|trial| {
        let mut feed = GlibcFeed::from_master_seed(seed(trial));
        let mut block = vec![0u64; BLOCK_WORDS];
        let t0 = Instant::now();
        for _ in 0..4096 {
            feed.fill(&mut block);
            black_box(&block);
        }
        (t0.elapsed().as_nanos() as f64, (4096 * BLOCK_WORDS) as f64)
    });

    // The bit reader and the walk replay the lane's own FEED words.
    let replay_words = 1 << 18;
    let chunks = (replay_words * CHUNKS_PER_WORD) as u64;
    let bits_ns_per_chunk = per_unit(|trial| {
        let words = feed_words(seed(trial), replay_words);
        let mut reader = TriBitReader::new(SliceBitSource::new(&words));
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..chunks {
            acc = acc.wrapping_add(reader.next3() as u64);
        }
        black_box(acc);
        (t0.elapsed().as_nanos() as f64, chunks as f64)
    });
    let walk_ns_per_step = per_unit(|trial| {
        let words = feed_words(seed(trial), replay_words);
        let mut reader = TriBitReader::new(SliceBitSource::new(&words));
        let mut walk = Walk::paper_default(Vertex::unpack(words[0]));
        let numbers = chunks / WALK_LEN as u64;
        let t0 = Instant::now();
        for _ in 0..numbers {
            black_box(walk.advance(WALK_LEN, &mut reader));
        }
        (
            t0.elapsed().as_nanos() as f64,
            (numbers * WALK_LEN as u64) as f64,
        )
    });
    let rng_ns_per_word = per_unit(|trial| {
        let mut rng = ExpanderWalkRng::from_seed_u64(seed(trial));
        let t0 = Instant::now();
        for _ in 0..50_000 {
            black_box(rng.get_next_rand());
        }
        (t0.elapsed().as_nanos() as f64, 50_000.0)
    });
    let engine = engine_layer(pass, seeds[0], feed_ns_per_word, walk_ns_per_step);

    Layers {
        feed_ns_per_word,
        bits_ns_per_chunk,
        walk_ns_per_step,
        rng_ns_per_word,
        engine,
        ring_ns_per_block: per_unit(|_| ring_trial(20_000)),
        arena_ns_per_checkout: per_unit(|_| {
            let arena = BlockPool::new(BLOCK_WORDS, 8);
            let t0 = Instant::now();
            for _ in 0..50_000 {
                let block = arena.checkout_zeroed(BLOCK_WORDS);
                black_box(&block);
                arena.give_back(block);
            }
            (t0.elapsed().as_nanos() as f64, 50_000.0)
        }),
    }
}

/// `blocks` 1024-word blocks sent through a two-slot `BlockRing` to a
/// second thread, which returns each through another ring for reuse.
fn ring_trial(blocks: usize) -> (f64, f64) {
    let (tx, rx) = bounded::<Vec<u64>>(2);
    let (back_tx, back_rx) = bounded::<Vec<u64>>(2);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(block) = rx.recv() {
                black_box(&block);
                if back_tx.send(block).is_err() {
                    break;
                }
            }
        });
        let mut spare = vec![vec![0u64; BLOCK_WORDS], vec![0u64; BLOCK_WORDS]];
        for _ in 0..blocks {
            let block = match spare.pop() {
                Some(block) => block,
                None => back_rx.recv().expect("the echo thread is alive"),
            };
            tx.send(block).expect("the echo thread is alive");
        }
        drop(tx);
    });
    (t0.elapsed().as_nanos() as f64, blocks as f64)
}

/// The engine standalone. The per-call figures time 64-word
/// `try_next_batch_into` calls on a 64-lane engine, the shape a pool
/// refill drives; `init_ms` and `ns_per_word.bulk` use the workload's own
/// engine width and call sizes (0 for a workload without an engine).
fn engine_layer(
    pass: &Pass,
    seed: u64,
    feed_ns_per_word: f64,
    walk_ns_per_step: f64,
) -> EngineLayer {
    let mut engine = crate::listrank::engine(seed);
    engine
        .initialize(SERVING_LANES)
        .expect("a 64-lane engine initializes");
    let mut buf = vec![0u64; SERVING_LANES];
    let calls_ns: Vec<u64> = (0..ENGINE_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            engine
                .try_next_batch_into(&mut buf)
                .expect("a full-width call fits the engine");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let words_per_number = HybridParams::default().walk.words_per_number() as f64;
    let kernel_ns = (feed_ns_per_word * words_per_number + walk_ns_per_step * WALK_LEN as f64)
        * SERVING_LANES as f64;
    let mean_ns = calls_ns.iter().sum::<u64>() as f64 / calls_ns.len() as f64;
    let (init_ms, ns_per_word) = match pass.session {
        Session::Engine { lanes } => workload_engine(pass, seed, lanes),
        Session::Walk => (0.0, 0.0),
    };
    EngineLayer {
        call_us_p50: quantile_ns(&calls_ns, 0.5, 1e-3),
        call_us_p99: quantile_ns(&calls_ns, 0.99, 1e-3),
        ns_per_word,
        overhead_us_per_call: (mean_ns - kernel_ns) * 1e-3,
        init_ms,
        // Calls here count the initialization too (`iterations`).
        spans_per_call: engine.telemetry().spans().len() as f64 / engine.stats().iterations as f64,
    }
}

/// `Engine::initialize` at the workload's width (the median of several
/// when that is small), then its call sizes replayed: (init ms, ns per
/// word).
fn workload_engine(pass: &Pass, seed: u64, lanes: usize) -> (f64, f64) {
    let sizes: Vec<usize> = if pass.call_sizes.is_empty() {
        vec![lanes; ENGINE_CALLS]
    } else {
        pass.call_sizes.clone()
    };
    let inits = if lanes <= 4096 { 25 } else { 1 };
    let mut init_ms = Vec::new();
    let mut initialized = None;
    for _ in 0..inits {
        let mut engine = crate::listrank::engine(seed);
        let t0 = Instant::now();
        engine
            .initialize(lanes)
            .expect("the workload's engine shape initializes");
        init_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        initialized = Some(engine);
    }
    let mut engine = initialized.expect("at least one initialization");
    let mut buf = vec![0u64; lanes];
    let t0 = Instant::now();
    for &size in &sizes {
        engine
            .try_next_batch_into(&mut buf[..size])
            .expect("the workload's call sizes fit the engine");
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (median(&init_ms), ns / sizes.iter().sum::<usize>() as f64)
}
