//! The `listrank` workload: one caller ranks a seeded random list of
//! 10^6 nodes with Algorithm 3 (`rank_on_session`) on an
//! `Engine<CpuBackend>` with one lane per node, repeatedly, for the run.

use std::time::{Duration, Instant};

use hprng_core::{
    CpuBackend, Engine, GlibcFeed, HprngError, HybridParams, OnDemandRng, PipelineMode,
};
use hprng_listrank::{rank_on_session, sequential_rank, LinkedList};

use crate::inputs::{Inputs, Purpose};
use crate::trace::SpanLog;
use crate::{Pass, Session};

/// Nodes in the ranked list.
pub const NODES: usize = 1_000_000;

/// The workload's engine: the default CPU backend and pipeline mode, as a
/// user gets them.
pub fn engine(seed: u64) -> Engine<CpuBackend> {
    Engine::with_mode(
        CpuBackend::new(HybridParams::default()),
        Box::new(GlibcFeed::from_master_seed(seed)),
        PipelineMode::Auto,
    )
}

/// A bench-side wrapper that times every call Algorithm 3 makes into the
/// session and records it as a span.
struct Timed<'a> {
    inner: &'a mut Engine<CpuBackend>,
    log: &'a mut SpanLog,
    parent: Option<usize>,
    request: u64,
    calls_ns: Vec<u64>,
    sizes: Vec<usize>,
    /// Lane 0's first number, which a resumed session must serve again.
    first_word: Option<u64>,
}

impl OnDemandRng for Timed<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn lanes(&self) -> usize {
        OnDemandRng::lanes(self.inner)
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        let t0 = Instant::now();
        let result = self.inner.try_next_batch_into(out);
        let t1 = Instant::now();
        self.calls_ns.push(t1.duration_since(t0).as_nanos() as u64);
        self.sizes.push(out.len());
        if self.first_word.is_none() && result.is_ok() {
            self.first_word = out.first().copied();
        }
        self.log.record(
            "engine.call",
            t0,
            t1,
            self.parent,
            self.request,
            out.len() as u64,
        );
        result
    }

    fn words_served(&self) -> u64 {
        self.inner.words_served()
    }
}

/// Runs ranking rounds until `seconds` have passed (at least one). Each
/// round opens a fresh engine on a seeded master seed, ranks, checks the
/// ranks against `sequential_rank`, then resumes a checkpoint of that
/// session taken right after its initialization. Rounds are the intervals
/// the end-to-end figures choose calm ones from, `setup_s` included.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Result<Pass, String> {
    let list = LinkedList::random(NODES, &mut inputs.stream(Purpose::List, 0));
    let expected = sequential_rank(&list);
    let mut seeds = inputs.stream(Purpose::EngineSeeds, 0);
    let mut log = SpanLog::new(traced, Instant::now(), 0);
    let mut pass = Pass {
        clients: 1,
        session: Session::Engine { lanes: NODES },
        request_quantiles_per_interval: true,
        ..Pass::default()
    };

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut solve_total = 0.0;
    // Each round is an interval; its CPU steal per second decides whether
    // it is one of the calm rounds the end-to-end figures use.
    let mut steal = Vec::new();
    let mut setups = Vec::new();
    for round in 0.. {
        if round > 0 && Instant::now() >= deadline {
            break;
        }
        let round_start = (Instant::now(), crate::host::steal_ticks());
        let seed = seeds.next();
        pass.lane_seeds.push(seed);
        let request = log.new_request();
        let opened = Instant::now();
        let mut session = engine(seed);
        let t0 = Instant::now();
        pass.attempted += 1;
        session
            .initialize(NODES)
            .map_err(|e| format!("initializing {NODES} lanes failed: {e}"))?;
        let t1 = Instant::now();
        setups.push(t1.duration_since(t0).as_secs_f64());
        log.record("engine.initialize", t0, t1, None, request, 0);
        let checkpoint = session.checkpoint();

        let solve = log.open("listrank.solve", t1, request);
        let mut timed = Timed {
            inner: &mut session,
            log: &mut log,
            parent: solve,
            request,
            calls_ns: Vec::new(),
            sizes: Vec::new(),
            first_word: None,
        };
        // Algorithm 3 panics on a session error, which would be a bug in
        // the generator; it surfaces as a failed run.
        let (ranks, reduction) = rank_on_session(&list, &mut timed);
        let t2 = Instant::now();
        let Timed {
            calls_ns,
            sizes,
            first_word,
            ..
        } = timed;
        log.close(solve, t2, session.words_served());

        let solve_s = t2.duration_since(t1).as_secs_f64();
        solve_total += solve_s;
        pass.units_s.push(round, solve_s);
        pass.rates
            .push(round, session.words_served() as f64 / solve_s);
        pass.words += session.words_served();
        pass.attempted += calls_ns.len() as u64 + 1;
        if let Some(first) = calls_ns.first() {
            // Opening a session: construction and initialization through
            // the first batch Algorithm 3 receives.
            let admit = t1.duration_since(opened).as_nanos() as u64 + first;
            pass.admits_ns.push(round, admit as f64);
        }
        for ns in calls_ns {
            pass.requests_ns.push(round, ns as f64);
        }
        pass.iterations.push(reduction.iterations as f64);
        pass.call_sizes = sizes;
        if ranks != expected {
            pass.failed += 1;
            pass.failures.push(format!(
                "engine seed {seed}: ranks differ from sequential_rank"
            ));
        }
        drop(session);

        pass.attempted += 1;
        match resume(seed, checkpoint, &mut log, request) {
            Ok((ns, word)) if Some(word) == first_word => pass.resumes_ns.push(round, ns as f64),
            Ok(_) => {
                pass.failed += 1;
                pass.failures
                    .push(format!("engine seed {seed}: the resumed session diverged"));
            }
            Err(e) => {
                pass.failed += 1;
                pass.failures
                    .push(format!("engine seed {seed}: resume failed: {e}"));
            }
        }
        let (at, ticks) = round_start;
        let per_second = match (ticks, crate::host::steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / at.elapsed().as_secs_f64(),
            _ => 0.0,
        };
        steal.push(per_second);
    }
    pass.calm = crate::stats::calm(&steal);
    pass.setups_s = setups
        .into_iter()
        .zip(&pass.calm)
        .filter_map(|(s, &calm)| calm.then_some(s))
        .collect();
    pass.wall_s = solve_total;
    pass.logs.push(log);
    Ok(pass)
}

/// Restores a fresh engine onto `checkpoint` and serves its first word;
/// returns the time that took and the word.
fn resume(
    seed: u64,
    checkpoint: Result<hprng_core::StreamState, HprngError>,
    log: &mut SpanLog,
    request: u64,
) -> Result<(u64, u64), HprngError> {
    let state = checkpoint?;
    let t0 = Instant::now();
    let mut session = engine(seed);
    session.try_restore(&state)?;
    let mut first = [0u64; 1];
    session.try_next_batch_into(&mut first)?;
    let t1 = Instant::now();
    log.record("engine.resume", t0, t1, None, request, 1);
    Ok((t1.duration_since(t0).as_nanos() as u64, first[0]))
}
