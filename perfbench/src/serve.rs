//! The two serving workloads: closed loops of client threads on an
//! `hprng-pool` with default shards.
//!
//! * `serve-engine`: one long-lived client per CPU on a pool of
//!   `CpuEngine { lanes: 64 }` sessions, drawing the seeded request mix;
//!   every second job is followed by one short-lived probe lane
//!   (admit → stream 4096 words → checkpoint → drop → resume → read on).
//! * `churn`: one thread per CPU on a default (`ExpanderWalk`) pool,
//!   cycling lanes: admit → stream → checkpoint → drop → resume → stream
//!   (one cycle in eight migrates mid-stream) → drop.
//!
//! Every delivered word is folded into a per-lane digest; after the timed
//! window each lane is replayed standalone and compared.

use std::time::{Duration, Instant};

use hprng_baselines::SplitMix64;
use hprng_core::seeding::lane_seed;
use hprng_core::{CpuBackend, Engine, ExpanderWalkRng, GlibcFeed, HybridParams, PipelineMode};
use hprng_pool::{names, Pool, PoolBuilder, PoolClient, SessionKind};
use hprng_telemetry::Histogram;

use crate::inputs::{self, Inputs, Purpose};
use crate::stats::{Series, StreamHash};
use crate::trace::SpanLog;
use crate::{Pass, PoolWindow, Session};

/// Walks per `serve-engine` client session.
pub const ENGINE_LANES: usize = 64;
/// Pool builds (each with its initial admissions) timed for `setup_s`.
const SETUP_REPS: usize = 25;
/// Requests per `serve-engine` job, the unit `solve_s` times: four blocks
/// of the request mix, so every job asks for the same 30 496 words.
const JOB_REQUESTS: usize = 256;
/// `serve-engine` clients serve one probe lane after this many jobs.
const PROBE_EVERY: usize = 2;
/// Words a probe lane reads before its checkpoint: the resume position,
/// fixed so that resume latency does not depend on which probes landed
/// in calm seconds (`churn` covers a range of positions).
const PROBE_BEFORE: u64 = 4096;
/// Words a probe lane reads after its resume.
const PROBE_AFTER: u64 = 64;
/// One churn cycle in this many migrates its lane mid-stream.
const MIGRATE_EVERY: usize = 8;
/// The pool's span sampling rate in the traced run (its histograms record
/// every refill regardless).
const TRACE_SAMPLE_EVERY: u64 = 64;
/// Schedule entries generated per client; runs cycle through them.
const SCHEDULE_LEN: usize = 1 << 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeEngine,
    Churn,
}

/// One lane's delivered stream, for the post-window check.
struct Lane {
    id: u64,
    words: u64,
    hash: StreamHash,
}

/// What one client thread measured.
struct ClientOut {
    start: Instant,
    end: Instant,
    words: u64,
    /// Words delivered in each second since `start`.
    per_second: Vec<u64>,
    requests_ns: Series,
    admits_ns: Series,
    resumes_ns: Series,
    units_s: Series,
    attempted: u64,
    failed: u64,
    lanes: Vec<Lane>,
    log: SpanLog,
}

impl ClientOut {
    /// The second of the window `at` falls in.
    fn second(&self, at: Instant) -> usize {
        at.saturating_duration_since(self.start).as_secs() as usize
    }

    /// Counts `words` delivered at `at`.
    fn credit(&mut self, at: Instant, words: u64) {
        let second = self.second(at);
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += words;
        self.words += words;
    }

    fn new(start: Instant, log: SpanLog) -> Self {
        Self {
            start,
            end: start,
            words: 0,
            per_second: Vec::new(),
            requests_ns: Series::default(),
            admits_ns: Series::default(),
            resumes_ns: Series::default(),
            units_s: Series::default(),
            attempted: 0,
            failed: 0,
            lanes: Vec::new(),
            log,
        }
    }
}

fn builder(kind: Kind, pool_seed: u64, traced: bool) -> PoolBuilder {
    let mut b = Pool::builder(pool_seed);
    if kind == Kind::ServeEngine {
        b = b.session(SessionKind::CpuEngine {
            lanes: ENGINE_LANES,
            params: HybridParams::default(),
        });
    }
    if traced {
        b = b.tracing(TRACE_SAMPLE_EVERY);
    }
    b
}

/// A client admitted during setup, with its first word already drawn.
struct Admitted {
    client: PoolClient,
    hash: StreamHash,
}

/// Runs one pass of `kind` for `seconds` of closed-loop load.
pub fn run(kind: Kind, inputs: &Inputs, seconds: f64, traced: bool) -> Result<Pass, String> {
    let clients = crate::host::nproc();
    let pool_seed = inputs.pool_seed();
    let epoch = Instant::now();
    let mut pass = Pass {
        clients,
        session: match kind {
            Kind::ServeEngine => Session::Engine {
                lanes: ENGINE_LANES,
            },
            Kind::Churn => Session::Walk,
        },
        ..Pass::default()
    };
    let mut schedules: Vec<Schedule> = (0..clients)
        .map(|t| Schedule::new(inputs, t, clients))
        .collect();
    let first_ids: Vec<u64> = schedules.iter_mut().map(Schedule::next_id).collect();

    // Setup: build the pool and admit every client's first lane, several
    // times; the last build serves the window.
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let pool = builder(kind, pool_seed, traced)
            .build()
            .map_err(|e| format!("pool build failed: {e}"))?;
        let mut admitted = Vec::with_capacity(clients);
        for &id in &first_ids {
            let mut client = pool
                .try_client_with_id(id)
                .map_err(|e| format!("admission failed: {e}"))?;
            let word = client
                .try_next_u64()
                .map_err(|e| format!("first word failed: {e}"))?;
            let mut hash = StreamHash::default();
            hash.absorb(&[word]);
            admitted.push(Admitted { client, hash });
        }
        pass.setups_s.push(t0.elapsed().as_secs_f64());
        pass.attempted += 2 * clients as u64;
        kept = Some((pool, admitted));
    }
    let (pool, admitted) = kept.ok_or("no setup repetitions")?;

    let before = pool.stats();
    // Every thread starts at `start`; the window's whole seconds are its
    // intervals, and a sampler thread reads the CPU steal of each.
    let whole_seconds = seconds.floor() as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds);
    let (outs, steal): (Vec<ClientOut>, Vec<f64>) = std::thread::scope(|s| {
        let sampler = s.spawn(move || steal_per_second(start, whole_seconds));
        let handles: Vec<_> = admitted
            .into_iter()
            .zip(schedules)
            .enumerate()
            .map(|(t, (first, schedule))| {
                let pool = &pool;
                s.spawn(move || {
                    let log = SpanLog::new(traced, epoch, t as u64);
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let mut client = Client::new(pool, schedule, start, deadline, log);
                    match kind {
                        Kind::ServeEngine => client.serve(first),
                        Kind::Churn => client.churn(first),
                    }
                    client.out.end = Instant::now();
                    client.out
                })
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (outs, sampler.join().expect("the steal sampler panicked"))
    });
    let after = pool.stats();

    let start = outs.iter().map(|o| o.start).min().unwrap_or(epoch);
    let end = outs.iter().map(|o| o.end).max().unwrap_or(epoch);
    pass.wall_s = end.duration_since(start).as_secs_f64();
    let mut per_second = vec![0u64; whole_seconds];
    let mut lanes = Vec::new();
    for out in outs {
        for (total, words) in per_second.iter_mut().zip(&out.per_second) {
            *total += words;
        }
        pass.words += out.words;
        pass.requests_ns.extend(out.requests_ns);
        pass.admits_ns.extend(out.admits_ns);
        pass.resumes_ns.extend(out.resumes_ns);
        pass.units_s.extend(out.units_s);
        pass.attempted += out.attempted;
        pass.failed += out.failed;
        lanes.extend(out.lanes);
        pass.logs.push(out.log);
    }
    for (second, &words) in per_second.iter().enumerate() {
        pass.rates.push(second, words as f64);
    }
    pass.calm = crate::stats::calm(&steal);
    pass.pool = Some(pool_window(&pool, &before, &after));
    pool.shutdown();
    pass.lane_seeds = lanes.iter().map(|l| lane_seed(pool_seed, l.id)).collect();
    check_lanes(kind, pool_seed, &lanes, &mut pass);
    Ok(pass)
}

/// The pool's own counters over the window, plus its tracing registry's
/// phase histograms when tracing is on.
fn pool_window(
    pool: &Pool,
    before: &hprng_pool::PoolStats,
    after: &hprng_pool::PoolStats,
) -> PoolWindow {
    let mut window = PoolWindow {
        refills: after.refills - before.refills,
        produced_words: after.words - before.words,
        ..PoolWindow::default()
    };
    if let Some(registry) = pool.registry() {
        let snapshot = registry.snapshot();
        let merged = |name: fn(usize) -> String| {
            let mut h = Histogram::new();
            for shard in 0..pool.shards() {
                if let Some(part) = snapshot.histogram(&name(shard)) {
                    h.merge(part);
                }
            }
            h
        };
        window.enqueue_wait_p99_ns = merged(names::shard_enqueue_wait_ns).quantile_ns(0.99);
        window.service_p50_ns = merged(names::shard_service_ns).quantile_ns(0.5);
        window.refill_copy_p50_ns = merged(names::shard_refill_copy_ns).quantile_ns(0.5);
    }
    window
}

/// CPU steal ticks in each of the `seconds` whole seconds after `start`
/// (all zero when the host does not report steal).
fn steal_per_second(start: Instant, seconds: usize) -> Vec<f64> {
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut last = crate::host::steal_ticks();
    (1..=seconds)
        .map(|k| {
            let tick = start + Duration::from_secs(k as u64);
            std::thread::sleep(tick.saturating_duration_since(Instant::now()));
            let now = crate::host::steal_ticks();
            let ticks = match (last, now) {
                (Some(a), Some(b)) => b.saturating_sub(a) as f64,
                _ => 0.0,
            };
            last = now;
            ticks
        })
        .collect()
}

/// One client thread's seeded inputs: request sizes of `serve-engine`'s
/// jobs and of short-lived lanes (apart, so every job holds whole blocks
/// of the mix), stream lengths before the checkpoint (the resume
/// positions) and after the resume, and lane ids. Ids are homed on the
/// thread's own shard (`id % shards` with the default `nproc` shards), so
/// the seed picks lane seeds without changing the load balance.
struct Schedule {
    job_sizes: std::iter::Cycle<std::vec::IntoIter<usize>>,
    lane_sizes: std::iter::Cycle<std::vec::IntoIter<usize>>,
    befores: std::iter::Cycle<std::vec::IntoIter<u64>>,
    afters: std::iter::Cycle<std::vec::IntoIter<u64>>,
    ids: SplitMix64,
    thread: u64,
    clients: u64,
}

impl Schedule {
    fn new(inputs: &Inputs, t: usize, clients: usize) -> Self {
        let lengths = |k: usize| {
            let mut rng = inputs.stream(Purpose::Lanes, (k * clients + t) as u64);
            inputs::stream_lengths(&mut rng, SCHEDULE_LEN)
                .into_iter()
                .cycle()
        };
        let sizes = |k: usize| {
            let mut rng = inputs.stream(Purpose::Requests, (k * clients + t) as u64);
            inputs::request_sizes(&mut rng, SCHEDULE_LEN)
                .into_iter()
                .cycle()
        };
        Self {
            job_sizes: sizes(0),
            lane_sizes: sizes(1),
            befores: lengths(1),
            afters: lengths(2),
            ids: inputs.stream(Purpose::Lanes, t as u64),
            thread: t as u64,
            clients: clients as u64,
        }
    }

    fn next_id(&mut self) -> u64 {
        inputs::lane_id(&mut self.ids) * self.clients + self.thread
    }

    fn next_job_size(&mut self) -> usize {
        self.job_sizes.next().expect("the schedule is never empty")
    }

    fn next_lane_size(&mut self) -> usize {
        self.lane_sizes.next().expect("the schedule is never empty")
    }
}

/// The span name of a request, by size class.
fn request_span(words: usize) -> &'static str {
    match words {
        1 => "pool.next_u64",
        2..=64 => "pool.fill_64w",
        _ => "pool.fill_4096w",
    }
}

/// How a lane's client came to be: a fresh admission or a resume.
#[derive(Clone, Copy)]
enum Entry {
    Admit,
    Resume,
}

impl Entry {
    /// Span names of the call through the first word, and of the call
    /// alone.
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Entry::Admit => ("pool.admit", "pool.admit.call"),
            Entry::Resume => ("pool.resume", "pool.resume.call"),
        }
    }
}

/// One client thread of the closed loop.
struct Client<'a> {
    pool: &'a Pool,
    schedule: Schedule,
    deadline: Instant,
    buf: Vec<u64>,
    out: ClientOut,
}

impl<'a> Client<'a> {
    fn new(
        pool: &'a Pool,
        schedule: Schedule,
        start: Instant,
        deadline: Instant,
        log: SpanLog,
    ) -> Self {
        Self {
            pool,
            schedule,
            deadline,
            buf: vec![0u64; 4096],
            out: ClientOut::new(start, log),
        }
    }

    /// Serves one request of `words` words and folds it into `hash`;
    /// records its latency and span. Returns false when it failed.
    fn request(
        &mut self,
        client: &mut PoolClient,
        words: usize,
        hash: &mut StreamHash,
        parent: Option<usize>,
        req: u64,
    ) -> bool {
        let buf = &mut self.buf[..words];
        let t0 = Instant::now();
        let result = if words == 1 {
            client.try_next_u64().map(|w| buf[0] = w)
        } else {
            client.fill_words(buf)
        };
        let t1 = Instant::now();
        let out = &mut self.out;
        out.attempted += 1;
        if result.is_err() {
            out.failed += 1;
            return false;
        }
        hash.absorb(buf);
        out.credit(t1, words as u64);
        let second = out.second(t1);
        out.requests_ns
            .push(second, t1.duration_since(t0).as_nanos() as f64);
        out.log
            .record(request_span(words), t0, t1, parent, req, words as u64);
        true
    }

    /// Streams `words` more words of a lane in requests of the mix (the
    /// last one truncated). Returns the words delivered and whether it
    /// finished before the deadline.
    fn stream(
        &mut self,
        client: &mut PoolClient,
        words: u64,
        hash: &mut StreamHash,
        parent: Option<usize>,
        req: u64,
    ) -> (u64, bool) {
        let mut delivered = 0;
        while delivered < words {
            let want = (self.schedule.next_lane_size() as u64).min(words - delivered);
            if self.request(client, want as usize, hash, parent, req) {
                delivered += want;
            }
            if Instant::now() >= self.deadline {
                return (delivered, false);
            }
        }
        (delivered, true)
    }

    /// Admits a client with `admit` and draws its first word, recording
    /// the latency to it and both spans; returns the client and the word,
    /// or `None` when either step failed.
    fn first_word(
        &mut self,
        entry: Entry,
        parent: Option<usize>,
        req: u64,
        admit: impl FnOnce() -> Result<PoolClient, hprng_core::HprngError>,
    ) -> Option<(PoolClient, u64)> {
        let out = &mut self.out;
        let t0 = Instant::now();
        out.attempted += 1;
        let result = admit().and_then(|mut client| {
            let called = Instant::now();
            client.try_next_u64().map(|word| (client, word, called))
        });
        let t1 = Instant::now();
        let Ok((client, word, called)) = result else {
            out.failed += 1;
            return None;
        };
        let (name, call) = entry.spans();
        let span = out.log.record(name, t0, t1, parent, req, 1);
        out.log.record(call, t0, called, span, req, 0);
        out.credit(t1, 1);
        let latency = t1.duration_since(t0).as_nanos() as f64;
        let second = out.second(t1);
        match entry {
            Entry::Admit => out.admits_ns.push(second, latency),
            Entry::Resume => out.resumes_ns.push(second, latency),
        }
        Some((client, word))
    }

    /// `serve-engine`: the long-lived client draws jobs of the request
    /// mix; after every [`PROBE_EVERY`] jobs it also serves one
    /// short-lived probe lane, whose resume is what `resume_*` times.
    fn serve(&mut self, first: Admitted) {
        let Admitted {
            mut client,
            mut hash,
        } = first;
        let mut delivered = 1u64;
        for job in 1.. {
            let job_start = Instant::now();
            let req = self.out.log.new_request();
            let span = self.out.log.open("serve.job", job_start, req);
            let mut job_words = 0u64;
            for _ in 0..JOB_REQUESTS {
                let words = self.schedule.next_job_size();
                if self.request(&mut client, words, &mut hash, span, req) {
                    job_words += words as u64;
                }
                if Instant::now() >= self.deadline {
                    break;
                }
            }
            delivered += job_words;
            let job_end = Instant::now();
            if job_end >= self.deadline {
                break;
            }
            self.out.log.close(span, job_end, job_words);
            let second = self.out.second(job_end);
            self.out
                .units_s
                .push(second, job_end.duration_since(job_start).as_secs_f64());
            if job % PROBE_EVERY == 0 {
                let req = self.out.log.new_request();
                let span = self.out.log.open("serve.probe", Instant::now(), req);
                let (lane, _) = self.lane(None, PROBE_BEFORE, PROBE_AFTER, false, span, req);
                self.out.log.close(span, Instant::now(), lane.words);
                self.out.lanes.push(lane);
            }
        }
        self.out.lanes.push(Lane {
            id: client.id(),
            words: delivered,
            hash,
        });
    }

    /// `churn`: every cycle is one short-lived lane; one in
    /// [`MIGRATE_EVERY`] migrates mid-stream.
    fn churn(&mut self, first: Admitted) {
        let mut first = Some(first);
        for cycle in 1.. {
            let cycle_start = Instant::now();
            if cycle_start >= self.deadline {
                break;
            }
            let req = self.out.log.new_request();
            let span = self.out.log.open("churn.cycle", cycle_start, req);
            let before = self.schedule.befores.next().unwrap_or(64);
            let after = self.schedule.afters.next().unwrap_or(64);
            let migrate = cycle % MIGRATE_EVERY == 0;
            let (lane, finished) = self.lane(first.take(), before, after, migrate, span, req);
            let cycle_end = Instant::now();
            self.out.log.close(span, cycle_end, lane.words);
            if finished {
                let second = self.out.second(cycle_end);
                self.out
                    .units_s
                    .push(second, cycle_end.duration_since(cycle_start).as_secs_f64());
            }
            self.out.lanes.push(lane);
        }
    }

    /// One short-lived lane: admit (unless `first` was admitted in setup)
    /// → `before` words → checkpoint → drop → resume → `after` words,
    /// migrating to the next shard half way when `migrate` → drop.
    /// Returns the lane's stream and whether every step finished before
    /// the deadline.
    fn lane(
        &mut self,
        first: Option<Admitted>,
        before: u64,
        after: u64,
        migrate: bool,
        span: Option<usize>,
        req: u64,
    ) -> (Lane, bool) {
        let pool = self.pool;
        let (mut client, mut hash) = match first {
            Some(Admitted { client, hash }) => (client, hash),
            None => {
                let id = self.schedule.next_id();
                let Some((client, word)) =
                    self.first_word(Entry::Admit, span, req, || pool.try_client_with_id(id))
                else {
                    let hash = StreamHash::default();
                    return (Lane { id, words: 0, hash }, false);
                };
                let mut hash = StreamHash::default();
                hash.absorb(&[word]);
                (client, hash)
            }
        };
        let id = client.id();
        let mut words = 1;
        let (n, ok) = self.stream(&mut client, before - 1, &mut hash, span, req);
        words += n;
        if !ok {
            return (Lane { id, words, hash }, false);
        }
        let t0 = Instant::now();
        let state = client.checkpoint();
        self.out.attempted += 1;
        self.out
            .log
            .record("pool.checkpoint", t0, Instant::now(), span, req, 0);
        drop(client);
        let Some((mut client, word)) =
            self.first_word(Entry::Resume, span, req, || pool.try_client_resumed(&state))
        else {
            return (Lane { id, words, hash }, false);
        };
        hash.absorb(&[word]);
        words += 1;
        let mut rest = after - 1;
        if migrate {
            let (n, ok) = self.stream(&mut client, rest / 2, &mut hash, span, req);
            words += n;
            rest -= n;
            if !ok {
                return (Lane { id, words, hash }, false);
            }
            let t0 = Instant::now();
            let target = (client.shard() + 1) % pool.shards();
            self.out.attempted += 1;
            if client.migrate_to(target).is_err() {
                self.out.failed += 1;
            }
            self.out
                .log
                .record("pool.migrate", t0, Instant::now(), span, req, 0);
        }
        let (n, ok) = self.stream(&mut client, rest, &mut hash, span, req);
        words += n;
        (Lane { id, words, hash }, ok)
    }
}

/// Replays every lane standalone — `Engine<CpuBackend>` or
/// `ExpanderWalkRng` on `lane_seed(pool_seed, id)` — and compares digests.
/// A resumed or migrated lane matches only if it continued without a gap.
fn check_lanes(kind: Kind, pool_seed: u64, lanes: &[Lane], pass: &mut Pass) {
    let threads = crate::host::nproc();
    let chunk = lanes.len().div_ceil(threads).max(1);
    let mismatched: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|lane| {
                            replay(kind, lane_seed(pool_seed, lane.id), lane.words)
                                != Some(lane.hash)
                        })
                        .map(|lane| lane.id)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a replay thread panicked"))
            .collect()
    });
    pass.attempted += lanes.len() as u64;
    pass.failed += mismatched.len() as u64;
    for id in mismatched.iter().take(8) {
        pass.failures.push(format!(
            "lane {id}: served words differ from the standalone replay"
        ));
    }
}

/// The digest of the first `words` words of a lane's standalone stream.
fn replay(kind: Kind, seed: u64, words: u64) -> Option<StreamHash> {
    let mut hash = StreamHash::default();
    match kind {
        Kind::ServeEngine => {
            // One worker and the synchronous feed: the stream does not depend
            // on either, and the check then spawns no threads per call.
            let mut engine = Engine::with_mode(
                CpuBackend::with_workers(HybridParams::default(), 1),
                Box::new(GlibcFeed::from_master_seed(seed)),
                PipelineMode::Synchronous,
            );
            let mut buf = vec![0u64; ENGINE_LANES];
            engine.initialize(ENGINE_LANES).ok()?;
            let mut left = words as usize;
            while left > 0 {
                engine.try_next_batch_into(&mut buf).ok()?;
                let take = left.min(ENGINE_LANES);
                hash.absorb(&buf[..take]);
                left -= take;
            }
        }
        Kind::Churn => {
            let mut rng = ExpanderWalkRng::from_seed_u64(seed);
            for _ in 0..words {
                hash.absorb(&[rng.get_next_rand()]);
            }
        }
    }
    Some(hash)
}
