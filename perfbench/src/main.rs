//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-engine|churn|listrank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it runs it untraced and then
//! traced, replays its inputs through each lower layer standalone, and
//! prints the per-layer ledger. The last line of standard output is the
//! JSON result. See `README.md` for the workloads and metric definitions.

mod host;
mod inputs;
mod layers;
mod listrank;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Inputs;
use stats::{median, quantile, quantile_ns, Series};
use trace::SpanLog;

const USAGE: &str =
    "usage: perfbench --workload <serve-engine|churn|listrank> --seed <n> --seconds <s> --trace <0|1>";

/// Where span logs and result records go, relative to the working
/// directory (the checkout root).
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeEngine,
    Churn,
    Listrank,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-engine" => Some(Self::ServeEngine),
            "churn" => Some(Self::Churn),
            "listrank" => Some(Self::Listrank),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeEngine => "serve-engine",
            Self::Churn => "churn",
            Self::Listrank => "listrank",
        }
    }

    fn run(self, inputs: &Inputs, seconds: f64, traced: bool) -> Result<Pass, String> {
        match self {
            Self::ServeEngine => serve::run(serve::Kind::ServeEngine, inputs, seconds, traced),
            Self::Churn => serve::run(serve::Kind::Churn, inputs, seconds, traced),
            Self::Listrank => listrank::run(inputs, seconds, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The generator a workload's sessions run, for the layer replays.
#[derive(Clone, Copy, Debug, Default)]
pub enum Session {
    /// One `ExpanderWalkRng` per lane.
    #[default]
    Walk,
    /// An `Engine<CpuBackend>` of `lanes` walks.
    Engine { lanes: usize },
}

/// The pool's counters over a serving window.
#[derive(Clone, Debug, Default)]
pub struct PoolWindow {
    pub refills: u64,
    pub produced_words: u64,
    /// Phase quantiles from the pool's tracing registry (traced run only).
    pub enqueue_wait_p99_ns: f64,
    pub service_p50_ns: f64,
    pub refill_copy_p50_ns: f64,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Client threads of the closed loop.
    pub clients: usize,
    pub session: Session,
    /// The measured window (for `listrank`, the summed solve time).
    pub wall_s: f64,
    /// Words delivered to callers in the window.
    pub words: u64,
    /// Throughput samples, words/s: each whole second of a serving
    /// window, or each ranking.
    pub rates: Series,
    pub requests_ns: Series,
    pub admits_ns: Series,
    pub resumes_ns: Series,
    /// Wall time of each unit of work: a serving job, a churn lane cycle,
    /// a ranking.
    pub units_s: Series,
    pub setups_s: Vec<f64>,
    /// Which intervals (seconds or rounds) the end-to-end figures use: the
    /// calm ones (see [`stats::calm`]).
    pub calm: Vec<bool>,
    /// Take request quantiles within each interval, then the median over
    /// calm intervals, instead of over the pooled samples. `listrank`
    /// needs it: a round's calls have fixed, geometrically shrinking
    /// sizes, so a pooled quantile jumps between sizes as the calm rounds
    /// vary.
    pub request_quantiles_per_interval: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub logs: Vec<SpanLog>,
    pub pool: Option<PoolWindow>,
    /// Lane seeds the workload served, replayed by the layer benches.
    pub lane_seeds: Vec<u64>,
    /// Batch sizes of one Algorithm 3 solve (`listrank`).
    pub call_sizes: Vec<usize>,
    pub iterations: Vec<f64>,
}

impl Pass {
    /// The median throughput over calm intervals (the window average if
    /// a window is shorter than a second).
    fn words_per_s(&self) -> f64 {
        if self.rates.len() == 0 {
            self.words as f64 / self.wall_s
        } else {
            median(&self.rates.kept(&self.calm))
        }
    }

    /// The `q` quantile of a series over the calm intervals, times `scale`.
    fn calm_quantile(&self, series: &Series, q: f64, scale: f64) -> f64 {
        quantile(&series.kept(&self.calm), q) * scale
    }

    /// [`Pass::calm_quantile`] of the request latencies, in microseconds.
    fn request_us(&self, q: f64) -> f64 {
        if self.request_quantiles_per_interval {
            self.requests_ns.interval_quantile(&self.calm, q) * 1e-3
        } else {
            self.calm_quantile(&self.requests_ns, q, 1e-3)
        }
    }

    /// Durations of every span called `name`, across threads.
    fn span_ns(&self, name: &str) -> Vec<u64> {
        self.logs.iter().flat_map(|l| l.durations(name)).collect()
    }

    fn span_total_ns(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.span_ns(n).iter().sum::<u64>() as f64)
            .sum()
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let q = |series: &Series, q: f64, scale: f64| pass.calm_quantile(series, q, scale);
    vec![
        metric("words_per_s", pass.words_per_s(), "words/s"),
        metric("request_p50_us", pass.request_us(0.5), "us"),
        metric("request_p99_us", pass.request_us(0.99), "us"),
        metric("resume_p50_ms", q(&pass.resumes_ns, 0.5, 1e-6), "ms"),
        metric("resume_p90_ms", q(&pass.resumes_ns, 0.9, 1e-6), "ms"),
        metric("admit_p50_us", q(&pass.admits_ns, 0.5, 1e-3), "us"),
        metric("solve_s", q(&pass.units_s, 0.5, 1.0), "s"),
        metric("setup_s", median(&pass.setups_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// The per-layer ledger: standalone layer costs, the traced run's spans
/// and pool instruments, and the ledger of self times against the
/// untraced end-to-end figure, in ns per delivered word.
fn per_layer(untraced: &Pass, traced: &Pass, l: &layers::Layers) -> Vec<Metric> {
    let e = |f: fn(&layers::EngineLayer) -> f64| f(&l.engine);
    let pool = traced.pool.clone().unwrap_or_default();
    let serving = traced.pool.is_some();
    let p = |name: &str, q: f64, scale: f64| quantile_ns(&traced.span_ns(name), q, scale);

    // The session's standalone cost per word, and FEED words per word.
    let (session_ns, feed_per_word) = match traced.session {
        Session::Engine { .. } => (
            e(|x| x.ns_per_word),
            hprng_core::HybridParams::default().walk.words_per_number() as f64,
        ),
        Session::Walk => (
            l.rng_ns_per_word,
            layers::WALK_LEN as f64 / hprng_expander::bits::CHUNKS_PER_WORD as f64,
        ),
    };
    const FILLS: [&str; 3] = ["pool.next_u64", "pool.fill_64w", "pool.fill_4096w"];
    let fill_words: u64 = traced
        .logs
        .iter()
        .flat_map(|log| log.spans())
        .filter(|s| FILLS.contains(&s.name))
        .map(|s| s.words)
        .sum();
    let fill_ns_per_word = traced.span_total_ns(&FILLS) / fill_words.max(1) as f64;
    let hop_us = if serving {
        (fill_ns_per_word - session_ns) * layers::BLOCK_WORDS as f64 * 1e-3
    } else {
        0.0
    };

    // Algorithm 3's time in the generator vs. in the application, per solve.
    let solves: Vec<&trace::Span> = traced
        .logs
        .iter()
        .flat_map(|log| log.spans())
        .filter(|s| s.name == "listrank.solve")
        .collect();
    let rng_s: Vec<f64> = solves
        .iter()
        .map(|solve| {
            let calls = traced.logs.iter().flat_map(|log| log.spans());
            calls
                .filter(|c| c.name == "engine.call" && c.request == solve.request)
                .map(|c| c.duration_ns() as f64 * 1e-9)
                .sum()
        })
        .collect();
    let app_s: Vec<f64> = solves
        .iter()
        .zip(&rng_s)
        .map(|(s, r)| s.duration_ns() as f64 * 1e-9 - r)
        .collect();

    // Traced vs. untraced throughput (`solve_s` for the ranking).
    let trace_overhead = if serving {
        untraced.words_per_s() / traced.words_per_s() - 1.0
    } else {
        traced.calm_quantile(&traced.units_s, 0.5, 1.0)
            / untraced.calm_quantile(&untraced.units_s, 0.5, 1.0)
            - 1.0
    };

    // Ledger, ns per delivered word.
    let e2e = untraced.clients as f64 * 1e9 / untraced.words_per_s();
    let traced_words = traced.words.max(1) as f64;
    let feed = l.feed_ns_per_word * feed_per_word;
    let bits = l.bits_ns_per_chunk * layers::WALK_LEN as f64;
    let walk = l.walk_ns_per_step * layers::WALK_LEN as f64 - bits;
    let core = session_ns - feed - bits - walk;
    let transport = if serving {
        (l.ring_ns_per_block + l.arena_ns_per_checkout) / layers::BLOCK_WORDS as f64
    } else {
        0.0
    };
    let pool_self = if serving {
        hop_us * 1e3 / layers::BLOCK_WORDS as f64 - transport
    } else {
        0.0
    };
    let control = traced.span_total_ns(&[
        "pool.admit",
        "pool.resume",
        "pool.checkpoint",
        "pool.migrate",
    ]) / traced_words;
    let listrank_self: f64 = traced
        .logs
        .iter()
        .map(|log| log.self_ns("listrank.solve") as f64)
        .sum::<f64>()
        / traced_words;
    let harness: f64 = traced
        .logs
        .iter()
        .map(|log| {
            ["serve.job", "serve.probe", "churn.cycle"]
                .iter()
                .map(|name| log.self_ns(name) as f64)
                .sum::<f64>()
        })
        .sum::<f64>()
        / traced_words;
    let layers_sum =
        feed + bits + walk + core + transport + pool_self + control + listrank_self + harness;

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    vec![
        metric("feed.ns_per_word", l.feed_ns_per_word, "ns"),
        metric("bits.ns_per_chunk", l.bits_ns_per_chunk, "ns"),
        metric("walk.ns_per_step", l.walk_ns_per_step, "ns"),
        metric("rng.ns_per_word", l.rng_ns_per_word, "ns"),
        metric("engine.call_us.p50", e(|x| x.call_us_p50), "us"),
        metric("engine.call_us.p99", e(|x| x.call_us_p99), "us"),
        metric(
            "engine.overhead_us_per_call",
            e(|x| x.overhead_us_per_call),
            "us",
        ),
        metric("engine.ns_per_word.bulk", e(|x| x.ns_per_word), "ns"),
        metric("engine.init_ms", e(|x| x.init_ms), "ms"),
        metric("engine.spans_per_call", e(|x| x.spans_per_call), "count"),
        metric("ring.ns_per_block", l.ring_ns_per_block, "ns"),
        metric("arena.ns_per_checkout", l.arena_ns_per_checkout, "ns"),
        metric("pool.fill_us.p99.1w", p("pool.next_u64", 0.99, 1e-3), "us"),
        metric("pool.fill_us.p99.64w", p("pool.fill_64w", 0.99, 1e-3), "us"),
        metric(
            "pool.fill_us.p99.4096w",
            p("pool.fill_4096w", 0.99, 1e-3),
            "us",
        ),
        metric("pool.hop_us_per_refill", hop_us, "us"),
        metric(
            "pool.enqueue_wait_us.p99",
            pool.enqueue_wait_p99_ns * 1e-3,
            "us",
        ),
        metric("pool.service_us.p50", pool.service_p50_ns * 1e-3, "us"),
        metric(
            "pool.refill_copy_us.p50",
            pool.refill_copy_p50_ns * 1e-3,
            "us",
        ),
        metric("pool.refills", pool.refills as f64, "count"),
        metric(
            "pool.useful_ratio",
            if serving {
                traced.words as f64 / pool.produced_words.max(1) as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric("pool.admit_us.p50", p("pool.admit.call", 0.5, 1e-3), "us"),
        metric(
            "pool.resume_call_us.p50",
            p("pool.resume.call", 0.5, 1e-3),
            "us",
        ),
        metric(
            "pool.checkpoint_us.p50",
            p("pool.checkpoint", 0.5, 1e-3),
            "us",
        ),
        metric("pool.migrate_ms.p50", p("pool.migrate", 0.5, 1e-6), "ms"),
        metric("listrank.iterations", median(&traced.iterations), "count"),
        metric("listrank.rng_s", median(&rng_s), "s"),
        metric("listrank.app_s", median(&app_s), "s"),
        metric("trace_overhead_frac", trace_overhead, "ratio"),
        metric(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("ledger.e2e_ns_per_word", e2e, "ns"),
        metric("ledger.self_ns_per_word.feed", feed, "ns"),
        metric("ledger.self_ns_per_word.bits", bits, "ns"),
        metric("ledger.self_ns_per_word.walk", walk, "ns"),
        metric("ledger.self_ns_per_word.core", core, "ns"),
        metric("ledger.self_ns_per_word.transport", transport, "ns"),
        metric("ledger.self_ns_per_word.pool", pool_self, "ns"),
        metric("ledger.self_ns_per_word.control", control, "ns"),
        metric("ledger.self_ns_per_word.listrank", listrank_self, "ns"),
        metric("ledger.self_ns_per_word.harness", harness, "ns"),
        metric("ledger.residual_ns_per_word", e2e - layers_sum, "ns"),
    ]
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// What one invocation reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// A JSON object of sample counts, printed before the metrics.
    samples: String,
}

/// Runs the invocation's passes and computes its metrics.
fn measure(args: &Args, host: &host::Fingerprint) -> Result<Report, String> {
    let inputs = Inputs::new(args.seed);
    let name = args.workload.name();
    // The traced run splits its window: an untraced half for the overhead
    // and ledger baseline, then the traced half.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = args.workload.run(&inputs, window, false)?;
    if !args.trace {
        let kept = |series: &Series| series.kept(&untraced.calm).len();
        let samples = format!(
            "{{\"calm_intervals\": {}, \"intervals\": {}, \"requests\": {}, \"resumes\": {}, \"admits\": {}, \"units\": {}, \"setups\": {}}}",
            untraced.calm.iter().filter(|&&c| c).count(),
            untraced.calm.len(),
            kept(&untraced.requests_ns),
            kept(&untraced.resumes_ns),
            kept(&untraced.admits_ns),
            kept(&untraced.units_s),
            untraced.setups_s.len()
        );
        return Ok(Report {
            metrics: end_to_end(&untraced),
            attempted: untraced.attempted,
            failed: untraced.failed,
            failures: untraced.failures,
            samples,
        });
    }
    let traced = args.workload.run(&inputs, window, true)?;
    let layers = layers::measure(&traced);
    let metrics = per_layer(&untraced, &traced, &layers);
    let spans = std::path::Path::new(OUT_DIR).join(format!("{name}-seed{}-spans.jsonl", args.seed));
    let header = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"spans_dropped\": {}}}",
        args.seed,
        args.seconds,
        host.to_json(),
        traced.logs.iter().map(SpanLog::dropped).sum::<u64>()
    );
    if let Err(e) = trace::write_jsonl(&spans, &header, &traced.logs) {
        eprintln!("perfbench: could not write {}: {e}", spans.display());
    }
    let spans_recorded: usize = traced.logs.iter().map(|l| l.spans().len()).sum();
    let mut failures = untraced.failures;
    failures.extend(traced.failures);
    Ok(Report {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        failures,
        samples: format!(
            "{{\"spans\": {spans_recorded}, \"spans_file\": \"{}\"}}",
            spans.display()
        ),
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Fingerprint::capture();
    let name = args.workload.name();
    let Report {
        metrics,
        attempted,
        failed,
        failures,
        samples,
    } = match measure(&args, &host) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };

    println!("host {}", host.to_json());
    println!(
        "workload {name} seed {} seconds {} trace {} samples {samples}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("  {:<36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        println!("FAILED CHECK: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse(&[
            "--workload",
            "churn",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload, Workload::Churn);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(parse(&["--workload", "nope", "--seed", "3", "--seconds", "10"]).is_err());
        assert!(parse(&["--workload", "churn", "--seconds", "10"]).is_err());
        assert!(parse(&["--workload", "churn", "--seed", "3", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "churn",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn quantile_helpers_agree() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile_ns(&[1000, 2000, 3000], 0.5, 1e-3), 2.0);
    }
}
