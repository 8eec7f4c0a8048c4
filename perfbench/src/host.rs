//! The host fingerprint every result carries, and the process's peak
//! resident memory.

use hprng_core::PipelineMode;

/// What the figures of one run depend on besides the code: core count,
/// CPU model, and the threading the defaults resolve to on this host.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// What [`PipelineMode::Auto`] resolves to here (`Concurrent` when
    /// more than one CPU is available).
    pub pipeline_mode: PipelineMode,
    /// Workers the CPU backend splits each parallel call across.
    pub rayon_workers: usize,
}

impl Fingerprint {
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            pipeline_mode: PipelineMode::Auto.resolve(),
            rayon_workers: rayon::current_num_threads(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"pipeline_mode_auto\": \"{:?}\", \"rayon_workers\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.pipeline_mode,
            self.rayon_workers
        )
    }
}

/// CPUs available to this process; the client-thread and shard count of
/// the serving workloads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`). Each
/// invocation runs one workload, so the figure belongs to that workload.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Ticks (1/100 s per CPU) the hypervisor has run other guests while this
/// machine's CPUs were runnable, since boot: the `steal` column of
/// `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}
