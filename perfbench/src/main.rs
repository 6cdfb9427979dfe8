//! Runs one benchmark workload in this process and prints one JSON line.
//!
//! ```text
//! perfbench <open-1m|hedge-p95|scatter-gather|paper-sweep> --seed N [--trace]
//! ```
//!
//! Every number here is host time unless its name says "simulated":
//! simulated latencies are correctness outputs, folded into `digest`.
//!
//! The set-up phase — everything before the first simulated submission:
//! spec construction and validation, DAG compile, `CloudSim` construction,
//! deploy, and for the sweep the grid — is repeated [`SETUP_REPS`] times
//! and each repetition is timed; only the last one's cloud runs. The first
//! repetition is timed from process start.
//!
//! With `--trace` the process additionally
//! - turns on the cloud's per-event cost profile,
//! - replays the arrival generator and the latency stream through the
//!   public `workload` and `stats` APIs to price those layers,
//! - on `paper-sweep`, replays every cell alone through `Experiment::run`
//!   to price the cells and the runner's merge,
//! - prints its spans and a `layers` map of per-layer metrics.
//!
//! Spans wrap calls into the crates' public functions only; the program
//! itself carries no instrumentation beyond what `CloudSim` and `Outcome`
//! already expose.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use faas_sim::cloud::{metric, CloudSim};
use providers::paper::ProviderKind;
use simkit::engine::QueueKind;
use simkit::metrics::Metrics;
use simkit::rng::Rng;
use stats::{LatencyAgg, QuantileSketch};
use stellar_core::client::{run_workload_spec, MeasureSpec, RunResult};
use stellar_core::config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::deployer::{deploy, Deployment, Endpoint};
use stellar_core::experiment::Experiment;
use stellar_core::protocols::{LONG_IAT_MS, SHORT_IAT_MS};
use stellar_core::runner::{Scenario, SweepGrid, SweepReport, SweepRunner};
use workload::WorkloadSpec;

/// Set-up repetitions per process; the reported set-up time is their
/// median, so one descheduled repetition does not move it.
const SETUP_REPS: usize = 9;
/// Interleaved record+quantile pairs replayed to price one quantile call.
/// One call costs ~10 µs, so the full hedged stream would double the
/// traced run; this many pairs reach the sketch's steady state.
const QUANTILE_REPLAY_CAP: usize = 20_000;
/// Quantile queried by the replay: `hedge-p95`'s threshold.
const REPLAY_Q: f64 = 0.95;
/// Points of the quantile table the latency replay draws from.
const REPLAY_TABLE: usize = 1_000;

/// Sweep cell sizes (measured samples per cell) and seeds per scenario.
/// The warm and cold cells keep the sample count of `tests/observations.rs`,
/// whose paper bands they are checked against.
const SWEEP_SEEDS: usize = 16;
const WARM_SAMPLES: u32 = 1_000;
const COLD_SAMPLES: u32 = 1_000;
const COLD_REPLICAS: u32 = 100;
const BURST_SIZE: u32 = 100;
const BURST_SAMPLES: u32 = 6_000;
const BURST_REPLICAS: u32 = 3;
const CHAIN_SAMPLES: u32 = 4_000;
const RETRY_SAMPLES: u32 = 8_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Open1m,
    HedgeP95,
    ScatterGather,
    PaperSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "open-1m" => Workload::Open1m,
            "hedge-p95" => Workload::HedgeP95,
            "scatter-gather" => Workload::ScatterGather,
            "paper-sweep" => Workload::PaperSweep,
            _ => return None,
        })
    }
}

/// One timed call: name, parent span, start and end in seconds since
/// process start.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; spans nest by call order and are printed once
/// the workload has finished.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    fn begin(&mut self, name: &'static str) {
        let start = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, parent, start, end: f64::NAN });
    }

    /// Closes the innermost open span and returns its duration, s.
    fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("end() without begin()");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Sum of the durations of top-level spans, s.
    fn top_level_s(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum()
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                    s.name, s.start, s.end
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// What every workload hands back for reporting.
struct Report {
    setup_s: Vec<f64>,
    run_s: f64,
    /// Logical requests finished, warm-up included.
    logical: u64,
    /// Measured logical requests planned, and those that produced a
    /// latency sample (the rest failed, were shed or were abandoned).
    measured: u64,
    measured_ok: u64,
    /// FNV-1a digest of the simulated outputs.
    digest: u64,
    /// Simulated outputs, for the log.
    simulated: Vec<(&'static str, f64)>,
    /// Failed correctness checks.
    failures: Vec<String>,
    layers: BTreeMap<String, f64>,
}

fn main() {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: perfbench <open-1m|hedge-p95|scatter-gather|paper-sweep> --seed N [--trace]";
    let Some(workload) = args.first().and_then(|w| Workload::parse(w)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let trace = args.iter().any(|a| a == "--trace");
    let seed = args.windows(2).find(|w| w[0] == "--seed").and_then(|w| w[1].parse::<u64>().ok());
    let known = args.len() == if trace { 4 } else { 3 };
    let Some(seed) = seed.filter(|_| known) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };

    let mut tracer = Tracer::new(origin);
    let report = match workload {
        Workload::PaperSweep => paper_sweep(seed, trace, &mut tracer),
        direct => run_direct(direct, seed, trace, &mut tracer),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let peak_rss_mb = vm_hwm_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    print_report(&report, &tracer, trace, peak_rss_mb);
}

fn print_report(r: &Report, tracer: &Tracer, trace: bool, peak_rss_mb: f64) {
    let nums = |v: &[f64]| v.iter().map(|x| format!("{x}")).collect::<Vec<_>>().join(",");
    let simulated: Vec<String> =
        r.simulated.iter().map(|(k, v)| format!("\"{k}\":{}", json_num(*v))).collect();
    let failures: Vec<String> = r.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect();
    let mut out = format!(
        "{{\"setup_s\":[{}],\"run_s\":{},\"logical\":{},\"measured\":{},\"measured_ok\":{},\
         \"peak_rss_mb\":{},\"digest\":\"{:016x}\",\"simulated\":{{{}}},\"failures\":[{}],\
         \"top_level_s\":{}",
        nums(&r.setup_s),
        r.run_s,
        r.logical,
        r.measured,
        r.measured_ok,
        json_num(peak_rss_mb),
        r.digest,
        simulated.join(","),
        failures.join(","),
        tracer.top_level_s(),
    );
    if trace {
        let layers: Vec<String> =
            r.layers.iter().map(|(k, v)| format!("\"{k}\":{}", json_num(*v))).collect();
        out.push_str(&format!(",\"layers\":{{{}}},\"spans\":{}", layers.join(","), tracer.json()));
    }
    out.push('}');
    println!("{out}");
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', " ")
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// open-1m, hedge-p95, scatter-gather: one function or workflow driven
// through the spec driver, set up call by call.
// ---------------------------------------------------------------------

/// A deployed cloud, ready for its first submission.
struct DirectSetup {
    cloud: CloudSim,
    deployment: Deployment,
    runtime: RuntimeConfig,
    spec: WorkloadSpec,
}

fn direct_setup(w: Workload, seed: u64, t: &mut Tracer) -> Result<DirectSetup, String> {
    t.begin("setup.spec");
    let provider = providers::profiles::aws_like();
    let spec = WorkloadSpec::preset("poisson").expect("built-in workload preset");
    let samples = match w {
        Workload::Open1m => 1_000_000,
        Workload::HedgeP95 => 200_000,
        _ => 50_000,
    };
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples).with_workload(spec.clone());
    if w == Workload::HedgeP95 {
        runtime =
            runtime.with_policy(policy::PolicySpec::preset("hedge-p95").expect("built-in policy"));
    }
    runtime.validate()?;
    let app = (w == Workload::ScatterGather).then(appsuite::scatter_gather);
    t.end();
    let plan = match app {
        Some(app) => {
            t.begin("setup.dag_compile");
            let plan = app.compile()?;
            t.end();
            Some(plan)
        }
        None => None,
    };
    t.begin("setup.cloud_new");
    let mut cloud = CloudSim::with_queue(provider, seed, QueueKind::default());
    t.end();
    t.begin("setup.deploy");
    let deployment = match &plan {
        Some(plan) => {
            let dep = cloud.deploy_dag(plan).map_err(|e| e.to_string())?;
            // As `Experiment::run` does for workflows: per-stage reporting
            // keeps every internal hop.
            cloud.record_internal_completions(true);
            let endpoint = Endpoint {
                url: format!("https://{}.sim/{}", cloud.config().name, plan.name),
                function: dep.root,
                name: plan.name.clone(),
            };
            Deployment { endpoints: vec![endpoint] }
        }
        None => {
            let functions = StaticConfig { functions: vec![StaticFunction::python_zip("fn")] };
            deploy(&mut cloud, &functions, &runtime).map_err(|e| e.to_string())?
        }
    };
    t.end();
    Ok(DirectSetup { cloud, deployment, runtime, spec })
}

/// Runs `f` [`SETUP_REPS`] times inside a `setup` span each, returning
/// the last result and every repetition's duration (the first timed from
/// process start).
fn repeat_setup<T>(
    t: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let id = t.spans.len();
        t.begin("setup");
        let value = f(t)?;
        let took = t.end();
        // Span times count from process start.
        times.push(if rep == 0 { t.spans[id].end } else { took });
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

fn run_direct(w: Workload, seed: u64, trace: bool, t: &mut Tracer) -> Result<Report, String> {
    let (setup, setup_s) = repeat_setup(t, |t| direct_setup(w, seed, t))?;
    let DirectSetup { mut cloud, deployment, runtime, spec } = setup;
    if trace {
        cloud.enable_event_profiling();
    }
    let measure = MeasureSpec::sketch();

    t.begin("core.drive");
    let result = run_workload_spec(&mut cloud, &deployment, &runtime, &spec, seed, &measure);
    let run_s = t.end();
    let mut result = result.map_err(|e| e.to_string())?;

    t.begin("stats.summary");
    let summary = result.latency_agg.summary();
    let summary_s = t.end();

    t.begin("outputs");
    let join_amp = cloud.dag_join_stats().iter().map(|j| j.amplification).fold(0.0, f64::max);
    let logical = match &result.policy {
        Some(p) => p.logical,
        None => result.offered.as_ref().map_or(0, |o| o.arrivals),
    };
    let measured = u64::from(runtime.samples);
    let measured_ok = result.latency_agg.count();
    let simulated = vec![
        ("p50_ms", summary.median),
        ("p99_ms", summary.tail),
        ("p999_ms", summary.p999),
        ("cold_fraction", result.cold_fraction()),
        ("goodput", result.goodput()),
        ("join_amp", join_amp),
    ];
    let digest = digest_of(&simulated, &[logical, measured_ok]);
    t.end();

    // Counters are read before the drain below adds its events.
    let mut layers = BTreeMap::new();
    if trace {
        t.begin("trace.read_counters");
        cloud.record_queue_metrics();
        cloud.record_profile_metrics();
        let internal = cloud.drain_internal_completions().len() as u64;
        faas_sim_layers(&mut layers, cloud.metrics(), logical);
        layers.insert("faas_sim.internal_completions".into(), internal as f64);
        layers.insert("simkit.promotions".into(), cloud.promotions() as f64);
        core_layers(&mut layers, run_s, cloud.metrics(), logical);
        policy_layers(&mut layers, result.policy.into_iter());
        fault_layers(&mut layers, result.faults.into_iter());
        runner_layers(&mut layers, None);
        t.end();
    }

    t.begin("checks");
    // The driver returns once every logical request has resolved. A hedge
    // attempt cancelled while executing or queued keeps its slot until its
    // pending event retires it, so the events still scheduled are run out
    // before the slab and DAG tables must be empty.
    cloud.run_to_idle();
    let mut failures = direct_checks(&cloud, &result, logical, measured, measured_ok);
    check_quantiles(&simulated, &mut failures);
    t.end();

    if trace {
        let arrivals = result.offered.as_ref().map_or(0, |o| o.arrivals);
        replay_workload(&mut layers, t, &[(spec, seed, arrivals)]);
        let quantile_calls = if quantile_hedged(&runtime) { logical } else { 0 };
        replay_stats(&mut layers, t, &mut result.latency_agg, logical, seed, quantile_calls);
        layers.insert("stats.summary_s".into(), summary_s);
    }

    t.begin("teardown");
    drop(cloud);
    drop(result);
    t.end();
    Ok(Report {
        setup_s,
        run_s,
        logical,
        measured,
        measured_ok,
        digest,
        simulated,
        failures,
        layers,
    })
}

/// Conservation and drain checks on a finished direct run.
fn direct_checks(
    cloud: &CloudSim,
    result: &RunResult,
    logical: u64,
    measured: u64,
    measured_ok: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    failures.extend(conservation(cloud.metrics()));
    let live = cloud.request_slab_stats().live;
    if live != 0 {
        failures.push(format!("request slab not drained: {live} live slots"));
    }
    if !cloud.dag_tables_empty() {
        failures.push("DAG side tables not drained".to_string());
    }
    if let Some(p) = &result.policy {
        let resolved = measured_ok + p.failed_logical + p.abandoned;
        if p.logical != resolved {
            failures.push(format!(
                "policy conservation: logical {} != won {measured_ok} + failed {} + abandoned {}",
                p.logical, p.failed_logical, p.abandoned
            ));
        }
    }
    // The direct workloads inject no faults: every request must succeed.
    if measured_ok != measured || logical != measured {
        failures.push(format!(
            "fault-free run lost requests: {measured_ok} of {measured} measured, {logical} logical"
        ));
    }
    failures
}

fn check_quantiles(simulated: &[(&'static str, f64)], failures: &mut Vec<String>) {
    let get = |k| simulated.iter().find(|(n, _)| *n == k).map_or(f64::NAN, |(_, v)| *v);
    let (p50, p99, p999) = (get("p50_ms"), get("p99_ms"), get("p999_ms"));
    if !(p50 > 0.0 && p50 <= p99 && p99 <= p999 && p999.is_finite()) {
        failures.push(format!("quantiles out of order: p50 {p50} p99 {p99} p999 {p999}"));
    }
}

fn digest_of(simulated: &[(&'static str, f64)], counts: &[u64]) -> u64 {
    let mut text = String::new();
    for (k, v) in simulated {
        text.push_str(&format!("{k}={v:?};"));
    }
    for c in counts {
        text.push_str(&format!("{c};"));
    }
    fnv1a(text.as_bytes())
}

fn quantile_hedged(runtime: &RuntimeConfig) -> bool {
    matches!(
        runtime.policy,
        Some(policy::PolicySpec::Hedge { threshold: policy::ThresholdSpec::Quantile { .. }, .. })
    )
}

// ---------------------------------------------------------------------
// paper-sweep: the paper's scenarios on all three providers, one
// `SweepRunner::run` on at most `nproc` threads, exact quantiles.
// ---------------------------------------------------------------------

/// The paper band a sweep scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    Warm,
    Cold,
}

fn fixed(ms: f64, samples: u32) -> RuntimeConfig {
    RuntimeConfig::single(IatSpec::Fixed { ms }, samples)
}

/// The paper-sweep grid and, per scenario, its provider and paper band.
fn sweep_grid(seed: u64) -> (SweepGrid, Vec<(ProviderKind, Option<Band>)>) {
    let mut scenarios = Vec::new();
    let mut cells = Vec::new();
    for kind in ProviderKind::ALL {
        let provider = providers::profiles::config_for(kind);
        let label = kind.label();
        let one = |f: StaticFunction| StaticConfig { functions: vec![f] };

        let mut warm = fixed(SHORT_IAT_MS, WARM_SAMPLES);
        warm.warmup_rounds = 1;
        scenarios.push(
            Scenario::new(format!("{label}/warm"), provider.clone())
                .functions(one(StaticFunction::python_zip("warm")))
                .workload(warm),
        );
        cells.push((kind, Some(Band::Warm)));

        let cold_fn = StaticFunction::python_zip("cold").with_replicas(COLD_REPLICAS);
        scenarios.push(
            Scenario::new(format!("{label}/cold"), provider.clone())
                .functions(one(StaticFunction { memory_mb: 2048, ..cold_fn }))
                .workload(fixed(LONG_IAT_MS / f64::from(COLD_REPLICAS), COLD_SAMPLES)),
        );
        cells.push((kind, Some(Band::Cold)));

        let mut burst = fixed(LONG_IAT_MS / f64::from(BURST_REPLICAS), BURST_SAMPLES);
        burst.burst_size = BURST_SIZE;
        scenarios.push(
            Scenario::new(format!("{label}/burst-100"), provider.clone())
                .functions(one(StaticFunction::python_zip("burst").with_replicas(BURST_REPLICAS)))
                .workload(burst),
        );
        cells.push((kind, None));

        let mut chain = fixed(SHORT_IAT_MS, CHAIN_SAMPLES);
        chain.warmup_rounds = 2;
        chain.chain = Some(ChainConfig {
            length: 2,
            mode: faas_sim::types::TransferMode::Storage,
            payload_bytes: 1_000_000,
        });
        scenarios.push(
            Scenario::new(format!("{label}/storage-1mb"), provider.clone())
                .functions(one(StaticFunction::go_zip("xfer")))
                .workload(chain),
        );
        cells.push((kind, None));

        let retry = RuntimeConfig::single(IatSpec::short(), RETRY_SAMPLES)
            .with_workload(WorkloadSpec::preset("closed-loop").expect("built-in workload preset"))
            .with_policy(policy::PolicySpec::preset("retry-backoff").expect("built-in policy"))
            .with_faults(faults::FaultSpec::preset("outage-throttle").expect("built-in faults"));
        scenarios.push(
            Scenario::new(format!("{label}/closed-retry~outage-throttle"), provider)
                .workload(retry),
        );
        cells.push((kind, None));
    }
    let mut rng = Rng::seed_from(seed);
    let seeds = (0..SWEEP_SEEDS).map(|_| rng.next_u64()).collect();
    (SweepGrid::new(scenarios, seeds), cells)
}

fn paper_sweep(seed: u64, trace: bool, t: &mut Tracer) -> Result<Report, String> {
    let ((grid, cells, runner), setup_s) = repeat_setup(t, |t| {
        t.begin("setup.grid");
        let (grid, cells) = sweep_grid(seed);
        for scenario in &grid.scenarios {
            scenario.runtime_cfg.validate()?;
        }
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let runner = SweepRunner::new(threads).measure(MeasureSpec::exact()).profile_events(trace);
        t.end();
        Ok((grid, cells, runner))
    })?;

    t.begin("runner.run");
    let mut report = runner.run(&grid);
    let run_s = t.end();
    t.begin("runner.csv");
    let csv = report.to_csv_app();
    let csv_s = t.end();

    t.begin("stats.summary");
    let summary = report.latency_agg.summary();
    let summary_s = t.end();

    t.begin("checks");
    let mut logical = 0;
    let mut measured = 0;
    let mut measured_ok = 0;
    let mut quantile_calls = 0;
    let (mut failures, cell_ok) = sweep_checks(&report, &cells, grid.seeds.len());
    for (row, ok) in report.rows.iter().zip(cell_ok) {
        let cfg = &grid.scenarios[row.index / grid.seeds.len()].runtime_cfg;
        let cell_logical =
            u64::from(cfg.warmup_rounds + cfg.measured_rounds()) * u64::from(cfg.burst_size);
        logical += cell_logical;
        if quantile_hedged(cfg) {
            quantile_calls += cell_logical;
        }
        measured += u64::from(cfg.samples);
        // A cell that errors or fails its check counts wholly as failed.
        if let (true, Ok(s)) = (ok, &row.result) {
            measured_ok += s.count as u64;
        }
    }
    let simulated =
        vec![("p50_ms", summary.median), ("p99_ms", summary.tail), ("p999_ms", summary.p999)];
    check_quantiles(&simulated, &mut failures);
    let digest = digest_of(&simulated, &[fnv1a(csv.as_bytes()), logical, measured_ok]);
    t.end();

    let mut layers = BTreeMap::new();
    if trace {
        faas_sim_layers(&mut layers, &report.metrics, logical);
        replay_cells(&mut layers, t, &grid, &runner, run_s, logical)?;
        layers.insert("runner.csv_s".into(), csv_s);
        replay_stats(&mut layers, t, &mut report.latency_agg, logical, seed, quantile_calls);
        layers.insert("stats.summary_s".into(), summary_s);
    }

    t.begin("teardown");
    drop(report);
    t.end();
    Ok(Report {
        setup_s,
        run_s,
        logical,
        measured,
        measured_ok,
        digest,
        simulated,
        failures,
        layers,
    })
}

/// Every cell succeeded, the merged counters conserve requests, and each
/// warm and cold scenario falls inside the paper bands of
/// `tests/observations.rs`. A band is a claim about the model, so it is
/// checked on the median over the scenario's seeds: at 1000 samples a
/// cell's p99 rests on its ten slowest samples, and about one aws warm cell
/// in a hundred reads a TMR above 2.5 on its own. Returns the failures and,
/// per cell, whether it passed.
fn sweep_checks(
    report: &SweepReport,
    cells: &[(ProviderKind, Option<Band>)],
    seeds: usize,
) -> (Vec<String>, Vec<bool>) {
    let mut failures = Vec::new();
    let mut cell_ok: Vec<bool> = report.rows.iter().map(|r| r.result.is_ok()).collect();
    for row in &report.rows {
        if let Err(e) = &row.result {
            failures.push(format!("cell {} ({}) failed: {e}", row.index, row.scenario));
        }
    }
    // Rows run scenario-major: every seed of a scenario in turn.
    for (i, (rows, &(kind, band))) in report.rows.chunks(seeds).zip(cells).enumerate() {
        let stats: Vec<_> = rows.iter().filter_map(|r| r.result.as_ref().ok()).collect();
        if stats.is_empty() {
            continue;
        }
        let median_ms = median(stats.iter().map(|s| s.median_ms).collect());
        let tmr = median(stats.iter().map(|s| s.tmr).collect());
        let inside = match band {
            // Observation 1: internal median <= 30 ms, TMR < 2.5.
            Some(Band::Warm) => median_ms - 2.0 * kind.prop_one_way_ms() <= 30.0 && tmr < 2.5,
            // Observation 2: cold median > 400 ms, TMR < 3.6.
            Some(Band::Cold) => median_ms > 400.0 && tmr < 3.6,
            None => true,
        };
        if !inside {
            failures.push(format!(
                "{} outside the paper band: median over seeds {median_ms:.1} ms, TMR {tmr:.2}",
                rows[0].scenario
            ));
            cell_ok[i * seeds..(i + 1) * seeds].fill(false);
        }
    }
    failures.extend(conservation(&report.metrics));
    (failures, cell_ok)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every submitted request ended exactly once: it completed (with a
/// result or an injected error), was cancelled, or was shed.
fn conservation(m: &Metrics) -> Option<String> {
    let submitted = m.counter(metric::REQUESTS_SUBMITTED);
    let completed = m.counter(metric::REQUESTS_COMPLETED);
    let cancelled = m.counter(metric::REQUESTS_CANCELLED);
    let shed = m.counter(metric::FAULTS_SHED);
    (submitted != completed + cancelled + shed).then(|| {
        format!(
            "conservation: submitted {submitted} != completed {completed} + cancelled \
             {cancelled} + shed {shed}"
        )
    })
}

/// Replays every cell alone, profiled like the traced runner, through
/// `Experiment::run` — the call `SweepRunner` makes per cell — to price
/// the cells, then replays the runner's cell-order merge of their
/// counters and aggregates.
fn replay_cells(
    layers: &mut BTreeMap<String, f64>,
    t: &mut Tracer,
    grid: &SweepGrid,
    runner: &SweepRunner,
    run_s: f64,
    logical: u64,
) -> Result<(), String> {
    let mut outcomes = Vec::new();
    let mut cell_s = Vec::new();
    t.begin("replay.cells");
    for scenario in &grid.scenarios {
        for &seed in &grid.seeds {
            let mut experiment = Experiment::new(scenario.provider.clone())
                .functions(scenario.static_cfg.clone())
                .workload(scenario.runtime_cfg.clone())
                .seed(seed)
                .measure(MeasureSpec::exact())
                .profile_events(true);
            if let Some(dag) = &scenario.dag {
                experiment = experiment.app(dag.clone());
            }
            t.begin("replay.cell");
            let outcome = experiment.run();
            cell_s.push(t.end());
            outcomes.push((outcome.map_err(|e| e.to_string())?, scenario, seed));
        }
    }
    t.end();

    t.begin("replay.merge");
    let started = Instant::now();
    let mut metrics = Metrics::new();
    let mut agg = LatencyAgg::with_mode(stats::QuantileMode::Exact);
    for (outcome, _, _) in &outcomes {
        metrics.merge(&outcome.metrics);
        agg.merge(&outcome.result.latency_agg);
    }
    black_box(&agg);
    let merge_s = started.elapsed().as_secs_f64();
    t.end();

    let drive_s: f64 = cell_s.iter().sum();
    layers.insert("faas_sim.internal_completions".into(), 0.0);
    // Cells run inside the runner; their queue promotions are not exposed.
    layers.insert("simkit.promotions".into(), 0.0);
    core_layers(layers, drive_s, &metrics, logical);
    policy_layers(layers, outcomes.iter().filter_map(|(o, _, _)| o.result.policy));
    fault_layers(layers, outcomes.iter().filter_map(|(o, _, _)| o.result.faults));
    let cell_s_max = cell_s.iter().copied().fold(0.0, f64::max);
    let threads = runner.threads().min(grid.len()) as f64;
    runner_layers(
        layers,
        Some((grid.len() as f64, cell_s_max, drive_s / (threads * run_s), merge_s)),
    );
    let specs: Vec<(WorkloadSpec, u64, u64)> = outcomes
        .iter()
        .filter_map(|(o, scenario, seed)| {
            let spec = scenario.runtime_cfg.workload.clone()?;
            Some((spec, *seed, o.result.offered.as_ref()?.arrivals))
        })
        .collect();
    replay_workload(layers, t, &specs);
    Ok(())
}

// ---------------------------------------------------------------------
// Per-layer metrics.
// ---------------------------------------------------------------------

/// `faas_sim.*` and the calendar-queue `simkit.*` counters from a metrics
/// registry holding the event profile.
fn faas_sim_layers(layers: &mut BTreeMap<String, f64>, m: &Metrics, logical: u64) {
    let loop_ns = m.counter(metric::PROFILE_LOOP_NS);
    let events: u64 = metric::PROFILE_COUNT.iter().map(|n| m.counter(n)).sum();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    layers.insert("faas_sim.loop_s".into(), loop_ns as f64 / 1e9);
    layers.insert("faas_sim.events".into(), events as f64);
    layers.insert("faas_sim.events_per_req".into(), per(events as f64, logical));
    layers.insert("faas_sim.ns_per_event".into(), per(loop_ns as f64, events));
    for (count_name, ns_name) in metric::PROFILE_COUNT.iter().zip(metric::PROFILE_NS) {
        let class = count_name.trim_start_matches("profile_count_");
        let count = m.counter(count_name);
        layers.insert(format!("faas_sim.count.{class}"), count as f64);
        layers.insert(format!("faas_sim.ns.{class}"), per(m.counter(ns_name) as f64, count));
    }
    for (name, counter) in [
        ("faas_sim.cold_starts", metric::COLD_STARTS),
        ("faas_sim.instances_spawned", metric::INSTANCES_SPAWNED),
        ("faas_sim.joins_fired", metric::JOINS_FIRED),
        ("faas_sim.join_stragglers", metric::JOIN_STRAGGLERS),
        ("faas_sim.slab_high_water", metric::REQUEST_SLOTS_HIGH_WATER),
        ("simkit.calqueue_rebuilds", metric::CALQUEUE_REBUILDS),
        ("simkit.hunt_fallbacks", metric::CALQUEUE_HUNT_FALLBACKS),
        ("simkit.overcrowd_rebuilds", metric::CALQUEUE_OVERCROWD_REBUILDS),
    ] {
        layers.insert(name.into(), m.counter(counter) as f64);
    }
}

/// `core.*`: the client and policy driver's time is the drive span minus
/// the event loop inside it.
fn core_layers(layers: &mut BTreeMap<String, f64>, drive_s: f64, m: &Metrics, logical: u64) {
    let self_s = drive_s - m.counter(metric::PROFILE_LOOP_NS) as f64 / 1e9;
    layers.insert("core.drive_s".into(), drive_s);
    layers.insert("core.self_s".into(), self_s);
    let per_req = if logical == 0 { 0.0 } else { self_s * 1e9 / logical as f64 };
    layers.insert("core.self_ns_per_req".into(), per_req);
}

fn policy_layers(
    layers: &mut BTreeMap<String, f64>,
    stats: impl Iterator<Item = policy::PolicyStats>,
) {
    let mut sum = policy::PolicyStats::default();
    for p in stats {
        sum.logical += p.logical;
        sum.extra_launches += p.extra_launches;
        sum.cancels += p.cancels;
        sum.duplicate_successes += p.duplicate_successes;
        sum.abandoned += p.abandoned;
        sum.failed_logical += p.failed_logical;
    }
    let attempts = sum.logical + sum.extra_launches;
    let useful = sum.logical.saturating_sub(sum.failed_logical + sum.abandoned);
    layers.insert("policy.logical".into(), sum.logical as f64);
    layers.insert("policy.extra_launches".into(), sum.extra_launches as f64);
    layers.insert("policy.cancels".into(), sum.cancels as f64);
    layers.insert("policy.duplicate_successes".into(), sum.duplicate_successes as f64);
    layers.insert("policy.retry_amp".into(), sum.retry_amplification());
    let useful_per_attempt = if attempts == 0 { 0.0 } else { useful as f64 / attempts as f64 };
    layers.insert("policy.useful_per_attempt".into(), useful_per_attempt);
}

fn fault_layers(
    layers: &mut BTreeMap<String, f64>,
    stats: impl Iterator<Item = faults::FaultStats>,
) {
    let mut sum = faults::FaultStats::default();
    let mut any = false;
    for f in stats {
        any = true;
        sum.injected += f.injected;
        sum.shed += f.shed;
        sum.crashes += f.crashes;
        sum.completed += f.completed;
        sum.failed += f.failed;
    }
    layers.insert("faults.injected".into(), sum.injected as f64);
    layers.insert("faults.shed".into(), sum.shed as f64);
    layers.insert("faults.crashes".into(), sum.crashes as f64);
    layers.insert("faults.goodput".into(), if any { sum.availability() } else { 0.0 });
}

/// `runner.*` as (cells, slowest cell s, parallel efficiency, merge s);
/// zeros for workloads that bypass the runner.
fn runner_layers(layers: &mut BTreeMap<String, f64>, runner: Option<(f64, f64, f64, f64)>) {
    let (cells, cell_s_max, parallel_eff, merge_s) = runner.unwrap_or_default();
    layers.insert("runner.cells".into(), cells);
    layers.insert("runner.cell_s_max".into(), cell_s_max);
    layers.insert("runner.parallel_eff".into(), parallel_eff);
    layers.insert("runner.merge_s".into(), merge_s);
    layers.entry("runner.csv_s".into()).or_insert(0.0);
}

/// Prices arrival generation by drawing each spec's arrivals again from
/// the stream the spec driver uses.
fn replay_workload(
    layers: &mut BTreeMap<String, f64>,
    t: &mut Tracer,
    specs: &[(WorkloadSpec, u64, u64)],
) {
    t.begin("replay.workload");
    let started = Instant::now();
    let mut arrivals = 0;
    for (spec, seed, n) in specs {
        let mut process = spec.build(*seed);
        let mut rng = Rng::seed_from(*seed).fork("workload-gaps");
        let mut sum = 0.0;
        for _ in 0..*n {
            sum += process.next_gap_ms(&mut rng);
        }
        black_box(sum);
        arrivals += n;
    }
    let took = started.elapsed().as_secs_f64();
    t.end();
    layers.insert("workload.arrivals".into(), arrivals as f64);
    let per = if arrivals == 0 { 0.0 } else { took * 1e9 / arrivals as f64 };
    layers.insert("workload.gen_ns_per_arrival".into(), per);
}

/// Prices the sketch: `record` over a stream of `n` latencies drawn from
/// the run's own latency distribution, and `quantile` as the hedge driver
/// calls it (one per recorded request) over a capped prefix.
fn replay_stats(
    layers: &mut BTreeMap<String, f64>,
    t: &mut Tracer,
    agg: &mut LatencyAgg,
    n: u64,
    seed: u64,
    quantile_calls: u64,
) {
    t.begin("replay.stats");
    let table: Vec<f64> =
        agg.quantile_points(REPLAY_TABLE + 1).into_iter().map(|(v, _)| v).collect();
    let mut rng = Rng::seed_from(seed).fork("perfbench-latency-replay");
    let stream: Vec<f64> = (0..n)
        .map(|_| {
            let x = rng.next_f64() * REPLAY_TABLE as f64;
            let i = (x as usize).min(REPLAY_TABLE - 1);
            table[i] + (x - i as f64) * (table[i + 1] - table[i])
        })
        .collect();

    let started = Instant::now();
    let mut sketch = QuantileSketch::new();
    for &v in &stream {
        sketch.record(black_box(v));
    }
    black_box(&sketch);
    let record_ns = started.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64;

    let prefix = &stream[..stream.len().min(QUANTILE_REPLAY_CAP)];
    let started = Instant::now();
    let mut sketch = QuantileSketch::new();
    for &v in prefix {
        sketch.record(black_box(v));
    }
    black_box(&sketch);
    let record_only = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut sketch = QuantileSketch::new();
    let mut sum = 0.0;
    for &v in prefix {
        sketch.record(black_box(v));
        sum += sketch.quantile(REPLAY_Q);
    }
    black_box(sum);
    let with_quantile = started.elapsed().as_secs_f64();
    let quantile_ns = (with_quantile - record_only).max(0.0) * 1e9 / prefix.len().max(1) as f64;
    t.end();

    layers.insert("stats.record_ns".into(), record_ns);
    layers.insert("stats.quantile_ns".into(), quantile_ns);
    layers.insert("stats.quantile_calls".into(), quantile_calls as f64);
}
