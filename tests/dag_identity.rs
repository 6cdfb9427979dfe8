//! Golden byte-identity gate for chains on the DAG workflow engine.
//!
//! The contract: a `ChainConfig` run and the same chain written as a
//! single-path DAG app are the *same run*, bit for bit — same latencies,
//! same trace digest, same sweep CSV — across every event-queue backend
//! and however many sweep workers execute the grid. Both run on the one
//! hop engine, so the pinned digests at the bottom tie them to the
//! outputs of the dedicated chain path the engine replaced: a constant
//! payload draws no randomness, and the producer's chain span precedes
//! its child's root span.

use faas_sim::dag::{DagNodeSpec, DagSpec};
use faas_sim::types::TransferMode;
use simkit::dist::Dist;
use simkit::engine::QueueKind;
use stellar_core::config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::Experiment;
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};
use stellar_core::traceio;

const QUEUES: [QueueKind; 3] = [QueueKind::BinaryHeap, QueueKind::Calendar, QueueKind::Adaptive];
const LENGTH: u32 = 4;
const PAYLOAD: u64 = 8_192;
const EXEC_MS: f64 = 5.0;

fn runtime(samples: u32, legacy_chain: bool) -> RuntimeConfig {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 2;
    runtime.exec_ms = EXEC_MS;
    if legacy_chain {
        runtime.chain = Some(ChainConfig {
            length: LENGTH,
            mode: TransferMode::Inline,
            payload_bytes: PAYLOAD,
        });
    }
    runtime
}

/// The same chain as the `ChainConfig` above, written as a single-path
/// DAG with constant payloads.
fn linear_spec() -> DagSpec {
    let mut spec = DagSpec::new("line");
    for i in 0..LENGTH {
        spec = spec.node(DagNodeSpec::new(format!("hop{i}")).exec_ms(Dist::constant(EXEC_MS)));
    }
    for i in 0..LENGTH - 1 {
        spec = spec.edge(
            format!("hop{i}"),
            format!("hop{}", i + 1),
            TransferMode::Inline,
            Dist::constant(PAYLOAD as f64),
        );
    }
    spec
}

/// Order-sensitive digest of a latency vector: the exact bits of every
/// sample, in completion order.
fn latency_digest(latencies: &[f64]) -> u64 {
    let text: String = latencies.iter().map(|v| format!("{:016x}\n", v.to_bits())).collect();
    traceio::digest64(&text)
}

fn experiment(as_dag: bool, queue: QueueKind) -> Experiment {
    let mut experiment = Experiment::new(providers::profiles::aws_like())
        .workload(runtime(150, !as_dag))
        .seed(42)
        .queue(queue);
    if as_dag {
        experiment = experiment.app(linear_spec());
    }
    experiment
}

#[test]
fn linear_dag_latencies_match_legacy_chain_on_every_backend() {
    for queue in QUEUES {
        let legacy = experiment(false, queue).run().expect("chain config run");
        let dag = experiment(true, queue).run().expect("dag run");
        assert_eq!(
            legacy.latencies_ms(),
            dag.latencies_ms(),
            "{queue:?}: a single-path DAG must be the chain config run, sample for sample"
        );
        // The DAG run still reports per-stage stats — as a pure chain,
        // with no joins and no amplification.
        let stats = dag.dag.expect("dag runs report stage stats");
        assert_eq!(stats.stages.len(), LENGTH as usize);
        assert!(stats.joins.is_empty(), "a linear chain has no join stages");
        assert_eq!(stats.straggler_amplification, 0.0);
        assert!(legacy.dag.is_none(), "legacy runs must not grow a dag report");
    }
}

#[test]
fn linear_dag_trace_digest_matches_legacy_chain() {
    for queue in QUEUES {
        let legacy = experiment(false, queue).trace(1 << 16).run().expect("legacy trace");
        let dag = experiment(true, queue).trace(1 << 16).run().expect("dag trace");
        let legacy_jsonl = traceio::to_jsonl(&legacy.spans);
        let dag_jsonl = traceio::to_jsonl(&dag.spans);
        assert_eq!(
            traceio::digest64(&legacy_jsonl),
            traceio::digest64(&dag_jsonl),
            "{queue:?}: span-for-span trace identity"
        );
        assert_eq!(
            traceio::digest64(&traceio::to_csv(&legacy.spans)),
            traceio::digest64(&traceio::to_csv(&dag.spans)),
            "{queue:?}: CSV trace identity"
        );
    }
}

fn sweep_grid(as_dag: bool) -> SweepGrid {
    let scenarios = ["aws-like", "google-like"]
        .into_iter()
        .map(|name| {
            let cfg = match name {
                "aws-like" => providers::profiles::aws_like(),
                _ => providers::profiles::google_like(),
            };
            let mut scenario = Scenario::new(name, cfg).workload(runtime(40, !as_dag));
            if as_dag {
                scenario = scenario.app(linear_spec());
            }
            scenario
        })
        .collect();
    SweepGrid::new(scenarios, vec![0, 1, 2])
}

#[test]
fn linear_dag_sweep_csv_matches_legacy_chain_across_threads_and_backends() {
    let baseline = SweepRunner::new(1).run(&sweep_grid(false)).to_csv();
    for threads in [1, 2, 8] {
        for queue in QUEUES {
            for as_dag in [false, true] {
                let report = SweepRunner::new(threads).queue(queue).run(&sweep_grid(as_dag));
                assert_eq!(
                    report.to_csv(),
                    baseline,
                    "threads {threads}, {queue:?}, dag {as_dag}: sweep CSV must not move"
                );
            }
        }
    }
}

// ---- pinned digests ---------------------------------------------------------
//
// Captured from the two-engine implementation, in which a `ChainConfig`
// ran on a dedicated chain hop path. Chains now run on the DAG engine, so
// comparing the chain run with the equivalent DAG app above compares a
// code path with itself; these constants keep the chain runs tied to the
// outputs of the former engine.

/// `latency_digest` of the `ChainConfig` run (the same on every queue).
const CHAIN_LATENCY_DIGEST: u64 = 13302658880392484799;
/// `digest64` of the traced `ChainConfig` run's JSONL export.
const CHAIN_TRACE_JSONL_DIGEST: u64 = 12283317577573263455;
/// `digest64` of the traced `ChainConfig` run's CSV export.
const CHAIN_TRACE_CSV_DIGEST: u64 = 15004880521052151565;
/// `digest64` of the chain sweep grid's `to_csv()`.
const CHAIN_SWEEP_CSV_DIGEST: u64 = 8754911304837900382;
/// `digest64` of the JSONL trace of the storage-chain run in `trace.rs`
/// (`chain_experiment(TransferMode::Storage, 2)`).
const STORAGE_CHAIN_TRACE_DIGEST: u64 = 18107858407541225067;

#[test]
fn chain_run_reproduces_pinned_digests_on_every_backend() {
    for queue in QUEUES {
        let outcome = experiment(false, queue).trace(1 << 16).run().expect("chain run");
        assert_eq!(
            latency_digest(&outcome.latencies_ms()),
            CHAIN_LATENCY_DIGEST,
            "{queue:?}: latency vector moved"
        );
        assert_eq!(
            traceio::digest64(&traceio::to_jsonl(&outcome.spans)),
            CHAIN_TRACE_JSONL_DIGEST,
            "{queue:?}: JSONL trace moved"
        );
        assert_eq!(
            traceio::digest64(&traceio::to_csv(&outcome.spans)),
            CHAIN_TRACE_CSV_DIGEST,
            "{queue:?}: CSV trace moved"
        );
    }
}

#[test]
fn chain_sweep_csv_reproduces_pinned_digest() {
    let csv = SweepRunner::new(2).run(&sweep_grid(false)).to_csv();
    assert_eq!(traceio::digest64(&csv), CHAIN_SWEEP_CSV_DIGEST, "sweep CSV moved");
}

#[test]
fn storage_chain_trace_reproduces_pinned_digest() {
    let mut runtime = RuntimeConfig::single(IatSpec::Fixed { ms: 3_000.0 }, 15);
    runtime.warmup_rounds = 1;
    runtime.chain =
        Some(ChainConfig { length: 2, mode: TransferMode::Storage, payload_bytes: 500_000 });
    let outcome = Experiment::new(providers::profiles::aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] })
        .workload(runtime)
        .seed(2)
        .trace(1 << 20)
        .run()
        .expect("storage chain run");
    assert_eq!(
        traceio::digest64(&traceio::to_jsonl(&outcome.spans)),
        STORAGE_CHAIN_TRACE_DIGEST,
        "storage-chain trace moved"
    );
}
