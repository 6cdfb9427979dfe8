//! The deployer: turns a static configuration into live endpoints.
//!
//! STeLLAR's deployer features provider-specific plugins that push
//! functions to the target cloud and emit a file of endpoint URLs (§IV).
//! In this reproduction the plugin deploys into a [`CloudSim`]; the plugin
//! trait is kept so a real-cloud backend could slot in.

use faas_sim::cloud::{CloudSim, DeployError};
use faas_sim::dag::DagPlan;
use faas_sim::spec::FunctionSpec;
use faas_sim::types::FunctionId;
use simkit::dist::Dist;

use crate::config::{ChainConfig, RuntimeConfig, StaticConfig, StaticFunction};

/// One deployed, invokable function endpoint (a chain's head when chains
/// are configured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Synthetic URL, in the shape a provider would assign.
    pub url: String,
    /// The head function to invoke.
    pub function: FunctionId,
    /// Deployed name (base name + replica suffix).
    pub name: String,
}

/// A completed deployment: the endpoints file the client consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// One endpoint per (entry × replica).
    pub endpoints: Vec<Endpoint>,
}

impl Deployment {
    /// Number of invokable endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

/// Deploys `static_cfg` into `cloud`, wiring chains and execution times
/// from `runtime_cfg`.
///
/// For every entry and replica this creates the function or, when a chain
/// is configured, a linear workflow of `length` functions whose head is
/// the endpoint.
///
/// # Errors
///
/// Propagates [`DeployError`] from the simulator (invalid specs, inline
/// payload above the provider cap).
pub fn deploy(
    cloud: &mut CloudSim,
    static_cfg: &StaticConfig,
    runtime_cfg: &RuntimeConfig,
) -> Result<Deployment, DeployError> {
    static_cfg.validate().map_err(DeployError::InvalidSpec)?;
    runtime_cfg.validate().map_err(DeployError::InvalidSpec)?;
    let mut endpoints = Vec::new();
    for entry in &static_cfg.functions {
        for replica in 0..entry.replicas {
            let name = format!("{}-{replica}", entry.name);
            let head = match &runtime_cfg.chain {
                Some(chain) => deploy_chain(cloud, entry, &name, runtime_cfg.exec_ms, chain)?,
                None => deploy_one(cloud, entry, &name, runtime_cfg.exec_ms)?,
            };
            endpoints.push(Endpoint {
                url: format!("https://{}.sim/{}", cloud.config().name, name),
                function: head,
                name,
            });
        }
    }
    Ok(Deployment { endpoints })
}

fn deploy_one(
    cloud: &mut CloudSim,
    entry: &StaticFunction,
    name: &str,
    exec_ms: f64,
) -> Result<FunctionId, DeployError> {
    let spec = FunctionSpec::builder(name)
        .runtime(entry.runtime)
        .deployment(entry.deployment)
        .memory_mb(entry.memory_mb)
        .extra_image_mb(entry.extra_image_mb)
        .exec_ms(Dist::constant(exec_ms))
        .try_build()
        .map_err(DeployError::InvalidSpec)?;
    cloud.deploy(spec)
}

/// Deploys a chain as a linear workflow; returns its head (producer).
fn deploy_chain(
    cloud: &mut CloudSim,
    entry: &StaticFunction,
    name: &str,
    exec_ms: f64,
    chain: &ChainConfig,
) -> Result<FunctionId, DeployError> {
    let mut plan = DagPlan::linear(
        name,
        chain.length as usize,
        chain.mode,
        chain.payload_bytes,
        Dist::constant(exec_ms),
    );
    for node in &mut plan.nodes {
        node.runtime = entry.runtime;
        node.deployment = entry.deployment;
        node.memory_mb = entry.memory_mb;
        node.extra_image_mb = entry.extra_image_mb;
    }
    Ok(cloud.deploy_dag(&plan)?.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IatSpec;
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;
    use simkit::time::SimTime;

    fn cloud() -> CloudSim {
        CloudSim::new(test_provider(), 1)
    }

    #[test]
    fn deploys_replicas_as_separate_endpoints() {
        let mut cloud = cloud();
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::python_zip("probe").with_replicas(5)] };
        let runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.endpoints[0].name, "probe-0");
        assert_eq!(d.endpoints[4].name, "probe-4");
        assert!(d.endpoints[0].url.starts_with("https://test.sim/"));
        // Each endpoint invokes a distinct function.
        let mut ids: Vec<_> = d.endpoints.iter().map(|e| e.function).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn deploys_chain_head_and_hops() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.chain =
            Some(ChainConfig { length: 3, mode: TransferMode::Inline, payload_bytes: 1_000 });
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        assert_eq!(d.len(), 1, "one endpoint: the chain head");
        // Invoking the head must traverse the whole chain: two transfers.
        cloud.submit(d.endpoints[0].function, 0, SimTime::ZERO);
        cloud.run_until(SimTime::from_secs(30.0));
        assert_eq!(cloud.drain_completions().len(), 1);
        assert_eq!(cloud.drain_transfers().len(), 2);
    }

    #[test]
    fn chain_replicas_deploy_separate_workflows() {
        let mut cloud = cloud();
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::go_zip("xfer").with_replicas(2)] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.chain =
            Some(ChainConfig { length: 3, mode: TransferMode::Inline, payload_bytes: 1_000 });
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        assert_eq!(d.len(), 2, "one endpoint per replica");
        assert_ne!(d.endpoints[0].function, d.endpoints[1].function);
        for e in &d.endpoints {
            cloud.submit(e.function, 0, SimTime::ZERO);
        }
        cloud.run_until(SimTime::from_secs(30.0));
        assert_eq!(cloud.drain_completions().len(), 2);
        assert_eq!(cloud.drain_transfers().len(), 4);
        // Each replica's two hops ran in functions of their own.
        let hops: Vec<FunctionId> = cloud.dag_node_counters().iter().map(|&(f, _)| f).collect();
        assert_eq!(hops.len(), 4);
        assert!(d.endpoints.iter().all(|e| !hops.contains(&e.function)));
    }

    #[test]
    fn chain_hops_inherit_exec_time_and_image() {
        use faas_sim::span_tag;
        // Per hop, from its trace: (execution span, queue-wait span). A
        // hop's first request cold-starts, so its queue wait spans the
        // boot, image fetch included.
        let run = |extra_image_mb: f64| -> Vec<(f64, f64)> {
            let mut cloud = cloud();
            let static_cfg = StaticConfig {
                functions: vec![
                    StaticFunction::python_zip("xfer").with_extra_image_mb(extra_image_mb)
                ],
            };
            let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
            runtime_cfg.exec_ms = 250.0;
            runtime_cfg.chain =
                Some(ChainConfig { length: 3, mode: TransferMode::Inline, payload_bytes: 1_000 });
            let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
            cloud.record_internal_completions(true);
            cloud.enable_tracing(1 << 12);
            cloud.submit(d.endpoints[0].function, 0, SimTime::ZERO);
            cloud.run_until(SimTime::from_secs(60.0));
            assert_eq!(cloud.drain_completions().len(), 1);
            assert_eq!(cloud.drain_internal_completions().len(), 2);
            let spans = cloud.drain_spans();
            // A hop's root span hangs off its producer's chain span.
            let hops =
                spans.iter().filter(|s| s.component == span_tag::REQUEST && s.parent.is_some());
            hops.map(|hop| {
                let ms = |tag: &str| {
                    let span =
                        spans.iter().find(|s| s.request == hop.request && s.component == tag);
                    span.expect("hop span").duration_ms()
                };
                (ms(span_tag::EXECUTION), ms(span_tag::QUEUE_WAIT))
            })
            .collect()
        };
        let (small, large) = (run(0.0), run(500.0));
        assert_eq!(small.len(), 2);
        assert_eq!(large.len(), 2);
        for ((s_exec, s_wait), (l_exec, l_wait)) in small.into_iter().zip(large) {
            assert_eq!(s_exec, 250.0);
            assert_eq!(l_exec, 250.0);
            assert!(l_wait > s_wait, "hop cold wait {l_wait} vs {s_wait}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cloud = cloud();
        let empty = StaticConfig { functions: vec![] };
        let runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        assert!(deploy(&mut cloud, &empty, &runtime_cfg).is_err());

        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("f")] };
        let mut bad_runtime = runtime_cfg;
        bad_runtime.samples = 0;
        assert!(deploy(&mut cloud, &static_cfg, &bad_runtime).is_err());
    }

    #[test]
    fn oversized_inline_chain_payload_is_rejected() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("f")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.chain = Some(ChainConfig {
            length: 2,
            mode: TransferMode::Inline,
            payload_bytes: 100_000_000, // over the 6 MB test-provider cap
        });
        let err = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap_err();
        assert!(matches!(err, DeployError::InlinePayloadTooLarge { .. }));
    }

    #[test]
    fn exec_time_is_applied() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("slow")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.exec_ms = 1000.0;
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        cloud.submit(d.endpoints[0].function, 0, SimTime::ZERO);
        cloud.run_until(SimTime::from_secs(30.0));
        let done = cloud.drain_completions();
        assert_eq!(done[0].breakdown.exec_ms, 1000.0);
    }
}
