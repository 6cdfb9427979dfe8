//! Golden regression pins for the streaming client path.
//!
//! The bit-exact constants below were captured from the pre-refactor
//! streaming path (submit everything up front, then drain in slices).
//! The current path interleaves just-in-time submission with simulation
//! under a submission window; these tests pin that the refactor — and any
//! future change to the client, cloud, or engine — reproduces the legacy
//! output exactly: same counts, same simulated duration, same latency
//! aggregate bits.

use stellar_core::client::{run_workload_spec, run_workload_with, MeasureSpec};
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::deployer::deploy;
use workload::spec::WorkloadSpec;

struct Golden {
    label: &'static str,
    iat: IatSpec,
    samples: u32,
    warmup: u32,
    burst: u32,
    measured: u64,
    warmup_count: u64,
    cold: u64,
    dur_ns: u64,
    mean_bits: u64,
    p50_bits: u64,
    p99_bits: u64,
}

const CLOUD_SEED: u64 = 7;
const CLIENT_SEED: u64 = 9;

#[test]
fn streaming_path_matches_pre_refactor_golden() {
    let goldens = [
        Golden {
            label: "fixed",
            iat: IatSpec::Fixed { ms: 250.0 },
            samples: 500,
            warmup: 20,
            burst: 1,
            measured: 500,
            warmup_count: 20,
            cold: 0,
            dur_ns: 130_939_453_086,
            mean_bits: 0x4044_4000_0000_0000,
            p50_bits: 0x4044_4000_0000_0000,
            p99_bits: 0x4044_4000_0000_0000,
        },
        Golden {
            label: "fixed-burst",
            iat: IatSpec::Fixed { ms: 2_000.0 },
            samples: 300,
            warmup: 10,
            burst: 10,
            measured: 300,
            warmup_count: 100,
            cold: 0,
            dur_ns: 78_257_812_500,
            mean_bits: 0x4045_6000_0000_0000,
            p50_bits: 0x4045_6000_0000_0000,
            p99_bits: 0x4046_8000_0000_0000,
        },
        Golden {
            label: "expo",
            iat: IatSpec::Exponential { mean_ms: 50.0 },
            samples: 400,
            warmup: 10,
            burst: 1,
            measured: 400,
            warmup_count: 10,
            cold: 0,
            dur_ns: 19_989_191_616,
            mean_bits: 0x4044_4098_8df0_c3f8,
            p50_bits: 0x4044_4000_0000_0000,
            p99_bits: 0x4044_5edd_c126_5077,
        },
    ];
    for g in goldens {
        let mut cfg = RuntimeConfig::single(g.iat.clone(), g.samples);
        cfg.warmup_rounds = g.warmup;
        cfg.burst_size = g.burst;
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud =
            faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
        let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
        let r =
            run_workload_with(&mut cloud, &d, &cfg, CLIENT_SEED, &MeasureSpec::sketch()).unwrap();
        let mut agg = r.latency_agg.clone();
        assert_eq!(r.measured_count, g.measured, "{}: measured", g.label);
        assert_eq!(r.warmup_count, g.warmup_count, "{}: warmup", g.label);
        assert_eq!(r.cold_count, g.cold, "{}: cold", g.label);
        assert_eq!(r.duration.as_nanos(), g.dur_ns, "{}: duration drifted", g.label);
        assert_eq!(agg.mean().to_bits(), g.mean_bits, "{}: mean bits drifted", g.label);
        assert_eq!(agg.quantile(0.5).to_bits(), g.p50_bits, "{}: p50 bits drifted", g.label);
        assert_eq!(agg.quantile(0.99).to_bits(), g.p99_bits, "{}: p99 bits drifted", g.label);
    }
}

/// One-line digest of a run: counts, duration, and latency-aggregate bits.
/// String equality makes the pin bit-exact while a failure shows every
/// drifted field at once.
fn digest(r: &stellar_core::client::RunResult) -> String {
    let mut agg = r.latency_agg.clone();
    format!(
        "measured={} warmup={} cold={} dur_ns={} mean={:#018x} p50={:#018x} p99={:#018x}",
        r.measured_count,
        r.warmup_count,
        r.cold_count,
        r.duration.as_nanos(),
        agg.mean().to_bits(),
        agg.quantile(0.5).to_bits(),
        agg.quantile(0.99).to_bits(),
    )
}

/// The workload-spec driver with *no policy configured* must stay
/// byte-identical to its pre-policy-layer output (captured from the tree
/// at the commit introducing `stellar-policy`): attaching the policy
/// machinery may not move a single RNG draw or event on the default path.
#[test]
fn spec_driver_no_policy_matches_golden() {
    let cases: [(&str, &str, u32, u32, &str); 2] = [
        (
            "open-mmpp",
            "mmpp-burst",
            300,
            10,
            "measured=300 warmup=10 cold=17 dur_ns=14421019867 mean=0x404b1162f33829cb p50=0x4044400000000000 p99=0x4071880000000000",
        ),
        (
            "closed-loop",
            "closed-loop",
            300,
            10,
            "measured=300 warmup=10 cold=6 dur_ns=20000000000 mean=0x40487369d0369d03 p50=0x4046000000000000 p99=0x4071e8147ae147ae",
        ),
    ];
    for (label, preset, samples, warmup, golden) in cases {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), samples);
        cfg.warmup_rounds = warmup;
        let spec = WorkloadSpec::preset(preset).unwrap();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud =
            faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
        let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
        let r = run_workload_spec(&mut cloud, &d, &cfg, &spec, CLIENT_SEED, &MeasureSpec::sketch())
            .unwrap();
        assert_eq!(digest(&r), golden, "{label}: no-policy spec driver drifted");
    }
}

/// Full digest of a workload-spec run: [`digest`] plus the bits of every
/// offered-load field and every [`policy::PolicyStats`] counter.
fn spec_digest(r: &stellar_core::client::RunResult) -> String {
    let mut s = digest(r);
    if let Some(o) = &r.offered {
        s += &format!(
            " offered={}/{:#018x}/{:#018x}/{:#018x}/{:#018x}/{:#018x}",
            o.arrivals,
            o.mean_rate_per_s.to_bits(),
            o.iat_cv.to_bits(),
            o.peak_to_mean.to_bits(),
            o.fano.to_bits(),
            o.window_ms.to_bits(),
        );
    }
    if let Some(p) = &r.policy {
        s += &format!(
            " policy={}/{}/{}/{}/{}/{}/{}/{:#018x}/{:#018x}",
            p.logical,
            p.extra_launches,
            p.cancels,
            p.duplicate_successes,
            p.abandoned,
            p.failures,
            p.failed_logical,
            p.used_busy_ms.to_bits(),
            p.wasted_busy_ms.to_bits(),
        );
    }
    s
}

/// One workload-spec run shape for [`spec_driver_shapes_match_golden`].
struct SpecCase {
    label: &'static str,
    workload: &'static str,
    samples: u32,
    warmup: u32,
    burst: u32,
    replicas: u32,
    exec_ms: Option<f64>,
    policy: Option<&'static str>,
    faults: Option<&'static str>,
    exact: bool,
    golden: &'static str,
}

impl SpecCase {
    fn run(&self) -> String {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), self.samples);
        cfg.warmup_rounds = self.warmup;
        cfg.burst_size = self.burst;
        if let Some(ms) = self.exec_ms {
            cfg.exec_ms = ms;
        }
        if let Some(name) = self.policy {
            cfg = cfg.with_policy(policy::PolicySpec::preset(name).unwrap());
        }
        let spec = WorkloadSpec::preset(self.workload)
            .or_else(|| WorkloadSpec::from_json(self.workload).ok())
            .unwrap();
        let static_cfg = StaticConfig {
            functions: vec![StaticFunction::python_zip("f").with_replicas(self.replicas)],
        };
        let mut cloud =
            faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
        let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
        if let Some(name) = self.faults {
            cloud.install_faults(faults::FaultSpec::preset(name).unwrap().build());
        }
        let measure = if self.exact { MeasureSpec::exact() } else { MeasureSpec::sketch() };
        let r = run_workload_spec(&mut cloud, &d, &cfg, &spec, CLIENT_SEED, &measure).unwrap();
        spec_digest(&r)
    }
}

/// Pins the workload-spec driver's run shapes that the goldens above do
/// not reach: bursts, multi-source routing, a finite trace running out,
/// exact-mode retention, injected faults, an exact closed loop, and
/// policies on open and closed loops. Captured before the open- and
/// closed-loop drivers were folded into the policy driver's loop.
#[test]
fn spec_driver_shapes_match_golden() {
    const BASE: SpecCase = SpecCase {
        label: "",
        workload: "poisson",
        samples: 300,
        warmup: 10,
        burst: 1,
        replicas: 1,
        exec_ms: None,
        policy: None,
        faults: None,
        exact: false,
        golden: "",
    };
    let cases = [
        SpecCase {
            label: "open-burst4",
            samples: 200,
            warmup: 5,
            burst: 4,
            golden: "measured=200 warmup=20 cold=0 dur_ns=15033358230 mean=0x4044a00000000000 p50=0x4044a00000000000 p99=0x4045000000000000 offered=55/0x4025a700183a437f/0x3fec3459dc923d98/0x3ff5d1745d1745d1/0x3fd99999999999a3/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "multi-tenant",
            workload: "multi-tenant",
            replicas: 3,
            golden: "measured=300 warmup=10 cold=22 dur_ns=15884471732 mean=0x404d0f7ea6e485d2 p50=0x4044400000000000 p99=0x4071880000000000 offered=310/0x404a52cc4fff0426/0x3ffe833ea27918de/0x4001f6171f6171f6/0x403b86e1b86e1b87/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "trace-exhausted",
            workload: r#"{"arrival": {"kind": "trace_replay", "functions": 3, "horizon_ms": 30000.0, "trace_window_ms": 60000.0}}"#,
            samples: 100_000,
            warmup: 0,
            golden: "measured=4370 warmup=0 cold=37 dur_ns=39998601499 mean=0x404546dc732d17ea p50=0x4044400000000000 p99=0x40449d62ac9d825d offered=4370/0x40623581ba83b7c2/0x3ff05007b6f2305e/0x3ff257df31cb46e2/0x3ff5a5f0ecd30cbe/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "open-exact",
            workload: "mmpp-burst",
            exact: true,
            golden: "measured=300 warmup=10 cold=17 dur_ns=14421019867 mean=0x404b1162f33829cb p50=0x4044400000000000 p99=0x4071880000000000 offered=310/0x40517c6333d29d80/0x4013bb69ec761693/0x3ff6f7bdef7bdef8/0x402eedd50edd50ef/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "open-outage",
            samples: 500,
            warmup: 5,
            faults: Some("outage-throttle"),
            golden: "measured=482 warmup=5 cold=0 dur_ns=58811972692 mean=0x404440441037c4ec p50=0x4044400000000000 p99=0x4044400000000000 offered=505/0x4024ab7f99065ac7/0x3ff02d600fff1ad7/0x400113c5322fa6c8/0x3ff7f724ec5549d9/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "closed-exact",
            workload: "closed-loop",
            samples: 200,
            warmup: 5,
            exact: true,
            golden: "measured=200 warmup=5 cold=11 dur_ns=13000000000 mean=0x404ca0a3d70a3d71 p50=0x4046000000000000 p99=0x4071f0147ae147ae offered=205/0x40306b5cfa72656b/0x400dabeb0b9f11a8/0x3ff03bf103bf103c/0x3fa4bfbc5fad0103/0x408f400000000000",
            ..BASE
        },
        SpecCase {
            label: "open-tied-2",
            policy: Some("tied-2"),
            golden: "measured=300 warmup=10 cold=1 dur_ns=32134395943 mean=0x4044a770979edf44 p50=0x4044400000000000 p99=0x404469ed11e6b251 offered=310/0x4023e0e1ce2db777/0x3ff0079ce9eb61c5/0x3ffdbaa1dbaa1dbb/0x3ff8d1c13d1c13d2/0x408f400000000000 policy=310/310/310/309/0/0/0/0x40a5cc0000000000/0x40a5cc0000000000",
            ..BASE
        },
        SpecCase {
            label: "open-deadline-2s",
            workload: "mmpp-burst",
            exec_ms: Some(1_900.0),
            policy: Some("deadline-2s"),
            golden: "measured=141 warmup=0 cold=0 dur_ns=6421019867 mean=0x409e522c07f06c41 p50=0x409e520000000000 p99=0x409e5429609c220a offered=310/0x40517c6333d29d80/0x4013bb69ec761693/0x3ff6f7bdef7bdef8/0x402eedd50edd50ef/0x408f400000000000 policy=310/0/169/0/169/0/0/0x41106dc400000000/0x4111f93740b73d18",
            ..BASE
        },
        SpecCase {
            label: "closed-retry-outage",
            workload: "closed-loop",
            samples: 2_500,
            warmup: 5,
            policy: Some("retry-backoff"),
            faults: Some("outage-throttle"),
            golden: "measured=2500 warmup=5 cold=11 dur_ns=49585975064 mean=0x4044cb34e13ca925 p50=0x4044400000000000 p99=0x40447d6598e10cf6 offered=2505/0x404946570f812538/0x3ff80042a7bda4bb/0x3ff513ed9ad38b7f/0x4002bde1230d9789/0x408f400000000000 policy=2505/139/0/0/0/139/0/0x40d6044000000000/0x0000000000000000",
            ..BASE
        },
    ];
    for case in &cases {
        assert_eq!(case.run(), case.golden, "{}: spec driver drifted", case.label);
    }
}
