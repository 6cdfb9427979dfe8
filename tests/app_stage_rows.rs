//! Golden rows of the per-stage workflow report.
//!
//! `stellar run --app <preset>` prints one row per stage (count, median
//! and p99 of `total − chain`) and one per join. The pins below hold the
//! exact-mode rows of all six presets, on the legacy driver (no workload
//! model) and on the workload-spec driver, so any change to how stage
//! samples are recorded or summarised must reproduce them bit for bit.

use stellar_core::client::MeasureSpec;
use stellar_core::config::{IatSpec, RuntimeConfig};
use stellar_core::experiment::{DagRunStats, Experiment};
use stellar_core::traceio;
use workload::spec::WorkloadSpec;

const SAMPLES: u32 = 120;

fn stage_rows(app: &str, spec_driver: bool, measure: MeasureSpec) -> DagRunStats {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), SAMPLES);
    runtime.warmup_rounds = 3;
    if spec_driver {
        runtime = runtime.with_workload(WorkloadSpec::preset("poisson").expect("preset"));
    }
    Experiment::new(providers::profiles::aws_like())
        .workload(runtime)
        .seed(5)
        .measure(measure)
        .app(appsuite::preset(app).expect("app preset"))
        .run()
        .expect("app run")
        .dag
        .expect("app runs report stage rows")
}

/// Digest of every stage and join row, floats by their bits.
fn rows_digest(stats: &DagRunStats) -> u64 {
    let mut text = String::new();
    for s in &stats.stages {
        text.push_str(&format!(
            "{} {} {:016x} {:016x}\n",
            s.name,
            s.count,
            s.median_ms.to_bits(),
            s.p99_ms.to_bits()
        ));
    }
    for j in &stats.joins {
        text.push_str(&format!(
            "{} {} {} {:016x} {:016x} {:016x}\n",
            j.stage,
            j.fired,
            j.stragglers,
            j.branch_p99_ms.to_bits(),
            j.join_p99_ms.to_bits(),
            j.amplification.to_bits()
        ));
    }
    text.push_str(&format!("{:016x}\n", stats.straggler_amplification.to_bits()));
    traceio::digest64(&text)
}

/// `(preset, legacy driver, spec driver)` row digests.
const PINS: [(&str, u64, u64); 6] = [
    ("web-api", 0xbd14_fa5d_7a78_42af, 0x05a9_d251_fc50_47e1),
    ("thumbnail", 0x1f71_f438_7efd_7670, 0x0208_1d48_1268_0012),
    ("ml-inference", 0xf34a_3b3f_9e2c_bac2, 0x5c39_8432_2c3a_dd88),
    ("video", 0x0a97_ffea_272c_acd3, 0x0590_2fa3_5123_a6de),
    ("map-reduce", 0xc2c3_4ce8_c76d_cb32, 0x2155_7997_b8c1_fb01),
    ("scatter-gather", 0x9cf3_3571_8905_2df7, 0xb357_3420_fdb6_b014),
];

#[test]
fn exact_stage_rows_match_pins_for_every_preset() {
    for (app, legacy, spec) in PINS {
        let got = rows_digest(&stage_rows(app, false, MeasureSpec::exact()));
        assert_eq!(got, legacy, "{app} on the legacy driver: got {got:#018x}");
        let got = rows_digest(&stage_rows(app, true, MeasureSpec::exact()));
        assert_eq!(got, spec, "{app} on the spec driver: got {got:#018x}");
    }
}

/// Streaming (sketch-mode) runs keep no completion vectors; their stage
/// rows, the root stage's included, must still equal the exact run's.
/// The root row used to read from the kept completions and came out
/// empty in sketch mode.
#[test]
fn sketch_mode_stage_rows_equal_exact_rows() {
    for (app, _, _) in PINS {
        for spec_driver in [false, true] {
            let exact = stage_rows(app, spec_driver, MeasureSpec::exact());
            let sketch = stage_rows(app, spec_driver, MeasureSpec::sketch());
            let root = &sketch.stages[0];
            assert_eq!(root.count, u64::from(SAMPLES + 3), "{app}: root stage {root:?}");
            assert_eq!(sketch, exact, "{app} (spec driver {spec_driver})");
        }
    }
}
