//! Golden byte-identity gate for keep-alive reaping.
//!
//! Keep-alive expiry is modelled as a timer per idle transition, and the
//! timers are observable well beyond the reaps themselves: telemetry
//! ticks and purge storms keep rescheduling only while an event other
//! than these two is pending, a purge storm's next gap is drawn only
//! then, and `run_to_idle` ends at the last pending event. These pins capture all
//! of that — every completion, the reap and purge counters, resource
//! usage, the timeline samples and the final clock — on a constant
//! (aws-like) and two uniform (google-like, azure-like) keep-alive
//! distributions, on every event-queue backend. With uniform timeouts a
//! later idle transition can carry an earlier deadline than a pending
//! one, which is the case a cheaper timer scheme is most likely to get
//! wrong.

use faas_sim::cloud::CloudSim;
use faas_sim::config::ProviderConfig;
use faas_sim::spec::FunctionSpec;
use faults::FaultSpec;
use simkit::dist::Dist;
use simkit::engine::QueueKind;
use simkit::time::SimTime;
use stellar_core::traceio;

const QUEUES: [QueueKind; 3] = [QueueKind::BinaryHeap, QueueKind::Calendar, QueueKind::Adaptive];

/// Arrival instants, seconds: an opening burst that scales the fleet out,
/// a sparse stream that keeps one instance warm while the rest age past
/// their keep-alive, a second burst after most of the fleet is gone, and
/// widely spaced stragglers that arrive around the keep-alive horizon.
fn arrivals() -> Vec<f64> {
    let mut at = Vec::new();
    // xorshift jitter so arrivals do not sit on a grid.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut jitter = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..24 {
        at.push(jitter() * 0.5);
    }
    let mut t = 1.0;
    while t < 1_200.0 {
        at.push(t);
        t += 5.0 + 20.0 * jitter();
    }
    for _ in 0..16 {
        at.push(1_500.0 + jitter() * 0.3);
    }
    let mut t = 1_510.0;
    while t < 10_800.0 {
        at.push(t);
        t += 60.0 + 1_200.0 * jitter();
    }
    at
}

/// What one run switches on besides the arrivals.
#[derive(Clone, Copy)]
struct Setup {
    timeline: bool,
    storms: bool,
}

/// The three shapes every backend and provider runs. The run with both a
/// timeline and a purge storm stops at a horizon (until they counted each
/// other as pending work they never drained); each alone drains with
/// `run_to_idle`, which is where the last pending timer shows.
const SETUPS: [Setup; 3] = [
    Setup { timeline: true, storms: true },
    Setup { timeline: true, storms: false },
    Setup { timeline: false, storms: true },
];

/// One digest over everything keep-alive timers can move, and one over
/// the work alone: the completions, the reap and purge counters and the
/// resource usage, without the storm count, the timeline and the clock.
fn run_digest(cfg: ProviderConfig, queue: QueueKind, setup: Setup) -> (u64, u64) {
    let mut cloud = CloudSim::with_queue(cfg, 99, queue);
    let fast = cloud
        .deploy(FunctionSpec::builder("fast").exec_ms(Dist::constant(40.0)).build())
        .expect("deploy fast");
    let slow = cloud
        .deploy(FunctionSpec::builder("slow").exec_ms(Dist::constant(900.0)).build())
        .expect("deploy slow");
    if setup.timeline {
        cloud.enable_timeline(SimTime::from_secs(30.0));
    }
    if setup.storms {
        cloud.install_faults(storm().build());
    }
    for (i, s) in arrivals().into_iter().enumerate() {
        let function = if i % 3 == 0 { slow } else { fast };
        cloud.submit(function, i as u64, SimTime::from_secs(s));
    }
    cloud.run_until(SimTime::from_secs(2_000.0));
    let mut completions = cloud.drain_completions();
    if setup.timeline && setup.storms {
        cloud.run_until(SimTime::from_secs(14_400.0));
    } else {
        cloud.run_to_idle();
    }
    completions.extend(cloud.drain_completions());

    let mut text = String::new();
    for c in &completions {
        text.push_str(&format!("{c:?}\n"));
    }
    let mut work = text.clone();
    let faults = cloud.fault_stats();
    text.push_str(&format!(
        "reaps {} storms {} purged {}\n",
        cloud.stats().reaps,
        faults.storms,
        faults.purged_instances
    ));
    work.push_str(&format!("reaps {} purged {}\n", cloud.stats().reaps, faults.purged_instances));
    for f in [fast, slow] {
        text.push_str(&format!("{:?}\n", cloud.resource_usage(f)));
        work.push_str(&format!("{:?}\n", cloud.resource_usage(f)));
    }
    for s in cloud.timeline() {
        text.push_str(&format!("{s:?}\n"));
    }
    text.push_str(&format!("now {}\n", cloud.now().as_nanos()));
    (traceio::digest64(&text), traceio::digest64(&work))
}

fn storm() -> FaultSpec {
    FaultSpec::PurgeStorm { mean_gap_ms: 1_800_000.0, start_ms: 600_000.0 }
}

/// Pinned on the timer-per-transition implementation, one digest per
/// entry of [`SETUPS`]; the first (timeline and storms) re-pinned when
/// the two stopped keeping each other going past the last reap.
const PINS: [(&str, [u64; 3]); 3] = [
    ("aws-like", [0x24df_c192_233f_978b, 0x0b1c_ef7a_fe26_6a95, 0x3fde_4884_d748_a080]),
    ("google-like", [0xc511_d4c5_3f27_c92d, 0x872d_38da_aaf0_4f3e, 0xd20d_2198_fe3d_c868]),
    ("azure-like", [0x7665_5419_3fb8_ef7e, 0x768a_6d50_eaff_6a76, 0xd5ff_b5ac_58f4_4224]),
];

/// The work digest of the timeline-and-storms setup, pinned before the
/// timeline and the storms stopped keeping each other going: only what
/// follows the last reap (storms, timeline samples, the final clock) moved.
const WORK_PINS: [(&str, u64); 3] = [
    ("aws-like", 0xe660_f305_ea8d_fc13),
    ("google-like", 0xaec3_d52e_757b_8645),
    ("azure-like", 0x2139_42d5_23f9_e44d),
];

fn provider(name: &str) -> ProviderConfig {
    match name {
        "aws-like" => providers::profiles::aws_like(),
        "google-like" => providers::profiles::google_like(),
        _ => providers::profiles::azure_like(),
    }
}

#[test]
fn keepalive_outputs_match_pins_on_every_backend() {
    for (name, pins) in PINS {
        for (setup, pin) in SETUPS.into_iter().zip(pins) {
            for queue in QUEUES {
                let (digest, _) = run_digest(provider(name), queue, setup);
                assert_eq!(
                    digest, pin,
                    "{name} on {queue:?} (timeline {}, storms {}): got {digest:#018x}",
                    setup.timeline, setup.storms
                );
            }
        }
    }
}

#[test]
fn timeline_and_storms_keep_the_work_pins() {
    for (name, pin) in WORK_PINS {
        for queue in QUEUES {
            let (_, work) = run_digest(provider(name), queue, SETUPS[0]);
            assert_eq!(work, pin, "{name} on {queue:?}: got {work:#018x}");
        }
    }
}

/// The pinned runs exercise what they are meant to: keep-alive reaps,
/// purges, and instances reused across idle periods.
#[test]
fn pinned_runs_reap_purge_and_reuse() {
    for (name, _) in PINS {
        let mut cloud = CloudSim::new(provider(name), 99);
        let f = cloud.deploy(FunctionSpec::builder("f").build()).expect("deploy");
        cloud.install_faults(storm().build());
        let arrivals = arrivals();
        for (i, s) in arrivals.iter().enumerate() {
            cloud.submit(f, i as u64, SimTime::from_secs(*s));
        }
        cloud.run_to_idle();
        let purged = cloud.fault_stats().purged_instances;
        let expired = cloud.stats().reaps - purged;
        let spawns = cloud.resource_usage(f).spawns;
        assert!(expired >= 5, "{name}: {expired} keep-alive reaps");
        assert!(purged > 0, "{name}: no purge hit an idle instance");
        assert!(spawns < arrivals.len() as u64 / 2, "{name}: {spawns} spawns, no reuse");
    }
}

/// A purge kills an instance whose pending check predates its reuse. A
/// timer per idle transition left the reuse's later deadline pending, so
/// the purge storm kept rescheduling until it and `run_to_idle` ended
/// past it; one check per instance must carry the queue that far too.
#[test]
fn purged_instance_keeps_its_reuse_deadline_pending() {
    for queue in QUEUES {
        let mut cloud = CloudSim::with_queue(providers::profiles::aws_like(), 3, queue);
        let f = cloud
            .deploy(FunctionSpec::builder("f").exec_ms(Dist::constant(40.0)).build())
            .expect("deploy");
        cloud.install_faults(
            FaultSpec::PurgeStorm { mean_gap_ms: 1_000.0, start_ms: 400_000.0 }.build(),
        );
        cloud.submit(f, 0, SimTime::ZERO);
        cloud.submit(f, 1, SimTime::from_secs(300.0));
        cloud.run_to_idle();
        let done = cloud.drain_completions();
        assert_eq!(done.len(), 2);
        assert!(!done[1].cold, "the second request reuses the instance");
        assert_eq!(cloud.fault_stats().purged_instances, 1);
        assert_eq!(cloud.stats().reaps, 1, "the purge is the only reap");
        // aws-like keeps an idle instance 600 s, so the reuse reserved a
        // deadline after 900 s; storms stop at the first one that finds
        // nothing else pending.
        let (storms, end_ns) = (cloud.fault_stats().storms, cloud.now().as_nanos());
        assert!(end_ns > 900_000_000_000, "{queue:?}: run ended at {end_ns} ns");
        // Pinned on the timer-per-transition implementation.
        assert_eq!((storms, end_ns), (492, 902_418_835_148), "{queue:?}");
    }
}

/// A timeline and a purge storm together drain to idle: each reschedules
/// only while the queue holds more than the periodic events, so neither
/// keeps the other going. Both used to reschedule on any pending event
/// and never stopped; the horizon turns that into a failure, not a hang.
#[test]
fn timeline_and_purge_storm_drain_to_idle() {
    for queue in QUEUES {
        let mut cloud = CloudSim::with_queue(providers::profiles::aws_like(), 99, queue);
        let f = cloud.deploy(FunctionSpec::builder("f").build()).expect("deploy");
        cloud.enable_timeline(SimTime::from_secs(30.0));
        cloud.install_faults(storm().build());
        let arrivals = arrivals();
        for (i, s) in arrivals.iter().enumerate() {
            cloud.submit(f, i as u64, SimTime::from_secs(*s));
        }
        cloud.run_until(SimTime::from_secs(1e6));
        let last = cloud.timeline().last().expect("timeline samples").at;
        assert!(last < SimTime::from_secs(1e5), "{queue:?}: still ticking at {last:?}");
        cloud.run_to_idle();
        assert_eq!(cloud.drain_completions().len(), arrivals.len(), "{queue:?}");
        assert!(cloud.fault_stats().storms > 0, "{queue:?}: no storm fired");
    }
}
