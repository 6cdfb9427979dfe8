//! The workload-spec driver: one loop for open and closed workloads, with
//! or without a tail-tolerance policy.
//!
//! Without a policy the client is a fire-and-forget submitter: each
//! arrival submits `burst_size` requests and each completion goes
//! straight to the [`Collector`]. With a [`policy::PolicySpec`] every
//! *logical* request owns a [`policy::Composite`] state machine that may
//! launch duplicate attempts (hedges, tied copies, retries), cancel
//! in-flight attempts, or abandon the request at a deadline. The first
//! successful attempt is the logical request's latency sample; everything
//! else the policy launched is accounted as wasted work in
//! [`policy::PolicyStats`], never in the latency aggregates.
//!
//! # Determinism
//!
//! The driver is strictly serial per cell. Beyond the arrival process, a
//! policy adds one source of randomness, the jitter stream, a dedicated
//! `fork("policy")` of the cell seed, drawn once per delivered timer
//! wake-up — so a given `(spec, seed)` pair replays bit-identically
//! regardless of queue backend or sweep thread count. Runs without a
//! policy submit under the cloud's submission window, which replays the
//! network-rng draws and event tie-breaking of an up-front submission
//! pass. Policy runs skip it: the number of physical submissions is
//! data-dependent (a hedge fires or it does not), so the window's
//! draw-count reservation cannot be precomputed. Cross-thread
//! byte-identity still holds because each cell is serial and the sweep
//! merges cells in index order.
//!
//! # Boundaries
//!
//! The driver advances the cloud from boundary to boundary and reacts to
//! what it drains at each. With a policy, a boundary is the earliest of
//! the next arrival, the earliest armed policy timer, and a 1 s slice.
//! Completions drained at a boundary are processed before timers due at
//! it — a win at `t` beats a hedge or abandon timer at `t`, matching how
//! a real client's response handler races its own timeout wheel.
//! Cancellations issued at `t` take effect at the cloud's next event
//! boundary, so an attempt that has not completed by `t` never produces
//! a completion afterwards.
//!
//! Without a policy nothing reacts to an arrival or a completion before
//! the run ends, except a closed loop's think turns. An open loop
//! therefore submits its arrivals in batches, each running through the
//! first arrival past a 10 s slice, and advances the cloud to a batch's
//! last arrival; once arrivals end, the tail drains in 10 s steps. That
//! is one `run_until`, which pops and restores the event queue's head,
//! per batch rather than per arrival. Closed loops advance on the 1 s
//! grid either way.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use faas_sim::cloud::CloudSim;
use faas_sim::request::{Completion, TransferSample};
use faas_sim::types::{FunctionId, RequestId};
use policy::machine::{Action, Actions, PolicyEvent};
use policy::{Composite, PolicyMachine, PolicySpec, PolicyStats};
use simkit::rng::Rng;
use simkit::time::SimTime;
use stats::sketch::QuantileSketch;
use workload::arrival::ArrivalProcess;
use workload::spec::ModeSpec;
use workload::stats::LoadRecorder;

use crate::client::{ClientError, Collector, MeasureSpec, RunResult};
use crate::config::RuntimeConfig;
use crate::deployer::Deployment;

/// One physical attempt of a logical request.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    rid: RequestId,
    done: bool,
    cancelled: bool,
}

/// Per-logical-request state. Pooled and reused via a free list so the
/// steady-state hot path allocates nothing.
struct Slot {
    tag: u64,
    function: FunctionId,
    machine: Composite,
    attempts: Vec<Attempt>,
    /// Transfers of this request's attempts, held until it resolves: the
    /// winner's are measured, the rest are dropped.
    transfers: Vec<TransferSample>,
    outstanding: u32,
    /// Timer-heap entries still pending for this occupancy of the slot.
    /// When this hits zero with no outstanding attempts and no win, the
    /// machine can never act again — the logical request is lost.
    pending_timers: u32,
    won: bool,
    abandoned: bool,
}

/// Winner samples needed before an online quantile threshold activates.
/// Below this the estimate is too noisy to hedge on; machines treat a
/// NaN estimate as "do not fire".
const ESTIMATE_WARMUP: u64 = 20;

/// Advance-at-most slice of policy runs and grid of closed loops, 1 s.
const SLICE: SimTime = SimTime::from_nanos(1_000_000_000);

/// Arrival slice and tail step of open loops without a policy, 10 s.
const OPEN_SLICE: SimTime = SimTime::from_nanos(10_000_000_000);

/// Latest instant an arrival or think turn may fall on: half of
/// `SimTime`'s range (~292 years), which leaves the other half for the
/// delays the cloud adds after it.
const CLOCK_LIMIT: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// `at` plus a gap of `gap_ms`, or `InvalidConfig` past [`CLOCK_LIMIT`]
/// (a workload spec's gaps can be arbitrarily large finite numbers).
fn after_gap(at: SimTime, gap_ms: f64) -> Result<SimTime, ClientError> {
    at.checked_add(SimTime::from_millis(gap_ms)).filter(|&t| t <= CLOCK_LIMIT).ok_or_else(|| {
        ClientError::InvalidConfig(format!(
            "an arrival gap of {gap_ms:.3e} ms runs past the simulated clock's range"
        ))
    })
}

/// Consecutive boundaries with requests outstanding but nothing
/// completed or fired before declaring a stall.
const STALL_LIMIT: u32 = 3_600;

/// Tail-tolerance state of a policy run: one state machine per
/// unresolved logical request, the armed timers, and the accounting.
struct PolicyState<'s> {
    spec: &'s PolicySpec,
    online_q: Option<f64>,
    /// The cloud's cancelled busy time when the run started, ms.
    cancel_base_ms: f64,
    jitter_rng: Rng,
    estimate_sketch: QuantileSketch,
    stats: PolicyStats,
    slots: Vec<Slot>,
    free: Vec<usize>,
    by_tag: HashMap<u64, usize>,
    /// Armed policy timers: (fire instant ns, logical tag). Stale entries
    /// (slot already resolved and freed) are skipped on delivery.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    actions: Actions,
    /// Logical requests resolved: won, abandoned or failed.
    resolved: u64,
}

impl<'s> PolicyState<'s> {
    fn new(spec: &'s PolicySpec, seed: u64, cloud: &CloudSim) -> Self {
        PolicyState {
            spec,
            online_q: spec.online_quantile(),
            cancel_base_ms: cloud.cancel_stats().wasted_busy_ms,
            jitter_rng: Rng::seed_from(seed).fork("policy"),
            estimate_sketch: QuantileSketch::new(),
            stats: PolicyStats::default(),
            slots: Vec::new(),
            free: Vec::new(),
            by_tag: HashMap::new(),
            timers: BinaryHeap::new(),
            actions: Actions::new(),
            resolved: 0,
        }
    }

    fn estimate_ms(&mut self) -> f64 {
        match self.online_q {
            Some(q) if self.estimate_sketch.count() >= ESTIMATE_WARMUP => {
                self.estimate_sketch.quantile(q)
            }
            _ => f64::NAN,
        }
    }

    /// The earliest armed timer, if any.
    fn next_timer(&self) -> Option<SimTime> {
        self.timers.peek().map(|&Reverse((ns, _))| SimTime::from_nanos(ns))
    }

    /// Issues logical request `tag` at `at` (>= cloud.now()): builds or
    /// reuses a slot, submits the primary attempt, and runs the
    /// machine's Issued event (which may launch tied copies or arm
    /// timers). Resolution instants are pushed onto `turns`.
    fn issue(
        &mut self,
        cloud: &mut CloudSim,
        function: FunctionId,
        tag: u64,
        at: SimTime,
        turns: &mut Vec<SimTime>,
    ) {
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx];
                slot.tag = tag;
                slot.function = function;
                slot.machine.reset();
                slot.attempts.clear();
                slot.transfers.clear();
                slot.outstanding = 0;
                slot.pending_timers = 0;
                slot.won = false;
                slot.abandoned = false;
                idx
            }
            None => {
                self.slots.push(Slot {
                    tag,
                    function,
                    machine: self.spec.build(),
                    attempts: Vec::new(),
                    transfers: Vec::new(),
                    outstanding: 0,
                    pending_timers: 0,
                    won: false,
                    abandoned: false,
                });
                self.slots.len() - 1
            }
        };
        self.by_tag.insert(tag, idx);
        let rid = cloud.submit(function, tag, at);
        let slot = &mut self.slots[idx];
        slot.attempts.push(Attempt { rid, done: false, cancelled: false });
        slot.outstanding = 1;
        self.stats.logical += 1;
        let est = self.estimate_ms();
        self.actions.clear();
        self.slots[idx].machine.on_event(
            PolicyEvent::Issued { now_ms: at.as_millis(), estimate_ms: est },
            &mut self.actions,
        );
        self.apply(cloud, idx, at, turns);
    }

    /// Applies the machine's pending actions to slot `idx`, with `at` as
    /// the current logical instant (attempt launches happen at `at`).
    fn apply(&mut self, cloud: &mut CloudSim, idx: usize, at: SimTime, turns: &mut Vec<SimTime>) {
        let taken = std::mem::replace(&mut self.actions, Actions::new());
        for action in &taken {
            let slot = &mut self.slots[idx];
            match *action {
                Action::Arm { at_ms } => {
                    let fire = SimTime::from_millis(at_ms).max(at);
                    self.timers.push(Reverse((fire.as_nanos(), slot.tag)));
                    slot.pending_timers += 1;
                }
                Action::Launch => {
                    let rid = cloud.submit(slot.function, slot.tag, at);
                    slot.attempts.push(Attempt { rid, done: false, cancelled: false });
                    slot.outstanding += 1;
                    self.stats.extra_launches += 1;
                }
                Action::CancelOutstanding => cancel_outstanding(cloud, slot, &mut self.stats),
                Action::Abandon => {
                    if !slot.abandoned && !slot.won {
                        slot.abandoned = true;
                        cancel_outstanding(cloud, slot, &mut self.stats);
                        self.stats.abandoned += 1;
                        self.resolved += 1;
                        turns.push(at);
                    }
                }
            }
        }
        self.maybe_free(idx);
    }

    /// Returns a resolved slot with no outstanding attempts to the pool.
    fn maybe_free(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        if (slot.won || slot.abandoned) && slot.outstanding == 0 {
            self.by_tag.remove(&slot.tag);
            self.free.push(idx);
        }
    }

    /// Resolves a logical request whose machine can never act again:
    /// every attempt failed (or was cancelled), nothing is outstanding,
    /// and no retry/abandon timer remains armed. Without this check a
    /// run whose final attempt returns a provider error would stall.
    fn check_dead_end(&mut self, idx: usize, at: SimTime, turns: &mut Vec<SimTime>) {
        let slot = &mut self.slots[idx];
        if !slot.won && !slot.abandoned && slot.outstanding == 0 && slot.pending_timers == 0 {
            slot.abandoned = true;
            self.stats.failed_logical += 1;
            self.resolved += 1;
            turns.push(at);
            self.maybe_free(idx);
        }
    }

    /// Accounts one completion drained at boundary `now`: the first
    /// success of a logical request is its sample, later ones are
    /// duplicates, and a provider error is the machine's to react to.
    fn complete(
        &mut self,
        cloud: &mut CloudSim,
        c: Completion,
        now: SimTime,
        collector: &mut Collector,
        turns: &mut Vec<SimTime>,
    ) {
        let now_ms = now.as_millis();
        let b = &c.breakdown;
        let busy_ms = b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms;
        let Some(&idx) = self.by_tag.get(&c.tag) else {
            if c.is_ok() {
                // The logical request resolved earlier in this very
                // batch and the cancel aimed at this attempt arrived
                // after it had already completed — a futile cancel, so
                // the attempt is a duplicate success. (A failed attempt
                // of an already-resolved request has its wasted work
                // booked cloud-side in `FaultStats`.)
                self.stats.duplicate_successes += 1;
                self.stats.wasted_busy_ms += busy_ms;
            }
            return;
        };
        let slot = &mut self.slots[idx];
        if let Some(attempt) = slot.attempts.iter_mut().find(|a| a.rid == c.id) {
            attempt.done = true;
            if !attempt.cancelled {
                slot.outstanding -= 1;
            }
        }
        self.actions.clear();
        if !c.is_ok() {
            // Provider error: never a win, never a latency sample. The
            // machine may retry (after backoff) or hedge immediately; if
            // it has nothing left, the logical request resolves as
            // failed.
            self.stats.failures += 1;
            slot.machine.on_event(PolicyEvent::Failed { now_ms }, &mut self.actions);
            self.apply(cloud, idx, now, turns);
            self.check_dead_end(idx, now, turns);
            return;
        }
        let first = !slot.won;
        if first {
            slot.won = true;
            self.stats.used_busy_ms += busy_ms;
            self.estimate_sketch.record(c.latency_ms());
            for tr in slot.transfers.drain(..) {
                if tr.root == c.id {
                    collector.absorb_transfer(tr);
                }
            }
            collector.absorb(c);
            self.resolved += 1;
            turns.push(now);
        } else {
            self.stats.duplicate_successes += 1;
            self.stats.wasted_busy_ms += busy_ms;
        }
        self.slots[idx].machine.on_event(PolicyEvent::Done { now_ms, first }, &mut self.actions);
        self.apply(cloud, idx, now, turns);
    }

    /// Holds a drained transfer with its unresolved logical request; a
    /// transfer of a resolved one belongs to a losing attempt.
    fn hold(&mut self, tr: TransferSample) {
        if let Some(&idx) = self.by_tag.get(&tr.parent_tag) {
            let slot = &mut self.slots[idx];
            if !slot.won && !slot.abandoned {
                slot.transfers.push(tr);
            }
        }
    }

    /// Delivers the timers due by `now`; returns whether any was due.
    /// Each machine checks its own next-wake time, so spurious
    /// deliveries are inert.
    fn wake(&mut self, cloud: &mut CloudSim, now: SimTime, turns: &mut Vec<SimTime>) -> bool {
        let now_ms = now.as_millis();
        let mut fired = false;
        while let Some(&Reverse((ns, tag))) = self.timers.peek() {
            if SimTime::from_nanos(ns) > now {
                break;
            }
            self.timers.pop();
            fired = true;
            let Some(&idx) = self.by_tag.get(&tag) else { continue };
            self.slots[idx].pending_timers -= 1;
            let jitter = self.jitter_rng.next_f64();
            self.actions.clear();
            self.slots[idx]
                .machine
                .on_event(PolicyEvent::Wake { now_ms, jitter }, &mut self.actions);
            self.apply(cloud, idx, now, turns);
            self.check_dead_end(idx, now, turns);
        }
        fired
    }
}

/// Cancels every attempt of `slot` that is neither done nor cancelled.
fn cancel_outstanding(cloud: &mut CloudSim, slot: &mut Slot, stats: &mut PolicyStats) {
    for attempt in slot.attempts.iter_mut() {
        if !attempt.done && !attempt.cancelled {
            cloud.cancel(attempt.rid);
            attempt.cancelled = true;
            slot.outstanding -= 1;
            stats.cancels += 1;
        }
    }
}

/// Whether every request issued so far has resolved: each logical
/// request under a policy, each of its `burst` physical requests without
/// one.
fn settled(policy: Option<&PolicyState>, collector: &Collector, issued: u64, burst: u64) -> bool {
    match policy {
        Some(p) => p.resolved >= issued,
        None => collector.received as u64 >= issued * burst,
    }
}

/// Drives `process` against `deployment` in `mode`: the one loop behind
/// every workload-spec run, with `cfg.policy` attached to every logical
/// request when present.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    process: &mut dyn ArrivalProcess,
    rng: &mut Rng,
    measure: &MeasureSpec,
    seed: u64,
    mode: ModeSpec,
) -> Result<RunResult, ClientError> {
    let start = cloud.now();
    let mut total = u64::from(cfg.warmup_rounds + cfg.measured_rounds());
    if let Some(remaining) = process.remaining() {
        total = total.min(remaining);
    }
    // Requests per arrival; validation pins it to 1 under a policy and
    // on closed loops.
    let burst = u64::from(cfg.burst_size);
    let planned = (total * burst) as usize;
    let multi_source = process.sources() > 1;
    let mut policy = cfg.policy.as_ref().map(|spec| PolicyState::new(spec, seed, cloud));
    // Streaming runs pass no event-queue hint: this loop submits one
    // slice at a time, so the pending set stays near the slice and the
    // requests in flight, and a wheel sized for the whole run would only
    // shrink back (the legacy driver, which plans its whole grid up
    // front, keeps the hint).
    if measure.keep_samples {
        cloud.reserve_requests(planned);
    }
    if policy.is_none() {
        cloud.open_submission_window(planned);
    }

    let mut collector = Collector::new(measure, u64::from(cfg.warmup_rounds));
    let mut recorder = LoadRecorder::default();
    // Open-loop arrivals are issued in time order and recorded as they
    // are. Closed-loop submissions are decided in completion order and
    // clamped forward to the boundary, so they transit a min-heap and are
    // recorded once the clock passes them — a flushed prefix is final.
    let mut record_heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut issued = 0u64;
    let mut exhausted = false;
    // Next open-loop arrival, generated one ahead of submission.
    let mut next_arrival: Option<SimTime> = None;
    let mut open_clock = start;
    // Closed mode: instants that owe a virtual user a think turn.
    let mut turns: Vec<SimTime> = Vec::new();

    // Submits arrival `issued` at `at` to the endpoint of `source`:
    // `burst` plain requests, or one logical request under the policy.
    macro_rules! issue {
        ($at:expr, $source:expr) => {{
            let at: SimTime = $at;
            let function = deployment.endpoints[$source % deployment.len()].function;
            match policy.as_mut() {
                None => {
                    for _ in 0..burst {
                        cloud.submit(function, issued, at);
                    }
                }
                Some(p) => p.issue(cloud, function, issued, at, &mut turns),
            }
            issued += 1;
        }};
    }

    match mode {
        ModeSpec::Open => {
            let gap = process.next_gap_ms(rng);
            if gap.is_finite() {
                open_clock = after_gap(open_clock, gap)?;
                next_arrival = Some(open_clock);
            } else {
                exhausted = true;
            }
        }
        ModeSpec::Closed { concurrency } => {
            // Thundering herd: all users fire at the start.
            for _ in 0..u64::from(concurrency).min(total) {
                record_heap.push(Reverse(start.as_nanos()));
                issue!(start, issued as usize);
            }
        }
    }

    let mut comp_buf: Vec<Completion> = Vec::new();
    let mut trans_buf: Vec<TransferSample> = Vec::new();
    let mut stall = 0u32;
    loop {
        let more_arrivals = issued < total && !exhausted;
        if !more_arrivals && settled(policy.as_ref(), &collector, issued, burst) {
            break;
        }
        // The next boundary: one slice ahead, pulled in to the next
        // arrival or the earliest timer when a policy may react to it.
        let now = cloud.now();
        let mut next = match (&policy, mode) {
            (None, ModeSpec::Open) => now + OPEN_SLICE,
            _ => now + SLICE,
        };
        if let Some(p) = &policy {
            if let (true, Some(at)) = (more_arrivals, next_arrival) {
                next = next.min(at.max(now));
            }
            if let Some(at) = p.next_timer() {
                next = next.min(at.max(now));
            }
        }

        // Submit the open-loop arrivals due by the boundary. Without a
        // policy nothing reacts to an arrival before the run ends, so a
        // batch runs through the first arrival past its slice and the
        // cloud stops at the batch's last arrival rather than at each.
        let mut last_arrival = None;
        while issued < total {
            let Some(at) = next_arrival else { break };
            let due = match &policy {
                Some(_) => at <= next,
                None => last_arrival.is_none_or(|last| last <= next),
            };
            if !due {
                break;
            }
            let source = if multi_source { process.source() } else { issued as usize };
            issue!(at, source);
            recorder.record(at.as_millis());
            last_arrival = Some(at);
            let gap = process.next_gap_ms(rng);
            if gap.is_finite() {
                open_clock = after_gap(open_clock, gap)?;
                next_arrival = Some(open_clock);
            } else {
                exhausted = true;
                next_arrival = None;
            }
        }
        if let (None, Some(at)) = (&policy, last_arrival) {
            next = at;
        }

        cloud.run_until(next);
        let now = cloud.now();

        // 1. Completions first: a response at the boundary beats any
        // timer due at it.
        cloud.drain_completions_into(&mut comp_buf);
        cloud.drain_transfers_into(&mut trans_buf);
        let mut progressed = !comp_buf.is_empty();
        match policy.as_mut() {
            None => {
                for c in comp_buf.drain(..) {
                    // Every completion, success or error, frees its user.
                    if let ModeSpec::Closed { .. } = mode {
                        turns.push(c.completed_at);
                    }
                    collector.absorb(c);
                }
                for tr in trans_buf.drain(..) {
                    collector.absorb_transfer(tr);
                }
            }
            Some(p) => {
                // An attempt's transfers are emitted before it completes,
                // so holding them first lets a win in this batch find its
                // own.
                for tr in trans_buf.drain(..) {
                    p.hold(tr);
                }
                for c in comp_buf.drain(..) {
                    p.complete(cloud, c, now, &mut collector, &mut turns);
                }
            }
        }

        // 2. Timers due at the boundary.
        if let Some(p) = policy.as_mut() {
            progressed |= p.wake(cloud, now, &mut turns);
        }

        // 3. Closed-loop think turns: one gap per *logical* resolution —
        // never per physical attempt, so a winning hedge cannot
        // double-credit think time (the coordinated-omission hazard).
        // Without a policy a user thinks from its request's completion
        // instant, with one from the boundary that resolved it; the two
        // rules are pinned separately and unifying them moves both.
        if let ModeSpec::Closed { .. } = mode {
            for done_at in std::mem::take(&mut turns) {
                if issued < total && !exhausted {
                    let gap = process.next_gap_ms(rng);
                    if gap.is_finite() {
                        let at = after_gap(done_at, gap)?.max(now);
                        record_heap.push(Reverse(at.as_nanos()));
                        issue!(at, issued as usize);
                    } else {
                        exhausted = true;
                    }
                }
            }
        } else {
            turns.clear();
        }

        // Flush closed-loop arrival records the clock has passed.
        while let Some(&Reverse(ns)) = record_heap.peek() {
            if ns > now.as_nanos() {
                break;
            }
            record_heap.pop();
            recorder.record(ns as f64 / 1e6);
        }

        if progressed || settled(policy.as_ref(), &collector, issued, burst) {
            stall = 0;
        } else {
            stall += 1;
            if stall >= STALL_LIMIT {
                break;
            }
        }
    }

    while let Some(Reverse(ns)) = record_heap.pop() {
        recorder.record(ns as f64 / 1e6);
    }
    let offered = Some(recorder.finish());
    let Some(mut p) = policy else {
        cloud.close_submission_window();
        let duration = cloud.now() - start;
        return collector.finish((issued * burst) as usize, duration, offered);
    };
    // Settle cancellations issued at the final boundary so wasted-work
    // accounting below sees them.
    cloud.run_until(cloud.now());
    p.stats.wasted_busy_ms += cloud.cancel_stats().wasted_busy_ms - p.cancel_base_ms;
    if p.resolved < issued {
        return Err(ClientError::IncompleteRun {
            received: p.resolved as usize,
            expected: issued as usize,
            completions: Vec::new(),
        });
    }
    let winners = (issued - p.stats.abandoned - p.stats.failed_logical) as usize;
    let duration = cloud.now() - start;
    let mut result = collector.finish(winners, duration, offered)?;
    result.policy = Some(p.stats);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use policy::spec::ThresholdSpec;
    use workload::spec::WorkloadSpec;

    use crate::client::{run_workload, run_workload_spec, ClientError, MeasureSpec};
    use crate::config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
    use crate::deployer::{deploy, Deployment};
    use faas_sim::cloud::CloudSim;
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;
    use policy::PolicySpec;

    fn setup(cfg: &RuntimeConfig) -> (CloudSim, Deployment) {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud = CloudSim::new(test_provider(), 7);
        let d = deploy(&mut cloud, &static_cfg, cfg).unwrap();
        (cloud, d)
    }

    fn open_spec() -> WorkloadSpec {
        WorkloadSpec::from_json(r#"{"arrival": {"kind": "exponential", "mean_ms": 400.0}}"#)
            .unwrap()
    }

    #[test]
    fn arrival_gaps_past_the_clock_range_are_invalid_config() {
        let cfg = RuntimeConfig::single(IatSpec::short(), 10);
        for json in [
            r#"{"arrival": {"kind": "exponential", "mean_ms": 1e308}}"#,
            r#"{"arrival": {"kind": "exponential", "mean_ms": 1e308},
                "mode": {"mode": "closed", "concurrency": 2}}"#,
        ] {
            let spec = WorkloadSpec::from_json(json).unwrap();
            let (mut cloud, d) = setup(&cfg);
            let err = run_workload_spec(&mut cloud, &d, &cfg, &spec, 1, &MeasureSpec::exact())
                .unwrap_err();
            assert!(matches!(err, ClientError::InvalidConfig(_)), "{json}: got {err:?}");
        }
    }

    #[test]
    fn legacy_driver_rejects_policies() {
        let cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        let (mut cloud, d) = setup(&cfg);
        let err = run_workload(&mut cloud, &d, &cfg, 1).unwrap_err();
        assert!(matches!(err, ClientError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn hedge_fires_on_every_slow_request_and_loses_to_the_primary() {
        // 300 ms execution means every request exceeds a 200 ms static
        // hedge threshold; the hedge starts 200 ms behind and can never
        // win, so it is cancelled mid-flight every time.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 40)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 2;
        cfg.exec_ms = 300.0;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 3, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 40);
        let stats = result.policy.expect("policy runs report stats");
        assert_eq!(stats.logical, 42);
        assert_eq!(stats.extra_launches, 42, "every request hedged");
        assert!(stats.cancels >= 42, "every hedge was cancelled");
        assert_eq!(stats.abandoned, 0);
        assert!(stats.wasted_busy_ms > 0.0, "cancelled hedges burned instance time");
        assert!(stats.used_busy_ms > stats.wasted_busy_ms, "winners ran to completion");
        // Latency samples come from winners only: ~340 ms, not 540.
        for ms in result.latencies_ms() {
            assert!(ms < 520.0, "hedge must not pollute samples, got {ms}");
        }
    }

    #[test]
    fn fast_requests_never_hedge() {
        // Threshold above even the cold-start latency (~280 ms on the
        // test provider), so no request in the run crosses it.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Hedge {
            threshold: ThresholdSpec::Static { ms: 500.0 },
            max_hedges: 1,
        });
        cfg.warmup_rounds = 2;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 5, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 30);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 0, "warm 40 ms requests stay under 200 ms");
        assert_eq!(stats.cancels, 0);
        assert_eq!(stats.duplicate_successes, 0);
        assert_eq!(stats.wasted_busy_ms, 0.0);
    }

    #[test]
    fn deadline_abandons_requests_that_cannot_finish() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::Deadline { deadline_ms: 100.0 });
        cfg.exec_ms = 500.0; // every request takes ~540 ms > 100 ms
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 9, &MeasureSpec::exact())
                .unwrap();
        let stats = result.policy.unwrap();
        assert_eq!(stats.abandoned, 10, "no request can meet the deadline");
        assert_eq!(result.completions.len(), 0, "abandoned requests produce no samples");
        assert_eq!(result.measured_count, 0);
        assert!(stats.wasted_busy_ms > 0.0, "abandoned work is accounted as waste");
    }

    #[test]
    fn tied_requests_duplicate_and_keep_one_sample_per_arrival() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 25).with_policy(PolicySpec::Tied { copies: 2 });
        cfg.warmup_rounds = 5;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 13, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 25, "one sample per logical request");
        assert_eq!(result.warmup_completions.len(), 5);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 30, "one tied copy per arrival");
        // Warm tied copies finish within the same slice as the winner:
        // the winner's cancel is issued after the loser already
        // completed, so every loser is a futile cancel plus a duplicate
        // success.
        assert_eq!(stats.cancels, 30, "every loser gets a (possibly futile) cancel");
        assert!(
            stats.duplicate_successes >= 1,
            "same-slice losers complete before their cancel lands: {stats:?}"
        );
        assert!(stats.wasted_busy_ms > 0.0);
    }

    #[test]
    fn closed_loop_thinks_once_per_logical_request() {
        // The coordinated-omission regression: a winning duplicate must
        // not credit an extra think-time gap. One gap is sampled per
        // logical resolution, so offered arrivals equal the requested
        // total even when every request launches two attempts.
        let total = 30u32;
        let mut cfg = RuntimeConfig::single(IatSpec::short(), total)
            .with_policy(PolicySpec::Tied { copies: 2 });
        cfg.warmup_rounds = 0;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "fixed", "ms": 50.0},
                "mode": {"mode": "closed", "concurrency": 4}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 21, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), total as usize);
        let offered = result.offered.expect("policy runs report offered load");
        assert_eq!(
            offered.arrivals,
            u64::from(total),
            "one arrival per logical request, never per physical attempt"
        );
        let stats = result.policy.unwrap();
        assert_eq!(stats.logical, u64::from(total));
        assert_eq!(stats.extra_launches, u64::from(total), "tied-2 doubles every request");
        assert!(
            stats.duplicate_successes >= 1,
            "warm tied copies race the winner into the same batch: {stats:?}"
        );
    }

    #[test]
    fn policy_runs_measure_only_the_winning_attempts_transfers() {
        // One transfer per hop of each measured sample, as without a
        // policy: tied-2 used to count its losing copy's transfers too.
        // The three-hop chain's second transfer comes from an internal
        // hop, which the cloud resolves to its attempt.
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] };
        let spec =
            WorkloadSpec::from_json(r#"{"arrival": {"kind": "fixed", "ms": 1000.0}}"#).unwrap();
        for (length, policy) in
            [(2, None), (2, Some("tied-2")), (2, Some("hedge-200ms")), (3, Some("tied-2"))]
        {
            let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 50);
            cfg.warmup_rounds = 2;
            cfg.chain =
                Some(ChainConfig { length, mode: TransferMode::Storage, payload_bytes: 1_000_000 });
            if let Some(name) = policy {
                cfg = cfg.with_policy(PolicySpec::preset(name).unwrap());
            }
            let mut cloud = CloudSim::new(test_provider(), 7);
            let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
            let result =
                run_workload_spec(&mut cloud, &d, &cfg, &spec, 2, &MeasureSpec::exact()).unwrap();
            assert_eq!(result.completions.len(), 50);
            let per_sample = (length - 1) as usize;
            assert_eq!(result.transfers.len(), 50 * per_sample, "{policy:?}, length {length}");
            for tr in &result.transfers {
                assert!(
                    result.completions.iter().any(|c| c.id == tr.root),
                    "{policy:?}: a transfer of an unmeasured attempt was kept"
                );
            }
        }
    }

    #[test]
    fn policy_run_waits_out_arrival_gaps_longer_than_the_stall_limit() {
        // Two hours between arrivals is 7200 idle 1 s boundaries. With
        // nothing outstanding that is waiting, not a stall: the run used
        // to stop after 3600 of them and report no request at all.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 3)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 0;
        let spec =
            WorkloadSpec::from_json(r#"{"arrival": {"kind": "fixed", "ms": 7200000.0}}"#).unwrap();
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 1, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), 3);
        assert_eq!(result.offered.unwrap().arrivals, 3);
    }

    #[test]
    fn policy_run_is_deterministic_and_seed_sensitive() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Compose {
                parts: vec![
                    PolicySpec::Hedge {
                        threshold: ThresholdSpec::Static { ms: 150.0 },
                        max_hedges: 1,
                    },
                    PolicySpec::Deadline { deadline_ms: 5_000.0 },
                ],
            });
        cfg.warmup_rounds = 3;
        cfg.exec_ms = 120.0;
        let run = |seed: u64| {
            let (mut cloud, d) = setup(&cfg);
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), seed, &MeasureSpec::exact())
                .unwrap()
                .latencies_ms()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn streaming_policy_run_matches_keep_samples_run() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 60)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 5;
        cfg.exec_ms = 250.0;
        let (mut cloud_a, d_a) = setup(&cfg);
        let exact =
            run_workload_spec(&mut cloud_a, &d_a, &cfg, &open_spec(), 17, &MeasureSpec::exact())
                .unwrap();
        let (mut cloud_b, d_b) = setup(&cfg);
        let streaming =
            run_workload_spec(&mut cloud_b, &d_b, &cfg, &open_spec(), 17, &MeasureSpec::sketch())
                .unwrap();
        assert_eq!(streaming.measured_count, exact.completions.len() as u64);
        assert_eq!(streaming.policy, exact.policy, "accounting is measure-independent");
        let agg = streaming.latency_agg.clone();
        let lat = exact.latencies_ms();
        assert_eq!(agg.mean(), lat.iter().sum::<f64>() / lat.len() as f64);
    }
}
