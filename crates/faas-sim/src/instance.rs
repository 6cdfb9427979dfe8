//! Function instance lifecycle state machine.
//!
//! Instances move `Booting → Idle ⇄ Busy → Dead`, with keep-alive reaping
//! from `Idle`. Each state change bumps an epoch counter, and a reap
//! applies only at the epoch of the idle transition that set its deadline.
//! Deadlines live beside the instance in a [`KeepAlive`] record, which
//! keeps at most one reap check per instance in the event queue however
//! often the instance is reused.

use simkit::time::SimTime;
use simkit::EventKey;

use crate::types::{InstanceId, RequestId};

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Boot in progress; ready at the contained time.
    Booting {
        /// When the boot completes.
        ready_at: SimTime,
    },
    /// Online and waiting for work since the contained time.
    Idle {
        /// When the instance last became idle.
        since: SimTime,
    },
    /// Executing the contained request.
    Busy {
        /// The request being served.
        request: RequestId,
    },
    /// Reaped; never used again.
    Dead,
}

/// Keep-alive deadline of one instance, stored in a table parallel to
/// the instances so that `Instance` itself stays small.
///
/// Every idle transition reserves the `(time, seq)` key a timer of its
/// own would have had, and `due` holds the latest. At most one check per
/// instance is `armed` in the event queue: one that fires before `due`
/// re-arms at `due` if the instance is still idle, so a reap lands on
/// exactly the key of the transition that set it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeepAlive {
    /// Key reserved by the latest idle transition.
    pub(crate) due: EventKey,
    /// Instance epoch at that transition: the reap applies only while the
    /// instance is still idle at it.
    pub(crate) due_epoch: u64,
    /// Key of this instance's pending check, if one is pending.
    pub(crate) armed: Option<EventKey>,
}

impl KeepAlive {
    /// The record of an instance that has never been idle (epoch 0 is the
    /// booting epoch, so `due` can never match).
    pub(crate) const NEVER_IDLE: KeepAlive =
        KeepAlive { due: EventKey { at: SimTime::ZERO, seq: 0 }, due_epoch: 0, armed: None };
}

/// One function instance.
#[derive(Debug, Clone)]
pub struct Instance {
    id: InstanceId,
    state: InstanceState,
    epoch: u64,
    served: u64,
    spawned_at: SimTime,
}

impl Instance {
    /// Creates an instance in the `Booting` state.
    pub fn boot(id: InstanceId, now: SimTime, ready_at: SimTime) -> Instance {
        assert!(ready_at >= now, "boot completes before it starts");
        Instance {
            id,
            state: InstanceState::Booting { ready_at },
            epoch: 0,
            served: 0,
            spawned_at: now,
        }
    }

    /// Instance identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// Epoch counter; bumps on every transition out of `Idle`/into `Idle`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Requests served by this instance.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// When the spawn began.
    pub fn spawned_at(&self) -> SimTime {
        self.spawned_at
    }

    /// Whether the instance can accept a request right now.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, InstanceState::Idle { .. })
    }

    /// Whether the instance is booting.
    pub fn is_booting(&self) -> bool {
        matches!(self.state, InstanceState::Booting { .. })
    }

    /// Whether the instance is executing a request.
    pub fn is_busy(&self) -> bool {
        matches!(self.state, InstanceState::Busy { .. })
    }

    /// Whether the instance has been reaped.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, InstanceState::Dead)
    }

    /// Boot finished: `Booting → Idle`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not booting.
    pub fn boot_complete(&mut self, now: SimTime) {
        assert!(self.is_booting(), "boot_complete on {:?}", self.state);
        self.state = InstanceState::Idle { since: now };
        self.epoch += 1;
    }

    /// Work assigned: `Idle → Busy`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not idle.
    pub fn assign(&mut self, request: RequestId) {
        assert!(self.is_idle(), "assign on {:?}", self.state);
        self.state = InstanceState::Busy { request };
        self.epoch += 1;
        self.served += 1;
    }

    /// Work finished: `Busy → Idle`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy with `request`.
    pub fn release(&mut self, request: RequestId, now: SimTime) {
        match self.state {
            InstanceState::Busy { request: current } if current == request => {
                self.state = InstanceState::Idle { since: now };
                self.epoch += 1;
            }
            _ => panic!("release({request}) on {:?}", self.state),
        }
    }

    /// Boot failure: `Booting → Dead` (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if the instance is not booting.
    pub fn fail_boot(&mut self) {
        assert!(self.is_booting(), "fail_boot on {:?}", self.state);
        self.state = InstanceState::Dead;
        self.epoch += 1;
    }

    /// Mid-execution crash: `Busy → Dead` (fault injection). The request
    /// being served dies with the instance; its result is lost.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy with `request`.
    pub fn crash(&mut self, request: RequestId) {
        match self.state {
            InstanceState::Busy { request: current } if current == request => {
                self.state = InstanceState::Dead;
                self.epoch += 1;
            }
            _ => panic!("crash({request}) on {:?}", self.state),
        }
    }

    /// Keep-alive expiry: `Idle → Dead`, but only if the epoch still
    /// matches (otherwise the instance was reused and the reap is stale).
    /// Returns whether the instance died.
    pub fn try_reap(&mut self, epoch: u64) -> bool {
        if self.is_idle() && self.epoch == epoch {
            self.state = InstanceState::Dead;
            self.epoch += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FunctionId;

    fn iid() -> InstanceId {
        InstanceId { function: FunctionId(0), idx: 0 }
    }

    fn rid(n: u64) -> RequestId {
        RequestId(n)
    }

    const MS: fn(f64) -> SimTime = SimTime::from_millis;

    #[test]
    fn full_lifecycle() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(100.0));
        assert!(inst.is_booting());
        inst.boot_complete(MS(100.0));
        assert!(inst.is_idle());
        inst.assign(rid(1));
        assert!(inst.is_busy());
        inst.release(rid(1), MS(150.0));
        assert!(inst.is_idle());
        assert_eq!(inst.served(), 1);
    }

    #[test]
    fn reap_only_when_epoch_matches() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        let epoch = inst.epoch();
        inst.assign(rid(1));
        inst.release(rid(1), MS(20.0));
        // Reap scheduled while idle at `epoch` is stale now.
        assert!(!inst.try_reap(epoch));
        assert!(!inst.is_dead());
        // Reap with the current epoch succeeds.
        assert!(inst.try_reap(inst.epoch()));
        assert!(inst.is_dead());
    }

    #[test]
    fn reap_on_busy_is_ignored() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        let epoch = inst.epoch();
        inst.assign(rid(1));
        assert!(!inst.try_reap(epoch));
        assert!(inst.is_busy());
    }

    #[test]
    #[should_panic(expected = "assign")]
    fn assign_while_booting_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.assign(rid(1));
    }

    #[test]
    #[should_panic(expected = "release")]
    fn release_wrong_request_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1));
        inst.release(rid(2), MS(20.0));
    }

    #[test]
    fn crash_kills_busy_instance() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1));
        let epoch = inst.epoch();
        inst.crash(rid(1));
        assert!(inst.is_dead());
        assert!(inst.epoch() > epoch, "crash must invalidate pending reaps");
    }

    #[test]
    #[should_panic(expected = "crash")]
    fn crash_wrong_request_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1));
        inst.crash(rid(2));
    }

    #[test]
    fn epoch_advances_on_transitions() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        let e0 = inst.epoch();
        inst.boot_complete(MS(10.0));
        let e1 = inst.epoch();
        inst.assign(rid(1));
        let e2 = inst.epoch();
        assert!(e0 < e1 && e1 < e2);
    }
}
