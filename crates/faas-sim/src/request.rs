//! Invocation requests, completions and per-component breakdowns.
//!
//! Every invocation carries a [`Breakdown`] mirroring the nine-step
//! lifecycle of the paper's Fig 1, so experiments can attribute latency to
//! individual infrastructure components the way STeLLAR's intra-function
//! instrumentation does (§IV).

use serde::{Deserialize, Serialize};
use simkit::time::SimTime;

use crate::types::{FunctionId, RequestId, TransferMode};

/// Where a request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOrigin {
    /// Issued by the benchmarking client over the WAN.
    External,
    /// Issued by another function inside the datacenter (chain hop).
    Internal {
        /// The invoking (parent) request.
        parent: RequestId,
    },
}

impl RequestOrigin {
    /// Whether the request entered through the WAN.
    pub fn is_external(self) -> bool {
        matches!(self, RequestOrigin::External)
    }
}

/// Cold-start stage durations (Fig 1 steps ③–⑤ plus runtime init).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ColdBreakdown {
    /// Cluster-scheduler decision latency, ms.
    pub decision_ms: f64,
    /// Wait for spawn throughput (token bucket), ms.
    pub spawn_wait_ms: f64,
    /// Sandbox boot, ms.
    pub sandbox_ms: f64,
    /// Image fetch from storage (possibly overlapped with boot), ms.
    pub image_fetch_ms: f64,
    /// Extra lazy chunk fetches (container deployments), ms.
    pub chunk_fetch_ms: f64,
    /// Language runtime initialisation, ms.
    pub runtime_init_ms: f64,
    /// User handler initialisation, ms.
    pub handler_init_ms: f64,
    /// Total wall-clock boot duration, ms (accounts for overlap).
    pub total_ms: f64,
}

/// Per-request latency attribution, all in milliseconds.
///
/// `Copy` (13 `f64`s plus the optional cold decomposition) so the request
/// arena can move breakdowns between its cold side-array and completions
/// without drop glue.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Client→datacenter propagation (0 for internal requests).
    pub prop_out_ms: f64,
    /// Front-end processing (step ①).
    pub frontend_ms: f64,
    /// Load-balancer routing decision (step ②).
    pub routing_ms: f64,
    /// Serial dispatch wait during bursts.
    pub dispatch_wait_ms: f64,
    /// Inline payload transmission into the datacenter.
    pub inline_transfer_ms: f64,
    /// Wait from entering the function's pending queue (or triggering a
    /// dedicated spawn) until an instance picked the request up (step ③).
    /// For cold requests this *includes* the instance boot time.
    pub queue_wait_ms: f64,
    /// Cold-start stage attribution for the boot this request waited on.
    /// Informational decomposition of (part of) `queue_wait_ms`; not added
    /// again by [`Breakdown::total_ms`].
    pub cold: Option<ColdBreakdown>,
    /// Steering to the instance (steps ⑥–⑦).
    pub steer_ms: f64,
    /// In-instance handling overhead around user code.
    pub handling_ms: f64,
    /// Storage GET to retrieve the caller's payload (step ⑧).
    pub payload_get_ms: f64,
    /// User code execution (busy spin).
    pub exec_ms: f64,
    /// Storage PUT of an outgoing payload plus downstream invocation
    /// round-trip (step ⑨), if the function chains.
    pub chain_ms: f64,
    /// Response path (datacenter internal).
    pub response_ms: f64,
    /// Datacenter→client propagation (0 for internal requests).
    pub prop_back_ms: f64,
}

impl Breakdown {
    /// Sum of every wall-clock component, ms. Equals end-to-end latency
    /// (the simulator's conservation-law tests rely on this). The cold
    /// breakdown is *not* added: it decomposes time already counted in
    /// `queue_wait_ms`.
    pub fn total_ms(&self) -> f64 {
        self.prop_out_ms
            + self.frontend_ms
            + self.routing_ms
            + self.dispatch_wait_ms
            + self.inline_transfer_ms
            + self.queue_wait_ms
            + self.steer_ms
            + self.handling_ms
            + self.payload_get_ms
            + self.exec_ms
            + self.chain_ms
            + self.response_ms
            + self.prop_back_ms
    }

    /// Infrastructure-only latency: total minus user execution and chain
    /// round-trip.
    pub fn infra_ms(&self) -> f64 {
        self.total_ms() - self.exec_ms - self.chain_ms
    }
}

/// A finished invocation as observed by the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The request.
    pub id: RequestId,
    /// The invoked function.
    pub function: FunctionId,
    /// User-assigned tag (round number, burst position, …).
    pub tag: u64,
    /// Origin of the request.
    pub origin: RequestOrigin,
    /// When the client issued the request.
    pub issued_at: SimTime,
    /// When the response reached the client.
    pub completed_at: SimTime,
    /// Whether the request waited on a cold start.
    pub cold: bool,
    /// Per-component attribution.
    pub breakdown: Breakdown,
    /// Provider-style error code when the invocation failed (429
    /// throttle, 500 crash, 503 shed); `None` for a successful response.
    #[serde(default)]
    pub error: Option<u16>,
}

impl Completion {
    /// End-to-end latency in milliseconds, as the client measures it.
    pub fn latency_ms(&self) -> f64 {
        (self.completed_at - self.issued_at).as_millis()
    }

    /// Whether the invocation succeeded (no provider error).
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One per-stage latency sample of a workflow run: the function a hop
/// (or the workflow root) ran in and its own share of the latency,
/// `total − chain` ms — the downstream round trip it waited on is
/// excluded, so stages don't double-count their subtrees. Sixteen bytes
/// in place of a whole [`Completion`] per hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample {
    /// The function the stage ran in.
    pub function: FunctionId,
    /// Stage latency, ms.
    pub ms: f64,
}

const _: () = assert!(std::mem::size_of::<StageSample>() == 16);

impl StageSample {
    /// The stage sample of a finished request with breakdown `b`.
    pub fn of(function: FunctionId, b: &Breakdown) -> StageSample {
        StageSample { function, ms: b.total_ms() - b.chain_ms }
    }
}

/// One cross-function data transfer measurement, mirroring the paper's
/// intra-function timestamp methodology (§V): from the producer starting to
/// send until the consumer holds the payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferSample {
    /// The producer's (parent) request.
    pub parent: RequestId,
    /// The external request whose workflow carried the transfer: `parent`
    /// itself on a two-hop chain, the entry request on longer chains and
    /// DAGs.
    pub root: RequestId,
    /// User tag of the parent request.
    pub parent_tag: u64,
    /// Transport used.
    pub mode: TransferMode,
    /// Payload size, bytes.
    pub payload_bytes: u64,
    /// Producer-side send start (first timestamp).
    pub send_start: SimTime,
    /// Consumer-side payload-retrieved instant (second timestamp).
    pub received: SimTime,
}

impl TransferSample {
    /// Effective transfer time, ms.
    pub fn transfer_ms(&self) -> f64 {
        (self.received - self.send_start).as_millis()
    }

    /// Effective bandwidth in decimal megabytes per second.
    pub fn bandwidth_mbps(&self) -> f64 {
        let secs = (self.received - self.send_start).as_secs();
        if secs > 0.0 {
            self.payload_bytes as f64 / 1e6 / secs
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_components() {
        let b = Breakdown {
            prop_out_ms: 10.0,
            frontend_ms: 2.0,
            routing_ms: 1.0,
            dispatch_wait_ms: 3.0,
            inline_transfer_ms: 4.0,
            queue_wait_ms: 105.0, // includes a 100ms boot
            cold: Some(ColdBreakdown { total_ms: 100.0, ..ColdBreakdown::default() }),
            steer_ms: 1.5,
            handling_ms: 2.5,
            payload_get_ms: 6.0,
            exec_ms: 50.0,
            chain_ms: 20.0,
            response_ms: 2.0,
            prop_back_ms: 10.0,
        };
        assert_eq!(b.total_ms(), 217.0);
        assert_eq!(b.infra_ms(), 147.0);
    }

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: RequestId(1),
            function: FunctionId(0),
            tag: 0,
            origin: RequestOrigin::External,
            issued_at: SimTime::from_millis(100.0),
            completed_at: SimTime::from_millis(145.0),
            cold: false,
            breakdown: Breakdown::default(),
            error: None,
        };
        assert_eq!(c.latency_ms(), 45.0);
        assert!(c.is_ok());
        // Older serialized completions (no error field) still parse.
        let json = serde_json::to_string(&c).unwrap();
        let back: Completion = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn transfer_sample_bandwidth() {
        let s = TransferSample {
            parent: RequestId(0),
            root: RequestId(0),
            parent_tag: 0,
            mode: TransferMode::Storage,
            payload_bytes: 1_000_000,
            send_start: SimTime::ZERO,
            received: SimTime::from_millis(100.0),
        };
        assert_eq!(s.transfer_ms(), 100.0);
        assert_eq!(s.bandwidth_mbps(), 10.0); // 1 MB in 0.1 s
    }

    #[test]
    fn zero_duration_transfer_has_infinite_bandwidth() {
        let s = TransferSample {
            parent: RequestId(0),
            root: RequestId(0),
            parent_tag: 0,
            mode: TransferMode::Inline,
            payload_bytes: 1,
            send_start: SimTime::ZERO,
            received: SimTime::ZERO,
        };
        assert!(s.bandwidth_mbps().is_infinite());
    }

    #[test]
    fn origin_kinds() {
        assert!(RequestOrigin::External.is_external());
        assert!(!RequestOrigin::Internal { parent: RequestId(4) }.is_external());
    }
}
