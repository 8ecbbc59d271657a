//! Pipes: point-to-point communication links between peers.
//!
//! JXTA pipes are the paper's communication primitive: "creation of
//! communication links between peers (called pipes); … sending messages
//! onto pipes". Our pipes carry a latency / bandwidth / loss model so the
//! simulator can stand in for networks ranging from a LAN to a flaky
//! wide-area overlay.

use crate::time::SimTime;
use serde::Serialize;

/// Transmission parameters of one pipe (applied per direction).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PipeConfig {
    /// Propagation delay added to every message.
    pub latency: SimTime,
    /// Serialization rate; `None` models infinite bandwidth.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Independent per-message drop probability in `[0, 1)`.
    pub loss: f64,
}

impl PipeConfig {
    /// A fast, reliable LAN-like pipe: 1 ms latency, infinite bandwidth,
    /// no loss.
    pub fn lan() -> Self {
        PipeConfig { latency: SimTime::from_millis(1), bandwidth_bytes_per_sec: None, loss: 0.0 }
    }

    /// A WAN-like pipe: 40 ms latency, 10 MB/s, no loss.
    pub fn wan() -> Self {
        PipeConfig {
            latency: SimTime::from_millis(40),
            bandwidth_bytes_per_sec: Some(10_000_000),
            loss: 0.0,
        }
    }

    /// Builder: override latency.
    pub fn with_latency(mut self, latency: SimTime) -> Self {
        self.latency = latency;
        self
    }

    /// Builder: override loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder: override bandwidth.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Time to serialize `bytes` onto the wire under this config.
    pub fn transmission_time(&self, bytes: usize) -> SimTime {
        match self.bandwidth_bytes_per_sec {
            None => SimTime::ZERO,
            Some(bw) => {
                let nanos = (bytes as u128 * 1_000_000_000u128) / bw.max(1) as u128;
                SimTime(nanos as u64)
            }
        }
    }
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig::lan()
    }
}

/// Runtime state of a pipe direction: when its transmitter becomes free
/// (for the bandwidth model).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipeState {
    /// The pipe's transmitter is busy until this instant.
    pub busy_until: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_scales_with_size() {
        let p = PipeConfig::lan().with_bandwidth(1_000_000); // 1 MB/s
        assert_eq!(p.transmission_time(1_000_000), SimTime::from_secs(1));
        assert_eq!(p.transmission_time(0), SimTime::ZERO);
    }

    #[test]
    fn infinite_bandwidth_is_instant() {
        assert_eq!(PipeConfig::lan().transmission_time(1 << 30), SimTime::ZERO);
    }

    #[test]
    fn presets() {
        assert_eq!(PipeConfig::lan().latency, SimTime::from_millis(1));
        assert_eq!(PipeConfig::wan().latency, SimTime::from_millis(40));
        assert!(PipeConfig::wan().bandwidth_bytes_per_sec.is_some());
    }

    #[test]
    fn builders_compose() {
        let p = PipeConfig::lan()
            .with_latency(SimTime::from_millis(7))
            .with_loss(0.25)
            .with_bandwidth(42);
        assert_eq!(p.latency, SimTime::from_millis(7));
        assert_eq!(p.loss, 0.25);
        assert_eq!(p.bandwidth_bytes_per_sec, Some(42));
    }
}
