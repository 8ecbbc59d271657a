//! Network construction: [`SimBuilder`].
//!
//! A harness registers its peers' ids and hands the builder one factory;
//! the builder spawns a peer per id, in registration order:
//!
//! ```ignore
//! let mut net = SimBuilder::new(config)
//!     .peers(ids)
//!     .spawn(|id| MyPeer::new(id));
//! net.open_pipe(a, b, PipeConfig::lan()); // where the harness wires pipes
//! ```
//!
//! coDB nodes open their own pipes as they start, so a coDB network needs
//! no more than this. Construction order is deterministic: two builds from
//! the same ids schedule identical event sequences.

use crate::peer::{Payload, Peer, PeerId};
use crate::sim::{SimConfig, SimNet};

/// Builder for a [`SimNet`] of registered peers; see the module docs.
#[derive(Clone, Debug)]
pub struct SimBuilder {
    config: SimConfig,
    peers: Vec<PeerId>,
}

impl SimBuilder {
    /// Starts a build with the given simulator configuration.
    pub fn new(config: SimConfig) -> Self {
        SimBuilder { config, peers: Vec::new() }
    }

    /// Registers peers, in order; an id already registered is not
    /// registered again.
    pub fn peers(mut self, ids: impl IntoIterator<Item = PeerId>) -> Self {
        for id in ids {
            if !self.peers.contains(&id) {
                self.peers.push(id);
            }
        }
        self
    }

    /// Materializes the network: spawns each registered peer via
    /// `make_peer` (in registration order) and returns the [`SimNet`] —
    /// started peers have their `on_start` events queued, nothing has run
    /// yet.
    pub fn spawn<M, P, F>(self, mut make_peer: F) -> SimNet<M, P>
    where
        M: Payload,
        P: Peer<M>,
        F: FnMut(PeerId) -> P,
    {
        let mut net = SimNet::new(self.config);
        for &id in &self.peers {
            let peer = make_peer(id);
            net.add_peer(id, peer);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::PipeConfig;
    use crate::sim::tests_support::{Echo, Msg};

    /// Echo peers forwarding along the chain `0 → 1 → … → last`.
    fn forwarder(last: u64) -> impl FnMut(PeerId) -> Echo {
        move |id| Echo { forward: (id.0 < last).then(|| PeerId(id.0 + 1)), ..Default::default() }
    }

    /// Opens the directed ring `0 → 1 → … → n-1 → 0`.
    fn open_ring<M: Payload, P: Peer<M>>(net: &mut SimNet<M, P>, n: u64) {
        for i in 0..n {
            net.open_pipe(PeerId(i), PeerId((i + 1) % n), PipeConfig::lan());
        }
    }

    #[test]
    fn builder_wires_a_ring() {
        let mut net: SimNet<Msg, Echo> =
            SimBuilder::new(SimConfig::default()).peers((0..4).map(PeerId)).spawn(forwarder(3));
        open_ring(&mut net, 4);
        for i in 0..4u64 {
            assert!(net.has_pipe(PeerId(i), PeerId((i + 1) % 4)));
            assert!(net.has_pipe(PeerId((i + 1) % 4), PeerId(i)), "pipes are bidirectional");
        }
        net.inject(PeerId(99), PeerId(0), Msg(7));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 4, "inject + three forward hops");
        assert_eq!(net.peer(PeerId(3)).unwrap().got, vec![7]);
    }

    #[test]
    fn builder_matches_hand_rolled_construction() {
        let build = |use_builder: bool| {
            let mut net: SimNet<Msg, Echo> = if use_builder {
                SimBuilder::new(SimConfig::default()).peers((0..5).map(PeerId)).spawn(forwarder(4))
            } else {
                let mut net = SimNet::new(SimConfig::default());
                let mut make = forwarder(4);
                for i in 0..5 {
                    net.add_peer(PeerId(i), make(PeerId(i)));
                }
                net
            };
            open_ring(&mut net, 5);
            let (tracer, recorded) = codb_trace::Tracer::ring(usize::MAX);
            net.attach_tracer(tracer);
            net.inject(PeerId(99), PeerId(0), Msg(1));
            net.run_until_quiescent();
            let events = recorded.lock().unwrap().events();
            (net.now(), net.stats(), events)
        };
        assert_eq!(build(true), build(false), "builder must not change the schedule");
    }

    #[test]
    fn extra_peers_and_explicit_pipes() {
        let mut spawned = Vec::new();
        let mut net: SimNet<Msg, Echo> = SimBuilder::new(SimConfig::default())
            .peers([PeerId(0), PeerId(1)])
            .peers([PeerId(1), PeerId(7)])
            .spawn(|id| {
                spawned.push(id);
                Echo {
                    forward: match id.0 {
                        0 => Some(PeerId(1)),
                        1 => Some(PeerId(7)),
                        _ => None,
                    },
                    ..Default::default()
                }
            });
        assert_eq!(spawned, [PeerId(0), PeerId(1), PeerId(7)], "each id once, in order");
        net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan());
        net.open_pipe(PeerId(1), PeerId(7), PipeConfig::wan());
        net.inject(PeerId(99), PeerId(0), Msg(2));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 3, "message crosses the explicit pipe too");
        assert_eq!(net.peer(PeerId(7)).unwrap().got, vec![2]);
    }
}
