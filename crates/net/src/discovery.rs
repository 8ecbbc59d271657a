//! Advertisement & discovery — the JXTA facility coDB uses so a node can
//! show "which other nodes (not acquaintances) it has discovered".
//!
//! Peers publish [`Advertisement`]s on a network-wide board (the analogue
//! of JXTA's rendezvous/advertisement caches) and read a snapshot of the
//! board from their callback [`crate::peer::Context`].
//!
//! The board *is* its snapshot: one sorted, reference-counted list that
//! the runtimes hand to every callback as-is. Dispatching an event never
//! copies it; a change edits it in place unless a callback on another
//! thread still holds the previous version, in which case that one change
//! pays for one copy.

use crate::peer::PeerId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What kind of resource an advertisement describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdKind {
    /// A peer announcing its presence.
    Peer,
    /// A named service offered by a peer (e.g. coDB's super-peer service).
    Service,
}

/// One advertisement. Ordered by `(peer, kind, name)` — the board's
/// (and therefore every snapshot's) order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Advertisement {
    /// Publishing peer.
    pub peer: PeerId,
    /// Resource kind.
    pub kind: AdKind,
    /// Resource name (e.g. `"codb-node"`, `"super-peer"`).
    pub name: String,
}

impl Advertisement {
    /// A plain peer advertisement.
    pub fn peer(peer: PeerId, name: impl Into<String>) -> Self {
        Advertisement { peer, kind: AdKind::Peer, name: name.into() }
    }

    /// A service advertisement.
    pub fn service(peer: PeerId, name: impl Into<String>) -> Self {
        Advertisement { peer, kind: AdKind::Service, name: name.into() }
    }
}

/// The network-wide advertisement board. One entry per (peer, kind, name);
/// re-advertising is idempotent. Entries of a peer vanish when it leaves.
#[derive(Clone, Debug, Default)]
pub struct Board {
    /// Sorted, duplicate-free. Shared with the contexts of callbacks in
    /// flight, so every mutation goes through [`Arc::make_mut`].
    ads: Arc<Vec<Advertisement>>,
}

impl Board {
    /// Empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an advertisement (idempotent: re-publishing leaves the
    /// shared snapshot untouched).
    pub fn publish(&mut self, ad: Advertisement) {
        if let Err(pos) = self.ads.binary_search(&ad) {
            Arc::make_mut(&mut self.ads).insert(pos, ad);
        }
    }

    /// Removes all advertisements of `peer` (peer left the network).
    pub fn retract_peer(&mut self, peer: PeerId) {
        if self.ads.iter().any(|a| a.peer == peer) {
            Arc::make_mut(&mut self.ads).retain(|a| a.peer != peer);
        }
    }

    /// Current snapshot, ordered deterministically.
    pub fn snapshot(&self) -> &[Advertisement] {
        &self.ads
    }

    /// The current snapshot as a shared handle, for a runtime that cannot
    /// keep the board borrowed while a callback runs. O(1); later changes
    /// to the board are not visible through it.
    pub fn shared(&self) -> Arc<Vec<Advertisement>> {
        Arc::clone(&self.ads)
    }

    /// Advertisements matching a kind and name.
    pub fn find(&self, kind: AdKind, name: &str) -> Vec<&Advertisement> {
        self.ads.iter().filter(|a| a.kind == kind && a.name == name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_idempotent() {
        let mut b = Board::new();
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        assert_eq!(b.snapshot().len(), 1);
    }

    #[test]
    fn retract_removes_all_of_peer() {
        let mut b = Board::new();
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        b.publish(Advertisement::service(PeerId(1), "super-peer"));
        b.publish(Advertisement::peer(PeerId(2), "codb-node"));
        b.retract_peer(PeerId(1));
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(b.snapshot()[0].peer, PeerId(2));
    }

    #[test]
    fn many_publishes_in_any_order_equal_the_sorted_set() {
        // 10 000 publishes in a scrambled order (with every tenth repeated)
        // followed by one read: the same list an eager sort-and-dedup
        // gives.
        let n = 10_000u64;
        let ad = |i: u64| {
            let id = PeerId(i * 7919 % n);
            if i.is_multiple_of(3) {
                Advertisement::service(id, "super-peer")
            } else {
                Advertisement::peer(id, "codb-node")
            }
        };
        let mut b = Board::new();
        for i in 0..n {
            b.publish(ad(i));
            if i.is_multiple_of(10) {
                b.publish(ad(i));
            }
        }
        let mut eager: Vec<Advertisement> = (0..n).map(ad).collect();
        eager.sort();
        eager.dedup();
        assert_eq!(eager.len(), n as usize);
        assert_eq!(b.snapshot(), eager);
    }

    #[test]
    fn unchanged_board_keeps_its_shared_snapshot() {
        let mut b = Board::new();
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        b.publish(Advertisement::peer(PeerId(2), "codb-node"));
        let held = b.shared();
        // Re-publishing an identical ad and retracting an absent peer are
        // not changes: the handle still is the board's snapshot.
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        b.retract_peer(PeerId(9));
        assert!(Arc::ptr_eq(&held, &b.shared()));
        assert_eq!(held.as_ptr(), b.snapshot().as_ptr());
        // A real change leaves the held snapshot as it was.
        b.publish(Advertisement::peer(PeerId(3), "codb-node"));
        assert_eq!(held.len(), 2);
        assert_eq!(b.snapshot().len(), 3);
    }

    #[test]
    fn find_filters_kind_and_name() {
        let mut b = Board::new();
        b.publish(Advertisement::peer(PeerId(1), "codb-node"));
        b.publish(Advertisement::service(PeerId(2), "super-peer"));
        assert_eq!(b.find(AdKind::Service, "super-peer").len(), 1);
        assert_eq!(b.find(AdKind::Peer, "super-peer").len(), 0);
        assert_eq!(b.find(AdKind::Peer, "codb-node")[0].peer, PeerId(1));
    }
}
