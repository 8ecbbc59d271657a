//! ASCII timeline of a global update — when each node started, closed
//! (paper's link-state rule) and saw the update complete. The textual
//! stand-in for the demo's per-update report screens.

use codb_core::{NetworkReport, UpdateId};
use codb_net::SimTime;
use std::fmt::Write as _;

/// Renders a per-node Gantt bar chart for `update` from the collected
/// node reports. `width` is the bar area in characters.
///
/// Legend: `░` open (working), `▓` closed early (paper's rule), from the
/// update's completion on the bar ends; `S` marks the start.
pub fn render_timeline(report: &NetworkReport, update: UpdateId, width: usize) -> String {
    let mut rows: Vec<(String, SimTime, Option<SimTime>, Option<SimTime>)> = Vec::new();
    let mut t_min = SimTime(u64::MAX);
    let mut t_max = SimTime::ZERO;
    for (id, node) in &report.nodes {
        let Some(r) = node.updates.get(&update) else { continue };
        t_min = t_min.min(r.started_at);
        if let Some(f) = r.closed_at.max(r.completed_at) {
            t_max = t_max.max(f);
        }
        rows.push((id.to_string(), r.started_at, r.closed_at, r.completed_at));
    }
    if rows.is_empty() {
        return format!("no node saw update {update}\n");
    }
    let span = t_max.saturating_sub(t_min).as_nanos().max(1);
    let scale = |t: SimTime| -> usize {
        ((t.saturating_sub(t_min).as_nanos() as u128 * width as u128) / span as u128)
            .min(width as u128) as usize
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "update {update}: {} → {} ({} total)",
        t_min,
        t_max,
        t_max.saturating_sub(t_min)
    );
    for (name, started, closed, completed) in rows {
        let s = scale(started);
        let c = closed.map(&scale).unwrap_or(width);
        let f = completed.map(&scale).unwrap_or(width);
        let mut bar = String::with_capacity(width + 1);
        for x in 0..width {
            bar.push(if x < s {
                ' '
            } else if x == s {
                'S'
            } else if x < c {
                '░'
            } else if x < f {
                '▓'
            } else if x == f.max(c) {
                '|'
            } else {
                ' '
            });
        }
        let _ = writeln!(out, "{name:>6} {bar}");
    }
    let _ = writeln!(out, "       S=start ░=open ▓=closed(early) |=completion");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use codb_core::{CoDbNetwork, NetworkConfig};
    use codb_net::SimConfig;
    use codb_workload::{Scenario, Topology};

    #[test]
    fn renders_chain_timeline() {
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(4)) };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let o = net.run_update(s.sink());
        let report = net.network_report();
        let timeline = render_timeline(&report, o.update, 40);
        assert!(timeline.contains("update "));
        assert_eq!(timeline.lines().count(), 1 + 4 + 1);
        assert!(timeline.contains('S'));
        assert!(timeline.contains('░'));
    }

    #[test]
    fn unknown_update_is_reported() {
        let report = NetworkReport::default();
        let u = UpdateId { origin: codb_core::NodeId(0), epoch: 0, seq: 9 };
        assert!(render_timeline(&report, u, 20).contains("no node"));
    }

    #[test]
    fn empty_config_builds_nothing() {
        let config = NetworkConfig::default();
        assert!(config.validate().is_ok());
    }
}
