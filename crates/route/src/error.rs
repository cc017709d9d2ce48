use std::fmt;
use vbs_netlist::NetId;

/// Errors produced by the router and the routing checker.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// The router could not find a legal solution within the iteration limit.
    Unroutable {
        /// Number of wires still overused when the router gave up.
        overused_wires: usize,
        /// Number of PathFinder iterations performed.
        iterations: usize,
    },
    /// A net's sink could not be reached at all (disconnected graph, e.g. a
    /// sink pin with no reachable channel).
    NoPath {
        /// The net that failed.
        net: NetId,
        /// Human-readable description of the unreachable sink.
        sink: String,
    },
    /// The placement does not cover every block of the netlist.
    PlacementIncomplete,
    /// [`crate::RouterConfig::astar_weight`] is negative, NaN or not finite
    /// once narrowed to the search's `f32`.
    InvalidAstarWeight {
        /// The rejected weight.
        weight: f64,
    },
    /// Legality check failure: a wire carries more than one net.
    CheckOveruse {
        /// Description of the overused wire.
        wire: String,
        /// Number of nets sharing it.
        nets: usize,
    },
    /// Legality check failure: a route tree uses an edge the architecture
    /// does not provide.
    CheckIllegalEdge {
        /// The net with the illegal edge.
        net: NetId,
        /// Description of the offending edge.
        edge: String,
    },
    /// Legality check failure: a sink of a net is not covered by its tree.
    CheckUnroutedSink {
        /// The net with the missing sink.
        net: NetId,
        /// Description of the missing sink.
        sink: String,
    },
    /// The minimum-channel-width search failed to route even at the upper
    /// bound of the search interval.
    McwUpperBoundTooSmall {
        /// The upper bound that was tried.
        upper_bound: u16,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable {
                overused_wires,
                iterations,
            } => write!(
                f,
                "routing did not converge: {overused_wires} overused wires after {iterations} iterations"
            ),
            RouteError::NoPath { net, sink } => {
                write!(f, "no path for net {net:?} to sink {sink}")
            }
            RouteError::PlacementIncomplete => {
                write!(f, "placement does not cover every netlist block")
            }
            RouteError::InvalidAstarWeight { weight } => {
                write!(f, "A* weight {weight} is not a finite number >= 0")
            }
            RouteError::CheckOveruse { wire, nets } => {
                write!(f, "wire {wire} carries {nets} nets")
            }
            RouteError::CheckIllegalEdge { net, edge } => {
                write!(f, "net {net:?} uses an edge the fabric does not have: {edge}")
            }
            RouteError::CheckUnroutedSink { net, sink } => {
                write!(f, "net {net:?} does not reach sink {sink}")
            }
            RouteError::McwUpperBoundTooSmall { upper_bound } => write!(
                f,
                "circuit is unroutable even at the channel-width upper bound {upper_bound}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RouteError>();
        let e = RouteError::Unroutable {
            overused_wires: 3,
            iterations: 40,
        };
        assert!(e.to_string().contains("3 overused"));
    }
}
