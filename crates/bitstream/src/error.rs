use std::fmt;
use vbs_arch::Coord;

/// Errors produced while generating or manipulating raw bit-streams.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitstreamError {
    /// A routing edge could not be mapped to any programmable switch.
    UnmappableEdge {
        /// Human-readable description of the edge.
        edge: String,
    },
    /// The routing handed to the bit-stream generator fails the routing
    /// checker (`vbs_route::check::check_routing`).
    IllegalRouting {
        /// The checker's verdict.
        reason: String,
    },
    /// A macro coordinate lies outside the task rectangle.
    OutOfTask {
        /// The offending coordinate (device-absolute).
        at: Coord,
    },
    /// Two frames of different layouts were combined.
    LayoutMismatch,
    /// A task does not fit the device at the requested origin.
    DoesNotFit {
        /// Requested origin.
        origin: Coord,
        /// Task width.
        width: u16,
        /// Task height.
        height: u16,
    },
    /// A serialized bit-stream was truncated or has the wrong length.
    Truncated {
        /// Number of bytes expected.
        expected: usize,
        /// Number of bytes found.
        found: usize,
    },
    /// A readback verify found a frame whose contents do not match the
    /// checksum recorded when it was written.
    CrcMismatch {
        /// The corrupted frame's coordinate (device-absolute).
        at: Coord,
    },
    /// A frame run does not fit inside its store.
    RunOutOfBounds {
        /// First frame of the run.
        start: usize,
        /// Number of frames in the run.
        count: usize,
        /// Number of frames the store holds.
        frames: usize,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::UnmappableEdge { edge } => {
                write!(f, "routing edge cannot be mapped to a switch: {edge}")
            }
            BitstreamError::IllegalRouting { reason } => {
                write!(f, "illegal routing: {reason}")
            }
            BitstreamError::OutOfTask { at } => {
                write!(f, "macro {at} is outside the task rectangle")
            }
            BitstreamError::LayoutMismatch => write!(f, "frame layouts do not match"),
            BitstreamError::DoesNotFit {
                origin,
                width,
                height,
            } => write!(
                f,
                "task of {width}x{height} macros does not fit the device at origin {origin}"
            ),
            BitstreamError::Truncated { expected, found } => {
                write!(
                    f,
                    "serialized bit-stream truncated: expected {expected} bytes, found {found}"
                )
            }
            BitstreamError::CrcMismatch { at } => {
                write!(f, "frame {at} failed its readback checksum")
            }
            BitstreamError::RunOutOfBounds {
                start,
                count,
                frames,
            } => write!(
                f,
                "frame run {start}..{start}+{count} exceeds a store of {frames} frames"
            ),
        }
    }
}

impl std::error::Error for BitstreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitstreamError>();
        let e = BitstreamError::Truncated {
            expected: 10,
            found: 3,
        };
        assert!(e.to_string().contains("expected 10"));
    }
}
