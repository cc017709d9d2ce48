use std::fmt;
use vbs_arch::Rect;

/// Errors produced by the run-time reconfiguration layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// No task with this name exists in the repository.
    UnknownTask {
        /// The requested task name.
        name: String,
    },
    /// No handle with this identifier is currently loaded.
    UnknownHandle {
        /// The stale handle identifier.
        id: u64,
    },
    /// The requested region overlaps an already-loaded task.
    RegionBusy {
        /// The conflicting region.
        region: Rect,
    },
    /// No free region of the fabric can hold the task.
    NoFreeRegion {
        /// Task width in macros.
        width: u16,
        /// Task height in macros.
        height: u16,
    },
    /// De-virtualization failed.
    Decode(vbs_core::VbsError),
    /// Writing to the configuration memory failed.
    Memory(vbs_bitstream::BitstreamError),
    /// A configuration-memory write was refused by the fabric (injected or
    /// device-reported). Transient faults are worth retrying; persistent
    /// ones are not.
    WriteFault {
        /// The region whose write failed.
        region: Rect,
        /// Whether a retry of the same write may succeed.
        transient: bool,
    },
    /// The whole fabric is offline: every configuration-memory operation
    /// fails until it recovers.
    FabricOffline,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownTask { name } => write!(f, "unknown task `{name}`"),
            RuntimeError::UnknownHandle { id } => write!(f, "unknown task handle {id}"),
            RuntimeError::RegionBusy { region } => {
                write!(f, "region {region} overlaps a loaded task")
            }
            RuntimeError::NoFreeRegion { width, height } => {
                write!(f, "no free {width}x{height} region on the fabric")
            }
            RuntimeError::Decode(e) => write!(f, "de-virtualization failed: {e}"),
            RuntimeError::Memory(e) => write!(f, "configuration memory error: {e}"),
            RuntimeError::WriteFault { region, transient } => write!(
                f,
                "{} write fault in region {region}",
                if *transient {
                    "transient"
                } else {
                    "persistent"
                }
            ),
            RuntimeError::FabricOffline => write!(f, "fabric is offline"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Decode(e) => Some(e),
            RuntimeError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vbs_core::VbsError> for RuntimeError {
    fn from(e: vbs_core::VbsError) -> Self {
        RuntimeError::Decode(e)
    }
}

impl From<vbs_bitstream::BitstreamError> for RuntimeError {
    fn from(e: vbs_bitstream::BitstreamError) -> Self {
        RuntimeError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
        let e = RuntimeError::NoFreeRegion {
            width: 4,
            height: 5,
        };
        assert!(e.to_string().contains("4x5"));
    }
}
