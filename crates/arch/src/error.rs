use std::fmt;

/// Errors produced while constructing or querying the architecture model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArchError {
    /// The requested channel width is outside the supported range.
    InvalidChannelWidth {
        /// The rejected channel width.
        width: u16,
    },
    /// The requested LUT size is outside the supported range.
    InvalidLutSize {
        /// The rejected LUT size.
        lut_size: u8,
    },
    /// The requested device dimensions are empty or too large.
    InvalidDeviceSize {
        /// Requested width in macros.
        width: u16,
        /// Requested height in macros.
        height: u16,
    },
    /// A coordinate lies outside the device grid.
    CoordOutOfBounds {
        /// The offending x coordinate.
        x: u16,
        /// The offending y coordinate.
        y: u16,
        /// Device width.
        width: u16,
        /// Device height.
        height: u16,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidChannelWidth { width } => {
                write!(f, "invalid channel width {width} (must be in 2..=256)")
            }
            ArchError::InvalidLutSize { lut_size } => {
                write!(f, "invalid LUT size {lut_size} (must be in 2..=8)")
            }
            ArchError::InvalidDeviceSize { width, height } => {
                write!(f, "invalid device size {width}x{height}")
            }
            ArchError::CoordOutOfBounds {
                x,
                y,
                width,
                height,
            } => write!(
                f,
                "coordinate ({x}, {y}) outside device grid {width}x{height}"
            ),
        }
    }
}

impl std::error::Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ArchError::InvalidChannelWidth { width: 1 };
        assert!(e.to_string().contains("channel width 1"));
        let e = ArchError::CoordOutOfBounds {
            x: 9,
            y: 10,
            width: 5,
            height: 5,
        };
        assert!(e.to_string().contains("(9, 10)"));
        assert!(e.to_string().contains("5x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchError>();
    }
}
