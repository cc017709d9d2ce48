//! Forced-fallback coverage: `VBS_KERNELS=portable` must pin the process to
//! the portable backend even on a host whose feature detection would pick the
//! PCLMULQDQ table. CI runs the whole bitstream suite under this variable; this
//! test makes the selection itself observable from inside one process by
//! setting the variable *before* the first `Kernels::active()` call (its own
//! integration-test binary, so the dispatch slot is untouched).

mod oracle;

use oracle::crc32_words_scalar;
use vbs_bitstream::Kernels;

#[test]
fn env_override_pins_the_portable_backend() {
    std::env::set_var("VBS_KERNELS", "portable");
    let k = Kernels::active();
    assert_eq!(k.name(), "portable");
    assert!(std::ptr::eq(k, Kernels::portable()));

    // The forced backend still computes the real answers.
    let words: Vec<u64> = (0..37u64)
        .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .collect();
    assert_eq!(!k.crc32_words(!0, &words), crc32_words_scalar(&words));

    // The selection is per-process and sticky: clearing the variable does
    // not flip an already-resolved slot.
    std::env::remove_var("VBS_KERNELS");
    assert_eq!(Kernels::active().name(), "portable");
}
