//! The runtime-dispatched CRC-32 word kernel.
//!
//! One read-only sweep of the frame arena funnels through this module: the
//! CRC-32 word fold used by readback verify and the VBS stream footer
//! (16–16.6× with PCLMULQDQ). `VBS_KERNELS=portable bash benchmark/run.sh`
//! against a default run compares the backends end to end. Popcounts and
//! frame diffs are not here: they serve test assertions only and are plain
//! `count_ones` loops at their call sites, and bulk copies and clears are
//! `copy_from_slice` and `fill(0)`, because an AVX2 copy measured 0.93× of
//! `memcpy` and an indirect call per 5-word frame costs more than it could
//! win. A [`Kernels`] value is a table holding the CRC fold; the table is
//! selected **once** per process:
//!
//! * `VBS_KERNELS=portable` in the environment forces the portable backend
//!   (CI uses this to keep the fallback covered on PCLMULQDQ hosts);
//! * otherwise, on x86-64, `is_x86_feature_detected!` picks the
//!   PCLMULQDQ-folded CRC when carry-less multiply and SSE4.1 are present;
//! * everywhere else the portable slice-by-8 backend runs.
//!
//! The portable backend is not a straw man: it is the table-driven code the
//! CRC ran before dispatch existed, and the folded path is proptest-pinned
//! bit-identical against it and against a bitwise, table-free CRC-32
//! (`tests/kernels_diff.rs`, oracle in `tests/oracle/mod.rs`).
//!
//! # Safety
//!
//! This is the one module of the crate that contains `unsafe`: the
//! `#[target_feature]` intrinsics bodies and the wrapper that calls them.
//! That wrapper is installed into a table only after the features it
//! requires were detected at runtime.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A resolved backend: the function pointer of the CRC word fold.
///
/// Obtain the process-wide selection with [`Kernels::active`], or a specific
/// backend with [`Kernels::portable`] / [`Kernels::detected`] (the
/// differential tests and the bench compare backends directly, bypassing the
/// global slot).
pub struct Kernels {
    name: &'static str,
    crc32_words: fn(u32, &[u64]) -> u32,
}

/// The process-wide dispatch slot, filled on first use.
static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

impl Kernels {
    /// The backend every CRC fold dispatches through, selected on first
    /// call (environment override first, then feature detection).
    pub fn active() -> &'static Kernels {
        ACTIVE.get_or_init(Self::select)
    }

    fn select() -> &'static Kernels {
        if std::env::var("VBS_KERNELS").as_deref() == Ok("portable") {
            return Self::portable();
        }
        Self::detected()
    }

    /// The portable slice-by-8 backend (the pre-dispatch scalar code).
    pub fn portable() -> &'static Kernels {
        &PORTABLE
    }

    /// The best backend the host supports, ignoring the environment
    /// override.
    pub fn detected() -> &'static Kernels {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                return &x86::PCLMUL;
            }
        }
        &PORTABLE
    }

    /// The backend's name (`"portable"`, `"pclmul"`).
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Folds `words` (little-endian byte order) into a raw CRC-32 state.
    ///
    /// `state` and the return value are the *internal* (inverted) CRC
    /// register — [`crate::crc32_words`] owns the pre/post inversion.
    pub fn crc32_words(&self, state: u32, words: &[u64]) -> u32 {
        (self.crc32_words)(state, words)
    }
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("name", &self.name).finish()
    }
}

static PORTABLE: Kernels = Kernels {
    name: "portable",
    crc32_words: crate::crc::crc32_words_slice8,
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Kernels;
    use crate::crc;
    use std::arch::x86_64::*;

    pub(super) static PCLMUL: Kernels = Kernels {
        name: "pclmul",
        crc32_words: crc_pclmul,
    };

    // Safe wrapper: it is only ever installed into the table `detected()`
    // returns after the required features tested present, so the
    // `#[target_feature]` bodies cannot execute on a host without them.

    fn crc_pclmul(state: u32, words: &[u64]) -> u32 {
        // SAFETY: PCLMULQDQ + SSE4.1 detected before this backend is
        // selected.
        unsafe { crc32_words_clmul(state, words) }
    }

    // CRC-32 by PCLMULQDQ folding — the classic zlib/Intel "Fast CRC
    // Computation Using PCLMULQDQ" schedule for the reflected IEEE
    // polynomial: fold 64-byte stripes with (k1, k2), collapse to one
    // 128-bit accumulator and fold 16-byte blocks with (k3, k4), then
    // reduce 128 → 64 → 32 bits with k5 and a Barrett step. Word slices
    // on a little-endian target are exactly the byte stream the reflected
    // CRC consumes, so blocks load straight from the `u64` buffer.

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn crc32_words_clmul(state: u32, words: &[u64]) -> u32 {
        // Fold an even-word prefix of at least 64 bytes; slice-by-8
        // finishes any tail (and handles short inputs entirely).
        let n2 = words.len() & !1;
        if n2 < 8 {
            return crc::crc32_words_slice8(state, words);
        }
        let p = words.as_ptr() as *const __m128i;
        let blocks = n2 / 2;
        let k1k2 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0);

        let mut x1 = _mm_loadu_si128(p);
        let mut x2 = _mm_loadu_si128(p.add(1));
        let mut x3 = _mm_loadu_si128(p.add(2));
        let mut x4 = _mm_loadu_si128(p.add(3));
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(state as i32));

        let mut i = 4;
        while i + 4 <= blocks {
            x1 = fold(x1, _mm_loadu_si128(p.add(i)), k1k2);
            x2 = fold(x2, _mm_loadu_si128(p.add(i + 1)), k1k2);
            x3 = fold(x3, _mm_loadu_si128(p.add(i + 2)), k1k2);
            x4 = fold(x4, _mm_loadu_si128(p.add(i + 3)), k1k2);
            i += 4;
        }
        x1 = fold(x1, x2, k3k4);
        x1 = fold(x1, x3, k3k4);
        x1 = fold(x1, x4, k3k4);
        while i < blocks {
            x1 = fold(x1, _mm_loadu_si128(p.add(i)), k3k4);
            i += 1;
        }

        // 128 → 64 bits.
        let mask = _mm_set_epi32(0, -1, 0, -1);
        let t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);

        let k5 = _mm_set_epi64x(0, 0x0001_63cd_6124);
        let t = _mm_srli_si128(x1, 4);
        x1 = _mm_and_si128(x1, mask);
        x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
        x1 = _mm_xor_si128(x1, t);

        // Barrett reduction 64 → 32 bits.
        let poly = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);
        let mut t = _mm_and_si128(x1, mask);
        t = _mm_clmulepi64_si128(t, poly, 0x10);
        t = _mm_and_si128(t, mask);
        t = _mm_clmulepi64_si128(t, poly, 0x00);
        x1 = _mm_xor_si128(x1, t);

        let folded = _mm_extract_epi32(x1, 1) as u32;
        crc::crc32_words_slice8(folded, &words[n2..])
    }

    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, data: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_backend_is_bit_identical_on_a_smoke_buffer() {
        let det = Kernels::detected();
        let port = Kernels::portable();
        let a: Vec<u64> = (0..997u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 7))
            .collect();
        assert_eq!(det.crc32_words(!0, &a), port.crc32_words(!0, &a));
    }

    #[test]
    fn active_selection_is_sticky() {
        let first = Kernels::active();
        assert!(std::ptr::eq(first, Kernels::active()));
    }
}
