//! Run-time instruction-set selection for the wide kernels.
//!
//! The two hot loops of the γ self-tuner — the lockstep hinge-SGD step
//! loop ([`crate::gdt`]) and the batch validation scorer
//! ([`crate::classifier`]) — are each one `#[inline(always)]` body
//! compiled twice: once for baseline x86-64 and once inside an
//! `unsafe fn` marked `#[target_feature(enable = "avx2")]`.
//! [`Isa::host`] picks the AVX2 copy when the running CPU has AVX2. No
//! build flag, option or environment variable is involved; on other
//! architectures only the baseline copy exists.
//!
//! Both copies give bit-identical results. Rust never contracts
//! `a * b + c` into a fused multiply-add, so the AVX2 copy rounds every
//! product and every sum exactly as the baseline does; and both kernels
//! keep one accumulator per lane or class, summed left to right, so
//! vectorising across lanes or classes reorders no additions.

use std::sync::OnceLock;

/// An instruction set a wide kernel runs on.
///
/// Holding an `Isa` proves the host supports it: the only constructors
/// are [`Isa::BASELINE`], which every host runs, and [`Isa::avx2`],
/// which checks the CPU. The kernels therefore take an `Isa` as a safe
/// argument. Every `Isa` gives bit-identical results; only speed
/// differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The baseline target the workspace compiles for.
    pub const BASELINE: Isa = Isa { avx2: false };

    /// The AVX2 copies, if this CPU supports AVX2.
    pub fn avx2() -> Option<Isa> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Isa { avx2: true });
        }
        None
    }

    /// The widest instruction set this host supports, the one every
    /// kernel dispatches to by default.
    ///
    /// The first call sets the `nn.avx2` gauge: 1 when the AVX2 copies
    /// are selected, 0 otherwise.
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            let isa = Isa::avx2().unwrap_or(Isa::BASELINE);
            vortex_obs::gauge!("nn.avx2").set(if isa.avx2 { 1.0 } else { 0.0 });
            isa
        })
    }

    /// Whether this is the AVX2 instruction set.
    pub fn is_avx2(self) -> bool {
        self.avx2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_the_widest_supported_set() {
        assert_eq!(Isa::host(), Isa::avx2().unwrap_or(Isa::BASELINE));
        assert!(!Isa::BASELINE.is_avx2());
        assert!(Isa::avx2().map_or(true, Isa::is_avx2));
    }
}
