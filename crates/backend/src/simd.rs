//! Runtime SIMD dispatch shared by every microkernel.
//!
//! The register tile and the pooling window pick their widest usable ISA
//! *once* per process instead of re-running feature detection per call.
//! The selection is cached in a [`OnceLock`] keyed by [`Isa`]:
//!
//! * **detection** — `is_x86_feature_detected!` for `avx512f`, then `avx2`,
//!   each with the `fma` the tile executes, on x86_64; the portable scalar
//!   tier otherwise;
//! * **`IOS_FORCE_ISA`** — a `{scalar, avx2, avx512}` environment override
//!   for deterministic testing (e.g. exercising the scalar fallback on an
//!   AVX2 CI runner). Forcing an ISA the host cannot execute panics up
//!   front rather than faulting in the kernel;
//! * **[`with_forced_isa`]** — a thread-scoped override for in-process
//!   cross-ISA identity tests (the proptests run the same convolution
//!   under every supported ISA and assert bitwise equality). Jobs posted
//!   to the worker pool carry it to the lanes that run their chunks.
//!
//! Every ISA variant of every kernel computes the *same* per-element
//! operation sequence, so which entry the table selects is invisible in
//! the output bits — only in the wall clock.

use std::cell::Cell;
use std::sync::OnceLock;

/// An instruction-set tier a microkernel can dispatch to, ordered from
/// narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable code: the `fmaf` row, an exact-but-slow reference tier —
    /// the only tier off x86_64 and on x86_64 without AVX2 + FMA.
    Scalar,
    /// AVX2 + FMA: the tile at 8 lanes.
    Avx2,
    /// AVX-512F: the tile at 16 lanes.
    Avx512,
}

impl Isa {
    /// Every tier, narrowest first — the one list the cross-ISA identity
    /// suites, the gates and the `IOS_FORCE_ISA` parser walk, so a tier
    /// cannot be added without them running it.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// The lower-case name used by `IOS_FORCE_ISA` and the telemetry
    /// export (`ios_simd_kernel{isa="…"}`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses an [`Isa`] from its [`name`](Isa::name) (case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<Isa> {
        Isa::ALL
            .into_iter()
            .find(|isa| name.eq_ignore_ascii_case(isa.name()))
    }
}

/// The tiers this host can execute, narrowest first: [`Isa::ALL`] up to
/// [`detected_isa`].
#[must_use]
pub fn supported_isas() -> Vec<Isa> {
    let detected = detected_isa();
    Isa::ALL.into_iter().filter(|&i| i <= detected).collect()
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest ISA this host can execute, from hardware feature detection
/// alone (no overrides): all of its `#[target_feature]` set in the tile
/// module's tier list is reported.
#[must_use]
pub fn detected_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        match (has!("avx2") && has!("fma"), has!("avx512f")) {
            (false, _) => Isa::Scalar,
            (true, false) => Isa::Avx2,
            (true, true) => Isa::Avx512,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Scalar
    }
}

/// The process-wide selection: detection capped by `IOS_FORCE_ISA`,
/// resolved once and cached.
static SELECTED: OnceLock<Isa> = OnceLock::new();

fn selected_isa() -> Isa {
    *SELECTED.get_or_init(|| {
        let detected = detected_isa();
        match std::env::var("IOS_FORCE_ISA") {
            Ok(v) => {
                let forced = Isa::parse(&v).unwrap_or_else(|| {
                    panic!(
                        "IOS_FORCE_ISA={v:?} is not one of {:?}",
                        Isa::ALL.map(Isa::name)
                    )
                });
                assert!(
                    forced <= detected,
                    "IOS_FORCE_ISA={} but this host only executes up to {}",
                    forced,
                    detected
                );
                forced
            }
            Err(_) => detected,
        }
    })
}

thread_local! {
    /// Thread-scoped override installed by [`with_forced_isa`].
    static OVERRIDE: Cell<Option<Isa>> = const { Cell::new(None) };
}

/// The ISA every microkernel dispatches to on this thread: the
/// [`with_forced_isa`] override if one is active, else the cached
/// process-wide selection (`IOS_FORCE_ISA` or hardware detection).
///
/// Cheap enough to call once per kernel invocation — a thread-local read
/// plus a `OnceLock` load; the hot tile loops never re-detect.
#[must_use]
pub fn active_isa() -> Isa {
    OVERRIDE.with(Cell::get).unwrap_or_else(selected_isa)
}

/// The thread-scoped override active on this thread, if any — what a job
/// posted to the worker pool carries to the lanes that run its chunks.
pub(crate) fn isa_override() -> Option<Isa> {
    OVERRIDE.with(Cell::get)
}

/// Replaces this thread's override with the one a pool job carries,
/// returning the previous value for the lane to restore afterwards.
pub(crate) fn set_isa_override(isa: Option<Isa>) -> Option<Isa> {
    OVERRIDE.with(|c| c.replace(isa))
}

/// Runs `f` with every kernel on the current thread dispatched at `isa`,
/// restoring the previous selection afterwards (panic-safe). Work `f`
/// hands to the worker pool ([`crate::workers`]) runs at `isa` too, on
/// whichever lane picks it up. This is the hook the cross-ISA
/// bit-identity tests and the `simd_gate` baseline timing use.
///
/// # Panics
///
/// Panics if `isa` is wider than [`detected_isa`] — the host could not
/// execute the kernels it selects.
pub fn with_forced_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    assert!(
        isa <= detected_isa(),
        "cannot force {isa}: this host only executes up to {}",
        detected_isa()
    );
    struct Restore(Option<Isa>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(isa))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_round_trip_and_order() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::parse(&isa.name().to_ascii_uppercase()), Some(isa));
        }
        assert_eq!(Isa::parse("avx512f"), None);
        assert!(Isa::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn forced_isa_scopes_to_the_closure_and_restores() {
        let ambient = active_isa();
        let inner = with_forced_isa(Isa::Scalar, active_isa);
        assert_eq!(inner, Isa::Scalar);
        assert_eq!(active_isa(), ambient);
        // Nested overrides unwind in order, including across panics.
        let result = std::panic::catch_unwind(|| {
            with_forced_isa(Isa::Scalar, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(active_isa(), ambient);
    }

    #[test]
    fn detection_never_exceeds_the_hardware() {
        // active_isa() must always be executable on this host ...
        assert!(active_isa() <= detected_isa());
        assert_eq!(supported_isas().last(), Some(&detected_isa()));
        // ... which is the `unsafe` contract of the tile module's tier
        // list: every feature a supported tier's `#[target_feature]` entry
        // enables is one the CPU reports.
        #[cfg(target_arch = "x86_64")]
        for isa in supported_isas() {
            use std::arch::is_x86_feature_detected as has;
            let reported = match isa {
                Isa::Scalar => true,
                Isa::Avx2 => has!("avx2") && has!("fma"),
                Isa::Avx512 => has!("avx512f") && has!("avx2") && has!("fma"),
            };
            assert!(reported, "{isa} selected without its features");
        }
    }
}
