//! The `PB_QUIET` environment knob.
//!
//! Library crates write no diagnostics: a fault is a returned error or
//! a counted, quarantined trial. [`quiet`] is here because the ledger's
//! environment echo (`ledger/src/env.rs`) records the knob with every
//! run.

use std::sync::OnceLock;

/// Whether `PB_QUIET` is set non-empty and non-`0`. Read once per
/// process. Nothing in the library consults it; kept for the ledger's
/// environment echo.
pub fn quiet() -> bool {
    static QUIET: OnceLock<bool> = OnceLock::new();
    *QUIET.get_or_init(|| std::env::var("PB_QUIET").is_ok_and(|v| !(v.is_empty() || v == "0")))
}
