//! RAII span guards, their call sites and the [`span!`] macro.

use crate::recorder::{self, Record, SPAN_ARGS};
use crate::{enabled, now_ns};

/// What every span recorded at one call site shares: its name, phase and
/// argument keys. [`crate::span!`] makes one `static` per call site, so a
/// recorded span holds a pointer to its site instead of three strings.
#[derive(Debug)]
pub struct SpanSite {
    /// Static span name, e.g. `"exec.group"`.
    pub name: &'static str,
    /// Coarse pipeline phase, e.g. `"exec"`.
    pub phase: &'static str,
    /// Argument keys; an unused slot is `""`.
    pub keys: [&'static str; SPAN_ARGS],
}

impl SpanSite {
    /// A site whose spans carry no arguments.
    pub const fn new(name: &'static str, phase: &'static str) -> Self {
        SpanSite {
            name,
            phase,
            keys: [""; SPAN_ARGS],
        }
    }
}

/// An in-flight span. Created by [`crate::span!`] (or [`SpanGuard::enter`]);
/// records one span when dropped. When recording is disabled the guard
/// holds nothing and drop is free — the whole round trip is one relaxed
/// atomic load and a branch.
///
/// Bind it to a named variable (`let _span = ...`, not `let _ = ...`) so
/// it lives to the end of the scope being measured.
#[must_use = "a span guard measures the scope it is bound in; dropping it immediately records an empty span"]
pub struct SpanGuard(Option<Record>);

impl SpanGuard {
    /// Start a span of `site` carrying the values of its argument keys
    /// (0 in an unused slot).
    #[inline]
    pub fn enter(site: &'static SpanSite, args: [u64; SPAN_ARGS]) -> Self {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(Record {
            site,
            start_ns: now_ns(),
            dur_ns: 0,
            req: 0, // stamped by the recorder
            args,
        }))
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(mut rec) = self.0.take() {
            rec.dur_ns = now_ns().saturating_sub(rec.start_ns);
            recorder::record(rec);
        }
    }
}

/// Open a trace span over the enclosing scope.
///
/// `span!(name, phase)` or `span!(name, phase, "key" => value, ...)` with
/// up to two `u64`-convertible values. `name`, `phase` and the keys must
/// be constant `&'static str`s: they make the call site's [`SpanSite`].
/// Returns a [`SpanGuard`] — bind it:
///
/// ```
/// perforad_obs::set_enabled(true);
/// {
///     let _span = perforad_obs::span!("doc.work", "doc", "items" => 3u64);
/// }
/// assert_eq!(perforad_obs::collect_events().len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    (@site $name:expr, $phase:expr, $keys:expr, $args:expr) => {{
        static SITE: $crate::SpanSite = $crate::SpanSite {
            name: $name,
            phase: $phase,
            keys: $keys,
        };
        $crate::SpanGuard::enter(&SITE, $args)
    }};
    ($name:expr, $phase:expr $(,)?) => {
        $crate::span!(@site $name, $phase, ["", ""], [0, 0])
    };
    ($name:expr, $phase:expr, $k0:expr => $v0:expr $(,)?) => {
        $crate::span!(@site $name, $phase, [$k0, ""], [$v0 as u64, 0])
    };
    ($name:expr, $phase:expr, $k0:expr => $v0:expr, $k1:expr => $v1:expr $(,)?) => {
        $crate::span!(@site $name, $phase, [$k0, $k1], [$v0 as u64, $v1 as u64])
    };
}
