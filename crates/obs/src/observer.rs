//! The event sink trait and its statically-dispatched box.

use crate::event::Event;
use crate::recorder::Recorder;
use ehsim_mem::Ps;
use std::fmt;

/// A sink for simulator [`Event`]s.
///
/// Contract: observers are *observation only* — an implementation must
/// not feed anything back into the simulation. The simulator guarantees
/// the converse: a run computes bit-identical results whatever observer
/// is attached.
pub trait Observer {
    /// Called once per event, with the simulated timestamp it occurred
    /// at. Timestamps are nondecreasing per emitting site but may
    /// interleave slightly across sites (DirtyQueue ACKs are reported at
    /// their NVM completion time, which can precede the current cursor
    /// of the machine lifecycle); exporters sort before rendering.
    fn event(&mut self, at: Ps, ev: Event);

    /// Whether the machine should emit per-settlement
    /// [`Event::VoltageSample`]s for this sink. Defaults to `false`:
    /// per-settle sampling is too hot for the default recording path, so
    /// sinks opt in explicitly (e.g.
    /// [`Recorder::with_voltage_sampling`]).
    fn wants_voltage(&self) -> bool {
        false
    }

    /// Called once when observation ends, with the machine's final
    /// timestamp. The default forwards an [`Event::RunEnd`]; sinks with
    /// buffered output (the streaming observer) override this to flush.
    fn end(&mut self, at: Ps) {
        self.event(at, Event::RunEnd);
    }
}

/// The do-nothing sink; the default for every simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn event(&mut self, _at: Ps, _ev: Event) {}
}

/// Statically-dispatched observer, mirroring the `DesignBox` idiom: the
/// hot path pays one enum-discriminant test instead of a virtual call,
/// and the `Noop` arm compiles to nothing. [`ObserverBox::emit`] takes
/// the event as a closure, so an untraced run never builds one.
///
/// The `Custom` variant accepts any boxed [`Observer`] for ad-hoc
/// tooling; it is dispatched dynamically and never constructed by the
/// simulator itself.
// The size gap between `Noop` and `Recording` is deliberate: the
// recorder lives inline so the per-event path while recording has no
// extra indirection, and there is exactly one `ObserverBox` per
// `Machine`, so the footprint never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Default)]
pub enum ObserverBox {
    /// No observation; the hot path stays untouched.
    #[default]
    Noop,
    /// Record the full timeline, counters and histograms.
    Recording(Recorder),
    /// A user-supplied sink (dynamic dispatch).
    Custom(Box<dyn Observer + Send>),
}

impl ObserverBox {
    /// A fresh recording observer.
    pub fn recording() -> Self {
        ObserverBox::Recording(Recorder::default())
    }

    /// A recording observer that additionally samples capacitor voltage
    /// once per settlement window ([`Event::VoltageSample`]).
    pub fn recording_sampled() -> Self {
        ObserverBox::Recording(Recorder::with_voltage_sampling())
    }

    /// Boxes a user-supplied sink (see `examples/invariant_observer.rs`
    /// for the cookbook). To read results back after the run, keep
    /// shared state (`Arc<Mutex<_>>`) inside the observer.
    pub fn custom(observer: impl Observer + Send + 'static) -> Self {
        ObserverBox::Custom(Box::new(observer))
    }

    /// `true` unless this is the no-op sink. Instrumentation sites guard
    /// work beyond building an event with this (an event itself is
    /// built lazily by [`ObserverBox::emit`]).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, ObserverBox::Noop)
    }

    /// Whether the machine should emit per-settlement voltage samples.
    /// Always `false` for the no-op sink; other sinks answer via
    /// [`Observer::wants_voltage`].
    #[inline]
    pub fn voltage_sampling(&self) -> bool {
        match self {
            ObserverBox::Noop => false,
            ObserverBox::Recording(r) => r.wants_voltage(),
            ObserverBox::Custom(o) => o.wants_voltage(),
        }
    }

    /// Delivers the event `ev` builds to the sink. The no-op sink never
    /// calls `ev`, so an untraced run pays one discriminant test and
    /// builds nothing.
    #[inline(always)]
    pub fn emit(&mut self, at: Ps, ev: impl FnOnce() -> Event) {
        match self {
            ObserverBox::Noop => {}
            ObserverBox::Recording(r) => r.event(at, ev()),
            ObserverBox::Custom(o) => o.event(at, ev()),
        }
    }

    /// Signals the end of observation at the machine's final timestamp
    /// (see [`Observer::end`]); the streaming observer flushes here.
    pub fn end(&mut self, at: Ps) {
        match self {
            ObserverBox::Noop => {}
            ObserverBox::Recording(r) => r.end(at),
            ObserverBox::Custom(o) => o.end(at),
        }
    }

    /// The recorder, if this is a recording sink.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            ObserverBox::Recording(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the sink into a [`crate::RunTrace`] ending at `end`.
    /// Non-recording sinks yield an empty trace.
    pub fn into_trace(self, end: Ps) -> crate::RunTrace {
        match self {
            ObserverBox::Recording(r) => r.finish(end),
            _ => Recorder::default().finish(end),
        }
    }
}

impl fmt::Debug for ObserverBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserverBox::Noop => f.write_str("ObserverBox::Noop"),
            ObserverBox::Recording(r) => f.debug_tuple("ObserverBox::Recording").field(r).finish(),
            ObserverBox::Custom(_) => f.write_str("ObserverBox::Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut obs = ObserverBox::Noop;
        assert!(!obs.enabled());
        obs.emit(5, || unreachable!("the no-op sink builds no event"));
        assert!(obs.recorder().is_none());
        assert_eq!(obs.into_trace(10).counters, crate::ObsCounters::default());
    }

    #[test]
    fn custom_sink_receives_events() {
        struct Count(u64);
        impl Observer for Count {
            fn event(&mut self, _at: Ps, _ev: Event) {
                self.0 += 1;
            }
        }
        let mut obs = ObserverBox::Custom(Box::new(Count(0)));
        assert!(obs.enabled());
        obs.emit(1, || Event::PowerOff);
        obs.emit(2, || Event::RestoreBegin);
        if let ObserverBox::Custom(_) = obs {
        } else {
            panic!("variant changed");
        }
    }
}
