//! Deterministic trace identifiers, and the flat trace points emitted
//! where no trace hub is reachable.
//!
//! A [`TraceId`] names one service request across every layer it
//! touches: session admit, translation, equivalence verification, group
//! commit, WAL framing, checkpointing and crash-recovery replay. The id
//! is *derived* from the request's stable identity (not sampled from a
//! clock or RNG), so replaying the same schedule reproduces the same
//! transcript byte for byte — the property every conformance oracle in
//! this tree leans on.

use std::fmt;

use crate::{Event, EventKind, Observer, TraceStep};

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
///
/// The zero value is reserved as "untraced" at the codec layer, so
/// [`TraceId::derive`] never produces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives a trace id from a stable seed (e.g. a request id) via
    /// one round of splitmix64 — well-mixed, deterministic, and never
    /// zero.
    pub fn derive(seed: u64) -> TraceId {
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        TraceId(if z == 0 { 0x9e3779b97f4a7c15 } else { z })
    }

    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Observer {
    /// Emits a flat trace step (span and parent 0, no shard) for a
    /// point recorded where no [`TraceHub`](crate::TraceHub) allocates
    /// spans: crash-recovery replay and checkpoints. Every other
    /// service step goes through [`TraceHub::record`](crate::TraceHub::record),
    /// which emits the same record with its span coordinates. The
    /// detail string is built only when the observer is enabled.
    pub fn trace_event(&self, name: &'static str, trace: TraceId, detail: impl FnOnce() -> String) {
        if self.enabled() {
            self.emit_kind(EventKind::Trace(TraceStep {
                trace,
                span: 0,
                parent: 0,
                shard: None,
                name,
                detail: detail(),
            }));
        }
    }
}

impl Event {
    /// The trace id carried by this event, if any.
    pub fn trace(&self) -> Option<TraceId> {
        match &self.kind {
            EventKind::Trace(step) => Some(step.trace),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    #[test]
    fn derive_is_deterministic_mixed_and_nonzero() {
        assert_eq!(TraceId::derive(7), TraceId::derive(7));
        assert_ne!(TraceId::derive(7), TraceId::derive(8));
        for seed in 0..1000 {
            assert_ne!(TraceId::derive(seed).as_u64(), 0);
        }
        // Adjacent seeds land far apart (splitmix64 mixes well).
        let a = TraceId::derive(1).as_u64();
        let b = TraceId::derive(2).as_u64();
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn display_is_16_hex_digits() {
        assert_eq!(TraceId(0xabc).to_string(), "0000000000000abc");
        assert_eq!(TraceId(u64::MAX).to_string(), "ffffffffffffffff");
    }

    #[test]
    fn trace_events_flow_to_the_sink() {
        let ring = RingSink::with_capacity(8);
        let obs = Observer::new(ring.clone());
        let t = TraceId::derive(42);
        obs.trace_event("server/admit", t, || "session 3".into());
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace(), Some(t));
        let json = events[0].to_json();
        assert!(json.contains("\"ev\":\"trace\""));
        assert!(json.contains(&format!("\"trace\":\"{t}\"")));
        assert!(json.contains("\"detail\":\"session 3\""));
    }

    #[test]
    fn disabled_observer_skips_detail_construction() {
        let obs = Observer::disabled();
        obs.trace_event("x", TraceId::derive(1), || panic!("must not build"));
    }

    #[test]
    fn flat_trace_points_render_zero_span_coordinates() {
        let ring = RingSink::with_capacity(8);
        let obs = Observer::new(ring.clone());
        let t = TraceId::derive(9);
        obs.trace_event("server/replay", t, || "lsn 7".into());
        let json = ring.events()[0].to_json();
        assert!(
            json.ends_with(&format!(
                "\"ev\":\"trace\",\"trace\":\"{t}\",\"span\":0,\"parent\":0,\
                 \"name\":\"server/replay\",\"detail\":\"lsn 7\"}}"
            )),
            "{json}"
        );
        assert!(!json.contains("\"shard\""), "{json}");
    }
}
