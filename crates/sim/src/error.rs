//! Error type for circuit construction and simulation.

use std::error::Error;
use std::fmt;

use crate::time::Time;

/// Errors raised while building a [`crate::Circuit`] or running a
/// [`crate::Simulator`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A port index was out of range for the referenced component.
    InvalidPort {
        /// Component the port was looked up on.
        component: String,
        /// The offending port index.
        port: usize,
        /// Number of ports of that direction the component actually has.
        available: usize,
        /// `"input"` or `"output"`.
        direction: &'static str,
    },
    /// A component, input, or probe id referenced a different circuit or was
    /// otherwise unknown.
    UnknownId(String),
    /// An output drives more than one sink without a splitter tree.
    ///
    /// SFQ pulses cannot fan out passively: every output must drive
    /// exactly one sink, with explicit `Splitter` cells providing
    /// fanout (see `usfq_cells::interconnect`).
    FanoutViolation {
        /// Name of the offending component, or the external input name.
        component: String,
        /// The output port that over-drives (0 for external inputs).
        port: usize,
        /// How many wired sinks the output drives.
        sinks: usize,
    },
    /// The event limit was exceeded; the circuit probably oscillates.
    EventLimitExceeded {
        /// The limit that was hit.
        limit: u64,
        /// Component the first undispatched event targets — usually a
        /// member of the oscillating loop.
        component: String,
        /// Scheduled time of that undispatched event.
        time: Time,
    },
    /// The simulation clock overflowed.
    TimeOverflow {
        /// Component (or external input) whose emission overflowed.
        component: String,
        /// Time of the event whose propagation overflowed the clock.
        time: Time,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidPort {
                component,
                port,
                available,
                direction,
            } => write!(
                f,
                "invalid {direction} port {port} on component `{component}` (has {available})"
            ),
            SimError::UnknownId(what) => write!(f, "unknown id: {what}"),
            SimError::FanoutViolation {
                component,
                port,
                sinks,
            } => write!(
                f,
                "output {port} of `{component}` drives {sinks} sinks; insert splitters"
            ),
            SimError::EventLimitExceeded {
                limit,
                component,
                time,
            } => write!(
                f,
                "event limit of {limit} exceeded at {:.1} ps (next event targets \
                 `{component}`); circuit may oscillate",
                time.as_ps()
            ),
            SimError::TimeOverflow { component, time } => write!(
                f,
                "simulation time overflowed propagating a pulse from `{component}` at {:.1} ps",
                time.as_ps()
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::InvalidPort {
            component: "m0".into(),
            port: 3,
            available: 2,
            direction: "input",
        };
        assert_eq!(
            e.to_string(),
            "invalid input port 3 on component `m0` (has 2)"
        );
        assert_eq!(
            SimError::EventLimitExceeded {
                limit: 10,
                component: "osc".into(),
                time: Time::from_ps(42.0),
            }
            .to_string(),
            "event limit of 10 exceeded at 42.0 ps (next event targets `osc`); \
             circuit may oscillate"
        );
        assert_eq!(
            SimError::UnknownId("probe 9".into()).to_string(),
            "unknown id: probe 9"
        );
        assert_eq!(
            SimError::TimeOverflow {
                component: "jtl7".into(),
                time: Time::from_ps(1.5),
            }
            .to_string(),
            "simulation time overflowed propagating a pulse from `jtl7` at 1.5 ps"
        );
        let e = SimError::FanoutViolation {
            component: "spl".into(),
            port: 1,
            sinks: 3,
        };
        assert_eq!(
            e.to_string(),
            "output 1 of `spl` drives 3 sinks; insert splitters"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
