//! Service error types.
//!
//! Every failure the service can hand a client flows through
//! [`ServerError`], and every variant carries a stable numeric
//! [`ServerError::code`] that is part of the wire protocol: clients on
//! the network path match on codes, not on display strings, so the
//! code assignments here must never be reused or renumbered.

use std::fmt;

use dme_core::translate::TranslateError;
use dme_storage::{ReadError, WalError};

use crate::device::DeviceError;

/// Errors surfaced to sessions and operators of the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// A relational session's snapshot went stale and the retry budget
    /// ran out: another transaction committed first every time.
    Conflict {
        /// How many commit attempts were made (initial + retries).
        attempts: u32,
    },
    /// The transaction's operations no longer apply to the committed
    /// conceptual state; nothing was written.
    Aborted(String),
    /// Operation translation between models failed.
    Translate(String),
    /// The session was already closed.
    SessionClosed,
    /// The log device failed; the service refuses further commits (the
    /// durable image ends at the last synced byte).
    Crashed(String),
    /// Lockstep verification caught a committed transaction whose
    /// external views diverged from the conceptual state.
    LockstepDiverged {
        /// The view that is no longer state equivalent.
        view: String,
    },
    /// Recovery could not rebuild a consistent state from the image.
    Recovery(String),
    /// A relational session named an external view the service does not
    /// serve.
    UnknownView(String),
    /// A service configuration was rejected by validation before the
    /// service started.
    InvalidConfig(String),
    /// A wire frame decoded cleanly at the transport layer but did not
    /// form a well-typed request (bad discriminant, malformed body, or
    /// an unsupported protocol version).
    Protocol(String),
    /// A request named a session id the service does not know — never
    /// opened, already closed, or currently checked out by another
    /// in-flight request on the same connection.
    UnknownSession(u64),
    /// A consistency audit found that the internal level (the commit
    /// log folded over its base at the latest LSN) no longer rebuilds
    /// the conceptual state.
    StorageDiverged(String),
}

impl ServerError {
    /// The stable wire code for this error. Codes are part of the
    /// protocol: new variants take fresh numbers, old numbers are never
    /// reused. Code 13 belonged to a deleted variant and stays retired.
    pub fn code(&self) -> u16 {
        match self {
            ServerError::Conflict { .. } => 1,
            ServerError::Aborted(_) => 2,
            ServerError::Translate(_) => 3,
            ServerError::SessionClosed => 4,
            ServerError::Crashed(_) => 5,
            ServerError::LockstepDiverged { .. } => 6,
            ServerError::Recovery(_) => 7,
            ServerError::UnknownView(_) => 8,
            ServerError::InvalidConfig(_) => 9,
            ServerError::Protocol(_) => 10,
            ServerError::UnknownSession(_) => 11,
            ServerError::StorageDiverged(_) => 12,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Conflict { attempts } => {
                write!(f, "commit conflict persisted across {attempts} attempts")
            }
            ServerError::Aborted(why) => write!(f, "transaction aborted: {why}"),
            ServerError::Translate(why) => write!(f, "translation failed: {why}"),
            ServerError::SessionClosed => write!(f, "session is closed"),
            ServerError::Crashed(why) => write!(f, "service crashed: {why}"),
            ServerError::LockstepDiverged { view } => {
                write!(f, "lockstep verification failed: view {view} diverged")
            }
            ServerError::Recovery(why) => write!(f, "recovery failed: {why}"),
            ServerError::UnknownView(name) => write!(f, "unknown external view {name}"),
            ServerError::InvalidConfig(why) => write!(f, "invalid service config: {why}"),
            ServerError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ServerError::UnknownSession(id) => {
                write!(f, "unknown or busy session {id}")
            }
            ServerError::StorageDiverged(why) => write!(f, "internal level diverged: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<TranslateError> for ServerError {
    fn from(e: TranslateError) -> Self {
        ServerError::Translate(e.to_string())
    }
}

impl From<DeviceError> for ServerError {
    fn from(e: DeviceError) -> Self {
        ServerError::Crashed(e.to_string())
    }
}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> Self {
        ServerError::Recovery(e.to_string())
    }
}

/// A malformed wire payload. Recovery's decoders map their read errors
/// to [`ServerError::Recovery`] instead.
impl From<ReadError> for ServerError {
    fn from(e: ReadError) -> Self {
        ServerError::Protocol(format!("payload {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServerError::Conflict { attempts: 3 }
            .to_string()
            .contains("3 attempts"));
        assert!(ServerError::Aborted("dup".into())
            .to_string()
            .contains("dup"));
        assert!(ServerError::SessionClosed.to_string().contains("closed"));
        assert!(ServerError::LockstepDiverged {
            view: "shop".into()
        }
        .to_string()
        .contains("shop"));
        assert!(ServerError::UnknownView("x".into())
            .to_string()
            .contains('x'));
        assert!(ServerError::InvalidConfig("zero shards".into())
            .to_string()
            .contains("zero shards"));
        assert!(ServerError::Protocol("bad tag".into())
            .to_string()
            .contains("bad tag"));
        assert!(ServerError::UnknownSession(7).to_string().contains('7'));
        let e: ServerError = DeviceError::Full { at: 9 }.into();
        assert!(matches!(e, ServerError::Crashed(_)));
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            ServerError::Conflict { attempts: 1 },
            ServerError::Aborted(String::new()),
            ServerError::Translate(String::new()),
            ServerError::SessionClosed,
            ServerError::Crashed(String::new()),
            ServerError::LockstepDiverged {
                view: String::new(),
            },
            ServerError::Recovery(String::new()),
            ServerError::UnknownView(String::new()),
            ServerError::InvalidConfig(String::new()),
            ServerError::Protocol(String::new()),
            ServerError::UnknownSession(0),
            ServerError::StorageDiverged(String::new()),
        ];
        let codes: Vec<u16> = all.iter().map(ServerError::code).collect();
        assert_eq!(codes, (1..=12).collect::<Vec<u16>>());
    }
}
