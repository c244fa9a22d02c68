//! The unified portal error type.
//!
//! Every front-door entry point ([`crate::QueryRequest::from_sql`], `execute`
//! on [`crate::PortalService`] and [`crate::ShardedPortal`], the batch
//! variants) returns `Result<_, PortalError>`: one enum covering the three ways a portal can
//! decline to answer — the SQL didn't parse, the admission controller shed
//! the query under load, or the service has been closed for shutdown.
//! `From<ParseError>` keeps pre-existing `?`-style call sites mechanical.

use std::fmt;

use crate::parser::ParseError;

/// Why the portal declined to answer a query.
#[derive(Debug, Clone, PartialEq)]
pub enum PortalError {
    /// The SQL string did not parse.
    Parse(ParseError),
    /// The admission controller shed the query: the in-flight count had
    /// already filled both the execution slots and the wait queue (or the
    /// modelled queue wait would have exceeded the admission bound).
    Overloaded {
        /// Queries in flight (executing + queued) at the shed decision.
        in_flight: usize,
    },
    /// The service was closed; no further queries are admitted.
    Closed,
    /// A sharded router could not answer from any shard the query overlaps:
    /// every one of them declined. `shard` identifies the first failing
    /// shard and `cause` its error. (A *partially* failed fan-out is not an
    /// error — the router degrades the merged fulfillment instead.)
    ShardUnavailable {
        /// Index of the first shard that declined.
        shard: usize,
        /// Why that shard declined.
        cause: Box<PortalError>,
    },
}

impl PortalError {
    /// `true` when the error is retryable back-pressure rather than a
    /// caller bug (clients should back off and resubmit).
    pub fn is_overload(&self) -> bool {
        match self {
            PortalError::Overloaded { .. } => true,
            PortalError::ShardUnavailable { cause, .. } => cause.is_overload(),
            _ => false,
        }
    }
}

impl From<ParseError> for PortalError {
    fn from(e: ParseError) -> Self {
        PortalError::Parse(e)
    }
}

impl fmt::Display for PortalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortalError::Parse(e) => write!(f, "parse error: {e}"),
            PortalError::Overloaded { in_flight } => {
                write!(f, "overloaded: {in_flight} queries already in flight")
            }
            PortalError::Closed => write!(f, "portal service is closed"),
            PortalError::ShardUnavailable { shard, cause } => {
                write!(f, "no shard could answer (shard {shard}: {cause})")
            }
        }
    }
}

impl std::error::Error for PortalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PortalError::Parse(e) => Some(e),
            PortalError::ShardUnavailable { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parse_errors_convert_mechanically() {
        let parse_err = parse("SELECT nonsense").unwrap_err();
        let portal_err: PortalError = parse_err.clone().into();
        assert_eq!(portal_err, PortalError::Parse(parse_err));
        assert!(!portal_err.is_overload());
        assert!(std::error::Error::source(&portal_err).is_some());
    }

    #[test]
    fn display_is_informative() {
        let e = PortalError::Overloaded { in_flight: 42 };
        assert!(e.to_string().contains("42"));
        assert!(e.is_overload());
        assert!(PortalError::Closed.to_string().contains("closed"));
        assert!(std::error::Error::source(&PortalError::Closed).is_none());
    }

    #[test]
    fn shard_unavailable_carries_its_cause() {
        let e = PortalError::ShardUnavailable {
            shard: 3,
            cause: Box::new(PortalError::Overloaded { in_flight: 7 }),
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("7"));
        // Overload propagates through the wrapper: clients should still
        // back off and resubmit.
        assert!(e.is_overload());
        assert!(std::error::Error::source(&e).is_some());
        let closed = PortalError::ShardUnavailable {
            shard: 0,
            cause: Box::new(PortalError::Closed),
        };
        assert!(!closed.is_overload());
    }
}
