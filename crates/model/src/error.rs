//! Error type for catalog and graph operations.

use std::error::Error;
use std::fmt;

use crate::{ChannelId, NodeId, VideoId};

/// Errors returned by model lookups and construction.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The referenced video does not exist in the catalog.
    UnknownVideo(VideoId),
    /// The referenced channel does not exist in the catalog.
    UnknownChannel(ChannelId),
    /// The referenced user does not exist in the social graph.
    UnknownUser(NodeId),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownVideo(v) => write!(f, "unknown video {v}"),
            ModelError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            ModelError::UnknownUser(n) => write!(f, "unknown user {n}"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msg = ModelError::UnknownVideo(VideoId::new(3)).to_string();
        assert_eq!(msg, "unknown video v3");
        assert!(msg.chars().next().unwrap().is_lowercase());
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
