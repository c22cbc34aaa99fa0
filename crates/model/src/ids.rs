//! Strongly-typed identifiers.
//!
//! Every entity in the system is referred to by a dense `u32`/`u64` index
//! wrapped in a newtype ([C-NEWTYPE]), so a [`VideoId`] can never be passed
//! where a [`ChannelId`] is expected. Dense indices also let the catalog and
//! simulator store per-entity state in flat `Vec`s.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default,

        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its dense index.
            ///
            /// # Examples
            ///
            /// ```
            /// # use socialtube_model::NodeId;
            /// let id = NodeId::new(7);
            /// assert_eq!(id.index(), 7);
            /// ```
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the dense index backing this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifier of a peer node (one user's client) in the P2P system.
    NodeId,
    "n"
);
define_id!(
    /// Identifier of a video.
    VideoId,
    "v"
);
define_id!(
    /// Identifier of a channel (one uploader's page of videos).
    ChannelId,
    "c"
);
define_id!(
    /// Identifier of an interest category (e.g. Gaming, Sports, Comedy).
    CategoryId,
    "k"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_through_u32() {
        let v = VideoId::new(42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VideoId::from(42u32), v);
        assert_eq!(v.index(), 42);
        assert_eq!(v.as_u32(), 42);
    }

    #[test]
    fn display_uses_typed_prefixes() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(VideoId::new(3).to_string(), "v3");
        assert_eq!(ChannelId::new(3).to_string(), "c3");
        assert_eq!(CategoryId::new(3).to_string(), "k3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId::new(1) < NodeId::new(2));
        let set: HashSet<_> = [ChannelId::new(1), ChannelId::new(1), ChannelId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", VideoId::new(0)).is_empty());
    }
}
