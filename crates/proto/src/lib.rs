//! Protocol messages and wire codec for PaRiS.
//!
//! Every message exchanged by clients and servers in Algorithms 1–4 of the
//! paper is defined here, plus the stabilization-tree messages that
//! implement the UST gossip (§IV-B, "Stabilization protocol") and the
//! garbage-collection aggregate piggybacked on it.
//!
//! The crate also provides two compact hand-rolled binary codecs — the
//! fixed-width **v1** ([`wire`]) and the varint **v2** ([`wire2`]),
//! selected by `paris_types::WireFormat` and negotiated per connection —
//! used to (a) measure the *metadata* cost of each message — reproducing
//! the "1 timestamp" claim of the paper's Table I — and (b) property-test
//! that every message round-trips losslessly under both encodings.
//!
//! # Example
//!
//! ```
//! use paris_proto::{Msg, wire};
//! use paris_types::Timestamp;
//!
//! let msg = Msg::StartTxReq { client_ust: Timestamp::from_parts(42, 1) };
//! let bytes = wire::encode(&msg);
//! assert_eq!(wire::decode(&bytes)?, msg);
//! # Ok::<(), paris_proto::wire::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
mod messages;
pub mod varint;
pub mod wire;
pub mod wire2;

pub use ctrl::{Ctrl, ServerSnapshot, SnapshotCounters};
pub use messages::{DigestReport, Endpoint, Envelope, Msg, PoolPath, ReadResult, ReplicatedTx};
