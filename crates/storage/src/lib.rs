#![deny(missing_docs)]

//! # dme-storage — the internal-schema substrate
//!
//! The ANSI architecture the paper builds on (§1.2, Figure 1) has an
//! **internal schema** that "specifies the types of data structures,
//! devices and access methods which constitute the physical storage
//! aspects of the database system". This crate holds that level's
//! formats:
//!
//! * a compact binary codec for tuples ([`codec`]),
//! * one bounded reader that every decoder of outside bytes — tuples,
//!   WAL frames, checkpoint and wire payloads — reads through, so that no input can make a decoder panic
//!   ([`read`]), and
//! * a framed, checksummed write-ahead log with torn-write-tolerant
//!   replay and appended checkpoints ([`wal`]).
//!
//! The WAL and the checkpoint chain are the one durable format:
//! `dme-server`'s `SessionService` logs every committed conceptual
//! delta to the WAL, keeps the same delta payloads in memory back to
//! its last collected full checkpoint (its audit folds them), and
//! recovers from the checkpoint chain plus the log. The paper's point that "the internal schema presumably contains
//! much implementation information which has no equivalent at the
//! conceptual level" (§3.2.3) shows up concretely: frame layouts, LSNs,
//! shard logs and checkpoint cadences all vary without changing the
//! conceptual state, so the internal→conceptual correspondence is
//! many-to-one rather than the 1-1 correspondence of the external
//! levels.

pub mod codec;
pub mod read;
pub mod wal;

pub use codec::{decode_tuple, encode_tuple, CodecError};
pub use read::{ReadError, Reader};
pub use wal::{WalError, WalRecord};
