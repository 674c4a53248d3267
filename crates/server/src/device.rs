//! Log devices: the append-only byte stores the WAL and checkpoint
//! stream are written to.
//!
//! Crash semantics are modeled the way real disks fail under a
//! power cut: everything up to the last `sync` is durable, appended but
//! unsynced bytes may survive *partially* (a torn tail). A crash image
//! is therefore always a byte prefix of the device contents, which is
//! exactly what [`dme_storage::wal::replay_tolerant`] is built to
//! handle.
//!
//! ## Fault points and concurrent shard writers
//!
//! The sharded WAL path writes several devices from several commit
//! lanes at once, so fault injection has to be stated as an ordering
//! contract rather than "the Nth write fails":
//!
//! * **Per-device** ([`MemDevice::with_crash_at`]): the device tears at
//!   an absolute byte offset *of that device*. Each device is owned by
//!   exactly one lane mutex, so its tear point is deterministic no
//!   matter how lanes interleave.
//! * **Cross-device** ([`WriteBudget`], [`MemDevice::with_budget`]): a
//!   shared atomic byte budget drained by every append on every device
//!   that carries it. *Which* device trips depends on lane scheduling,
//!   but three invariants hold deterministically under any
//!   interleaving: the total bytes written across all sharing devices
//!   never exceeds the budget; the write that exhausts it tears
//!   (a prefix reaches the medium) and **trips** the budget; and a
//!   tripped budget is sticky — every later append on every sharing
//!   device fails without writing a byte. Recovery therefore always
//!   sees per-device byte prefixes, which is the only property the
//!   crash matrix relies on.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors raised by a log device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The device stopped accepting writes at the given byte offset
    /// (simulated media failure / disk full).
    Full {
        /// Offset of the first byte that could not be written.
        at: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Full { at } => write!(f, "device stopped accepting writes at byte {at}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// An append-only, syncable byte device.
pub trait LogDevice: Send {
    /// Appends bytes. May write a *prefix* and then fail (torn write).
    fn append(&mut self, bytes: &[u8]) -> Result<(), DeviceError>;
    /// Makes all appended bytes durable.
    fn sync(&mut self) -> Result<(), DeviceError>;
    /// Every byte appended so far (durable + not-yet-synced tail).
    fn contents(&self) -> Vec<u8>;
    /// Bytes guaranteed durable (appended and synced).
    fn synced_len(&self) -> usize;
    /// Total bytes appended.
    fn len(&self) -> usize;
    /// How many `sync` calls completed (the commit-economy measure).
    fn syncs(&self) -> u64;
    /// Whether nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Discards up to `bytes` bytes from the *front* of the device —
    /// log truncation after a durable checkpoint has made the prefix
    /// redundant. Returns how many bytes were actually discarded; the
    /// default is a no-op `Ok(0)` for devices that keep everything.
    /// Callers must only truncate at record boundaries within the
    /// synced prefix, so the surviving contents still start at a
    /// decodable frame.
    fn truncate_prefix(&mut self, bytes: usize) -> Result<u64, DeviceError> {
        let _ = bytes;
        Ok(0)
    }
}

/// A thread-safe byte budget shared by several devices: the
/// cross-device fault point of the sharded WAL path. See the module
/// docs for the ordering contract.
pub struct WriteBudget {
    remaining: AtomicI64,
    tripped: AtomicBool,
}

impl WriteBudget {
    /// A budget of `bytes` total writable bytes across every device
    /// sharing it.
    pub fn new(bytes: usize) -> Arc<Self> {
        Arc::new(WriteBudget {
            remaining: AtomicI64::new(bytes as i64),
            tripped: AtomicBool::new(false),
        })
    }

    /// Whether some write already exhausted the budget (sticky).
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Reserves up to `want` bytes: returns how many may be written.
    /// The reservation that crosses zero trips the budget.
    fn reserve(&self, want: usize) -> usize {
        if self.tripped() {
            return 0;
        }
        let before = self.remaining.fetch_sub(want as i64, Ordering::SeqCst);
        if before <= 0 {
            self.tripped.store(true, Ordering::SeqCst);
            return 0;
        }
        let allowed = (before as usize).min(want);
        if allowed < want {
            self.tripped.store(true, Ordering::SeqCst);
        }
        allowed
    }
}

impl fmt::Debug for WriteBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WriteBudget({} bytes left, tripped: {})",
            self.remaining.load(Ordering::SeqCst).max(0),
            self.tripped()
        )
    }
}

/// An in-memory log device with fault injection and a configurable
/// per-`sync` latency (what makes group commit measurably cheaper than
/// per-operation commit: one sync amortized over a batch).
pub struct MemDevice {
    buf: Vec<u8>,
    synced: usize,
    syncs: u64,
    sync_delay: Duration,
    /// When set, writes stop (tear) at this byte offset of this device.
    crash_at: Option<usize>,
    /// When set, writes also drain this shared cross-device budget.
    budget: Option<Arc<WriteBudget>>,
}

impl fmt::Debug for MemDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemDevice({} bytes, {} synced, {} syncs)",
            self.buf.len(),
            self.synced,
            self.syncs
        )
    }
}

impl Default for MemDevice {
    fn default() -> Self {
        MemDevice::new()
    }
}

impl MemDevice {
    /// An empty device with no fault injection and instant syncs.
    pub fn new() -> Self {
        MemDevice {
            buf: Vec::new(),
            synced: 0,
            syncs: 0,
            sync_delay: Duration::ZERO,
            crash_at: None,
            budget: None,
        }
    }

    /// A device pre-loaded with a recovered image (e.g. the surviving
    /// prefix of a crashed device).
    pub fn with_contents(bytes: Vec<u8>) -> Self {
        let synced = bytes.len();
        MemDevice {
            buf: bytes,
            synced,
            syncs: 0,
            sync_delay: Duration::ZERO,
            crash_at: None,
            budget: None,
        }
    }

    /// Sets a simulated per-`sync` latency.
    pub fn with_sync_delay(mut self, delay: Duration) -> Self {
        self.sync_delay = delay;
        self
    }

    /// Injects a media failure: writes tear at byte offset `at` of this
    /// device. Deterministic even with concurrent shard writers, since
    /// each device is single-writer behind its lane lock.
    pub fn with_crash_at(mut self, at: usize) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Attaches a shared cross-device [`WriteBudget`]: this device's
    /// appends drain the budget and fail (torn) once it is exhausted by
    /// any sharing device.
    pub fn with_budget(mut self, budget: Arc<WriteBudget>) -> Self {
        self.budget = Some(budget);
        self
    }
}

impl LogDevice for MemDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DeviceError> {
        // Fault points compose: the write is clipped to whatever both
        // the per-device tear point and the shared budget admit, and
        // any clipping is a torn-write failure.
        let mut allowed = bytes.len();
        if let Some(limit) = self.crash_at {
            if self.buf.len() + bytes.len() > limit {
                allowed = allowed.min(limit.saturating_sub(self.buf.len()));
            }
        }
        if let Some(budget) = &self.budget {
            allowed = budget.reserve(allowed);
        }
        if allowed < bytes.len() {
            // Torn write: the prefix that fits reaches the medium.
            self.buf.extend_from_slice(&bytes[..allowed]);
            return Err(DeviceError::Full { at: self.buf.len() });
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DeviceError> {
        if !self.sync_delay.is_zero() {
            std::thread::sleep(self.sync_delay);
        }
        self.syncs += 1;
        self.synced = self.buf.len();
        Ok(())
    }

    fn contents(&self) -> Vec<u8> {
        self.buf.clone()
    }

    fn synced_len(&self) -> usize {
        self.synced
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }

    fn truncate_prefix(&mut self, bytes: usize) -> Result<u64, DeviceError> {
        // Only durable bytes may be discarded: truncating an unsynced
        // tail would silently un-tear a pending fault point.
        let n = bytes.min(self.synced).min(self.buf.len());
        self.buf.drain(..n);
        self.synced -= n;
        if let Some(limit) = &mut self.crash_at {
            *limit = limit.saturating_sub(n);
        }
        Ok(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_sync_track_durability() {
        let mut d = MemDevice::new();
        assert!(d.is_empty());
        d.append(b"hello").unwrap();
        assert_eq!((d.len(), d.synced_len()), (5, 0));
        d.sync().unwrap();
        assert_eq!((d.len(), d.synced_len(), d.syncs()), (5, 5, 1));
        assert_eq!(d.contents(), b"hello");
        assert!(format!("{d:?}").contains("5 bytes"));
    }

    #[test]
    fn crash_injection_tears_the_write() {
        let mut d = MemDevice::new().with_crash_at(8);
        d.append(b"abcde").unwrap();
        let err = d.append(b"fghij").unwrap_err();
        assert_eq!(err, DeviceError::Full { at: 8 });
        assert!(err.to_string().contains("byte 8"));
        // The torn prefix reached the medium; nothing after byte 8 did.
        assert_eq!(d.contents(), b"abcdefgh");
    }

    #[test]
    fn truncate_prefix_discards_only_durable_bytes() {
        let mut d = MemDevice::new();
        d.append(b"durable|").unwrap();
        d.sync().unwrap();
        d.append(b"tail").unwrap();
        // Asking past the synced prefix clips to it: the unsynced tail
        // stays append-only.
        assert_eq!(d.truncate_prefix(64).unwrap(), 8);
        assert_eq!(d.contents(), b"tail");
        assert_eq!(d.synced_len(), 0);
        assert_eq!(d.truncate_prefix(2).unwrap(), 0);
        d.sync().unwrap();
        assert_eq!(d.truncate_prefix(2).unwrap(), 2);
        assert_eq!(d.contents(), b"il");
    }

    #[test]
    fn preloaded_contents_count_as_durable() {
        let d = MemDevice::with_contents(b"image".to_vec());
        assert_eq!(d.synced_len(), 5);
        assert_eq!(d.contents(), b"image");
    }

    #[test]
    fn shared_budget_trips_across_devices_and_is_sticky() {
        let budget = WriteBudget::new(8);
        let mut a = MemDevice::new().with_budget(Arc::clone(&budget));
        let mut b = MemDevice::new().with_budget(Arc::clone(&budget));
        a.append(b"abcde").unwrap();
        assert!(!budget.tripped());
        // b's 5-byte write finds only 3 budget bytes left: torn + trip.
        let err = b.append(b"vwxyz").unwrap_err();
        assert!(matches!(err, DeviceError::Full { .. }));
        assert_eq!(b.contents(), b"vwx");
        assert!(budget.tripped());
        // Sticky: every later write on every sharing device fails dry.
        assert!(a.append(b"!").is_err());
        assert_eq!(a.contents(), b"abcde");
        assert!(format!("{budget:?}").contains("tripped: true"));
    }

    #[test]
    fn budget_totals_are_deterministic_under_interleaving() {
        use std::sync::Mutex;
        for trial in 0..8 {
            let budget = WriteBudget::new(64);
            let devices: Vec<Mutex<MemDevice>> = (0..4)
                .map(|_| Mutex::new(MemDevice::new().with_budget(Arc::clone(&budget))))
                .collect();
            std::thread::scope(|sc| {
                for d in &devices {
                    sc.spawn(move || {
                        for _ in 0..8 {
                            let _ = d.lock().unwrap().append(&[trial as u8; 7]);
                        }
                    });
                }
            });
            let total: usize = devices.iter().map(|d| d.lock().unwrap().len()).sum();
            assert!(total <= 64, "trial {trial}: wrote {total} of 64 budget");
            assert!(budget.tripped());
        }
    }
}
