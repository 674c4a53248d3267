//! The benchmark-owned log device: a [`MemDevice`] behind a wrapper
//! that adds a fixed simulated sync latency and records what the
//! service asked of it.
//!
//! Flush policy (identical for every commit measured): the service syncs
//! once per group commit per involved shard and once per checkpoint;
//! every `sync` sleeps [`SYNC_DELAY_US`] before the bytes count as
//! durable. Appends cost no simulated time.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dme_server::{DeviceError, LogDevice, MemDevice};
use dme_storage::wal;

use crate::trace::now_ns;

/// Simulated latency of one device sync.
pub const SYNC_DELAY_US: u64 = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Append,
    Sync,
    Truncate,
}

/// One timed device call.
#[derive(Clone, Debug)]
pub struct Event {
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// LSNs of the log frames this call appended or made durable.
    pub lsns: Vec<u64>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_busy_ns: u64,
    pub syncs: u64,
    pub sync_busy_ns: u64,
    pub truncations: u64,
    pub truncated_bytes: u64,
}

struct Inner {
    mem: MemDevice,
    counts: Counts,
    /// Per-call events are kept only in traced runs.
    keep_events: bool,
    events: Vec<Event>,
    /// Frames appended since the last sync.
    unsynced: Vec<u64>,
}

/// The benchmark's side of a device: counters, events and the durable
/// bytes, readable while the service owns the device itself.
#[derive(Clone)]
pub struct DeviceHandle(Arc<Mutex<Inner>>);

/// The [`LogDevice`] handed to the service.
pub struct BenchDevice(DeviceHandle);

impl BenchDevice {
    /// A device for the service and the benchmark's handle on it.
    pub fn pair(keep_events: bool) -> (Box<dyn LogDevice>, DeviceHandle) {
        let handle = DeviceHandle(Arc::new(Mutex::new(Inner {
            mem: MemDevice::new(),
            counts: Counts::default(),
            keep_events,
            events: Vec::new(),
            unsynced: Vec::new(),
        })));
        (Box::new(BenchDevice(handle.clone())), handle)
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock()
    }
}

impl DeviceHandle {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().expect("device state lock")
    }

    pub fn counts(&self) -> Counts {
        self.lock().counts
    }

    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }

    /// Only the bytes a sync made durable: what a crash right now would
    /// leave on this device.
    pub fn synced_prefix(&self) -> Vec<u8> {
        let inner = self.lock();
        let mut bytes = inner.mem.contents();
        bytes.truncate(inner.mem.synced_len());
        bytes
    }
}

fn frame_lsns(bytes: &[u8]) -> Vec<u64> {
    let mut lsns = Vec::new();
    let mut at = 0;
    while let Ok((record, len)) = wal::decode_frame(bytes, at) {
        lsns.push(record.lsn);
        at += len;
    }
    lsns
}

impl LogDevice for BenchDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DeviceError> {
        let start = now_ns();
        let mut inner = self.inner();
        let result = inner.mem.append(bytes);
        let end = now_ns();
        inner.counts.appends += 1;
        inner.counts.append_bytes += bytes.len() as u64;
        inner.counts.append_busy_ns += end - start;
        if inner.keep_events {
            let lsns = frame_lsns(bytes);
            inner.unsynced.extend(&lsns);
            inner.events.push(Event {
                op: Op::Append,
                start_ns: start,
                end_ns: end,
                lsns,
            });
        }
        result
    }

    fn sync(&mut self) -> Result<(), DeviceError> {
        let start = now_ns();
        std::thread::sleep(Duration::from_micros(SYNC_DELAY_US));
        let mut inner = self.inner();
        inner.mem.sync()?;
        let end = now_ns();
        inner.counts.syncs += 1;
        inner.counts.sync_busy_ns += end - start;
        if inner.keep_events {
            let lsns = std::mem::take(&mut inner.unsynced);
            inner.events.push(Event {
                op: Op::Sync,
                start_ns: start,
                end_ns: end,
                lsns,
            });
        }
        Ok(())
    }

    fn contents(&self) -> Vec<u8> {
        self.inner().mem.contents()
    }

    fn synced_len(&self) -> usize {
        self.inner().mem.synced_len()
    }

    fn len(&self) -> usize {
        self.inner().mem.len()
    }

    fn syncs(&self) -> u64 {
        self.inner().mem.syncs()
    }

    fn truncate_prefix(&mut self, bytes: usize) -> Result<u64, DeviceError> {
        let start = now_ns();
        let mut inner = self.inner();
        let cut = inner.mem.truncate_prefix(bytes)?;
        inner.counts.truncations += 1;
        inner.counts.truncated_bytes += cut;
        if inner.keep_events {
            inner.events.push(Event {
                op: Op::Truncate,
                start_ns: start,
                end_ns: now_ns(),
                lsns: Vec::new(),
            });
        }
        Ok(cut)
    }
}
