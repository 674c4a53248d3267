//! Multi-version fact storage: LSN-keyed version chains over a heap
//! file and an ordered index.
//!
//! Each logical fact key maps to a chain of versions, one per commit
//! that touched it. A version is either a **value** (the encoded fact
//! record as of that commit) or a **tombstone** (the fact was deleted
//! by that commit). Versions live in a [`HeapFile`] and are found
//! through an [`OrderedIndex`] whose composite key is
//!
//! ```text
//! [u32 BE key length][key bytes][u64 BE lsn]
//! ```
//!
//! so all versions of one key are contiguous and sorted by LSN: a
//! snapshot read at LSN `s` is a short prefix scan that picks the
//! newest version with `lsn <= s`. Garbage collection drops versions
//! that no snapshot at or after `keep_lsn` can observe, always keeping
//! the newest version at or below the horizon (even a tombstone — it
//! still answers "deleted" for readers between it and the next
//! version). Fully-dead tombstone chains are reclaimed separately by
//! [`MvccStore::purge_tombstones`], which is observably safe: a read
//! that used to say "deleted" now says "absent", and the two are
//! indistinguishable to scans and reconstruction.

use std::collections::BTreeMap;
use std::fmt;

use crate::heap::HeapFile;
use crate::index::OrderedIndex;
use crate::page::PageError;

/// Heap-record tag for a deleted version.
const TAG_TOMBSTONE: u8 = 0x00;
/// Heap-record tag for a live value version.
const TAG_VALUE: u8 = 0x01;

/// Builds the composite index key for one version of a fact.
fn composite_key(key: &[u8], lsn: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len() + 8);
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&lsn.to_be_bytes());
    out
}

/// Splits a composite index key back into `(fact key, lsn)`.
fn split_composite(composite: &[u8]) -> (&[u8], u64) {
    let klen = u32::from_be_bytes(composite[..4].try_into().unwrap()) as usize;
    let key = &composite[4..4 + klen];
    let lsn = u64::from_be_bytes(composite[4 + klen..].try_into().unwrap());
    (key, lsn)
}

/// One visible version of a fact: its commit LSN and, for value
/// versions, the encoded record (`None` marks a tombstone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version<'a> {
    /// Commit LSN that produced this version.
    pub lsn: u64,
    /// Encoded record bytes, or `None` for a tombstone.
    pub value: Option<&'a [u8]>,
}

/// What one garbage-collection pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Version entries dropped (values and tombstones).
    pub versions_dropped: u64,
    /// Whole chains removed because only a dead tombstone remained.
    pub chains_purged: u64,
}

/// An LSN-versioned fact store over a heap file and an ordered index.
#[derive(Clone, Default)]
pub struct MvccStore {
    heap: HeapFile,
    index: OrderedIndex,
}

impl fmt::Debug for MvccStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MvccStore({} versions, {} heap pages)",
            self.index.len(),
            self.heap.page_count()
        )
    }
}

impl MvccStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total version entries (all keys, values and tombstones).
    pub fn version_count(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no versions at all.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Heap pages backing the version records.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Records a value version of `key` at `lsn`.
    pub fn put(&mut self, key: &[u8], lsn: u64, value: &[u8]) -> Result<(), PageError> {
        let mut record = Vec::with_capacity(1 + value.len());
        record.push(TAG_VALUE);
        record.extend_from_slice(value);
        let ptr = self.heap.insert(&record)?;
        if let Some(old) = self.index.insert(composite_key(key, lsn), ptr) {
            // Same key re-written within one commit: the newer record
            // wins and the shadowed one is dead space.
            let _ = self.heap.delete(old);
        }
        Ok(())
    }

    /// Records a tombstone version of `key` at `lsn`.
    pub fn delete(&mut self, key: &[u8], lsn: u64) -> Result<(), PageError> {
        let ptr = self.heap.insert(&[TAG_TOMBSTONE])?;
        if let Some(old) = self.index.insert(composite_key(key, lsn), ptr) {
            let _ = self.heap.delete(old);
        }
        Ok(())
    }

    /// The newest version of `key` with `lsn <= snapshot_lsn`, if any.
    pub fn version_at(&self, key: &[u8], snapshot_lsn: u64) -> Option<Version<'_>> {
        let lo = composite_key(key, 0);
        let hi = composite_key(key, snapshot_lsn.saturating_add(1));
        let (composite, ptr) = self
            .index
            .range(
                std::ops::Bound::Included(lo.as_slice()),
                std::ops::Bound::Excluded(hi.as_slice()),
            )
            .last()?;
        let (_, lsn) = split_composite(composite);
        let record = self.heap.get(ptr).expect("index points at live record");
        Some(Version {
            lsn,
            value: (record[0] == TAG_VALUE).then(|| &record[1..]),
        })
    }

    /// Snapshot read: the value of `key` as of `snapshot_lsn`, or
    /// `None` if absent or deleted there.
    pub fn get_at(&self, key: &[u8], snapshot_lsn: u64) -> Option<&[u8]> {
        self.version_at(key, snapshot_lsn).and_then(|v| v.value)
    }

    /// Every version of `key`, oldest first. Mainly for tests and
    /// invariant checks.
    pub fn versions(&self, key: &[u8]) -> Vec<Version<'_>> {
        let lo = composite_key(key, 0);
        let hi = composite_key(key, u64::MAX);
        let mut out: Vec<Version<'_>> = self
            .index
            .range(
                std::ops::Bound::Included(lo.as_slice()),
                std::ops::Bound::Included(hi.as_slice()),
            )
            .map(|(composite, ptr)| {
                let (_, lsn) = split_composite(composite);
                let record = self.heap.get(ptr).expect("index points at live record");
                Version {
                    lsn,
                    value: (record[0] == TAG_VALUE).then(|| &record[1..]),
                }
            })
            .collect();
        out.sort_by_key(|v| v.lsn);
        out
    }

    /// For each key, the newest version with `lsn <= snapshot_lsn`:
    /// the materialized image a snapshot at that LSN would see, as
    /// `(key, version)` pairs in key order. Tombstoned keys are
    /// included (with `value: None`) so callers can distinguish
    /// "deleted here" from "never stored".
    pub fn latest_upto(&self, snapshot_lsn: u64) -> Vec<(Vec<u8>, Version<'_>)> {
        let mut out: Vec<(Vec<u8>, Version<'_>)> = Vec::new();
        let mut current: Option<(Vec<u8>, Version<'_>)> = None;
        for (composite, ptr) in self
            .index
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
        {
            let (key, lsn) = split_composite(composite);
            if lsn > snapshot_lsn {
                continue;
            }
            let record = self.heap.get(ptr).expect("index points at live record");
            let version = Version {
                lsn,
                value: (record[0] == TAG_VALUE).then(|| &record[1..]),
            };
            match &mut current {
                Some((k, v)) if k.as_slice() == key => {
                    if lsn >= v.lsn {
                        *v = version;
                    }
                }
                _ => {
                    if let Some(done) = current.take() {
                        out.push(done);
                    }
                    current = Some((key.to_vec(), version));
                }
            }
        }
        if let Some(done) = current {
            out.push(done);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drops versions no snapshot at or after `keep_lsn` can observe:
    /// for each key, every version strictly older than the newest
    /// version with `lsn <= keep_lsn` goes away. The boundary version
    /// itself is kept even when it is a tombstone — readers between it
    /// and the next version still need the "deleted" answer, and
    /// incremental checkpoints read dirty keys' current versions from
    /// here. Use [`Self::purge_tombstones`] to reclaim chains that are
    /// nothing but a dead tombstone.
    pub fn gc(&mut self, keep_lsn: u64) -> GcStats {
        let mut stats = GcStats::default();
        let mut doomed: Vec<Vec<u8>> = Vec::new();
        let mut run_key: Option<Vec<u8>> = None;
        let mut run: Vec<(Vec<u8>, u64)> = Vec::new();
        let flush = |run: &mut Vec<(Vec<u8>, u64)>, doomed: &mut Vec<Vec<u8>>| {
            // `run` holds one key's versions with lsn <= keep_lsn in
            // LSN order; all but the newest are unobservable.
            run.sort_by_key(|(_, lsn)| *lsn);
            for (composite, _) in run.drain(..).rev().skip(1) {
                doomed.push(composite);
            }
        };
        for (composite, _) in self
            .index
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
        {
            let (key, lsn) = split_composite(composite);
            if lsn > keep_lsn {
                continue;
            }
            if run_key.as_deref() != Some(key) {
                flush(&mut run, &mut doomed);
                run_key = Some(key.to_vec());
            }
            run.push((composite.to_vec(), lsn));
        }
        flush(&mut run, &mut doomed);
        for composite in doomed {
            if let Some(ptr) = self.index.remove(&composite) {
                let _ = self.heap.delete(ptr);
                stats.versions_dropped += 1;
            }
        }
        self.heap.vacuum();
        stats
    }

    /// Reclaims chains that consist of exactly one tombstone with
    /// `lsn <= keep_lsn`: after [`Self::gc`] these answer "deleted"
    /// forever, which is indistinguishable from "absent". Call only
    /// once the tombstoned keys are no longer needed by incremental
    /// checkpointing (i.e. the dirty set covering them has been
    /// flushed).
    pub fn purge_tombstones(&mut self, keep_lsn: u64) -> GcStats {
        self.purge_if(keep_lsn, |v| v.value.is_none())
    }

    /// Reclaims single-version chains whose one version has
    /// `lsn <= keep_lsn` and satisfies `dead`. The generalization of
    /// [`Self::purge_tombstones`] for callers that encode deletion
    /// *inside* their record bytes rather than via store tombstones:
    /// such a chain answers the same dead record forever, which the
    /// caller's predicate certifies is indistinguishable from absence.
    pub fn purge_if(&mut self, keep_lsn: u64, dead: impl Fn(&Version<'_>) -> bool) -> GcStats {
        let mut stats = GcStats::default();
        let mut doomed: Vec<Vec<u8>> = Vec::new();
        let mut run_key: Option<Vec<u8>> = None;
        // (composite, is_dead) per version of the current key.
        let mut run: Vec<(Vec<u8>, bool)> = Vec::new();
        let flush = |run: &mut Vec<(Vec<u8>, bool)>, doomed: &mut Vec<Vec<u8>>| {
            if run.len() == 1 && run[0].1 {
                doomed.push(run[0].0.clone());
            }
            run.clear();
        };
        let entries: Vec<(Vec<u8>, crate::heap::RecordPtr)> = self
            .index
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .map(|(k, p)| (k.to_vec(), p))
            .collect();
        for (composite, ptr) in entries {
            let (key, lsn) = split_composite(&composite);
            if run_key.as_deref() != Some(key) {
                flush(&mut run, &mut doomed);
                run_key = Some(key.to_vec());
            }
            let is_dead = lsn <= keep_lsn
                && self
                    .heap
                    .get(ptr)
                    .map(|record| {
                        dead(&Version {
                            lsn,
                            value: (record[0] == TAG_VALUE).then_some(&record[1..]),
                        })
                    })
                    .unwrap_or(false);
            run.push((composite, is_dead));
        }
        flush(&mut run, &mut doomed);
        for composite in doomed {
            if let Some(ptr) = self.index.remove(&composite) {
                let _ = self.heap.delete(ptr);
                stats.versions_dropped += 1;
                stats.chains_purged += 1;
            }
        }
        self.heap.vacuum();
        stats
    }
}

/// Reference counts of live snapshot pins, keyed by LSN. The oldest
/// pinned LSN is the GC horizon: versions only a younger snapshot
/// could need stay; everything older than what the oldest pin can see
/// goes.
#[derive(Clone, Debug, Default)]
pub struct PinSet {
    pins: BTreeMap<u64, usize>,
}

impl PinSet {
    /// An empty pin set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a snapshot at `lsn`.
    pub fn pin(&mut self, lsn: u64) {
        *self.pins.entry(lsn).or_insert(0) += 1;
    }

    /// Releases one snapshot at `lsn`.
    pub fn unpin(&mut self, lsn: u64) {
        if let Some(count) = self.pins.get_mut(&lsn) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&lsn);
            }
        }
    }

    /// The oldest pinned LSN, if any snapshot is live.
    pub fn oldest(&self) -> Option<u64> {
        self.pins.keys().next().copied()
    }

    /// Number of live pins across all LSNs.
    pub fn live(&self) -> usize {
        self.pins.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_pick_newest_version_at_or_below_lsn() {
        let mut s = MvccStore::new();
        s.put(b"k", 1, b"v1").unwrap();
        s.put(b"k", 5, b"v5").unwrap();
        s.delete(b"k", 9).unwrap();
        assert_eq!(s.get_at(b"k", 0), None, "before first version");
        assert_eq!(s.get_at(b"k", 1), Some(&b"v1"[..]));
        assert_eq!(s.get_at(b"k", 4), Some(&b"v1"[..]));
        assert_eq!(s.get_at(b"k", 5), Some(&b"v5"[..]));
        assert_eq!(s.get_at(b"k", 8), Some(&b"v5"[..]));
        assert_eq!(s.get_at(b"k", 9), None, "tombstone at 9");
        assert_eq!(s.get_at(b"k", u64::MAX - 1), None);
        assert_eq!(
            s.version_at(b"k", 9),
            Some(Version {
                lsn: 9,
                value: None
            })
        );
    }

    #[test]
    fn keys_do_not_interfere() {
        let mut s = MvccStore::new();
        s.put(b"a", 1, b"av").unwrap();
        s.put(b"ab", 2, b"abv").unwrap();
        s.put(b"b", 3, b"bv").unwrap();
        assert_eq!(s.get_at(b"a", 10), Some(&b"av"[..]));
        assert_eq!(s.get_at(b"ab", 10), Some(&b"abv"[..]));
        assert_eq!(s.get_at(b"ab", 1), None);
        assert_eq!(s.get_at(b"b", 10), Some(&b"bv"[..]));
        assert_eq!(s.version_count(), 3);
    }

    #[test]
    fn latest_upto_materializes_a_snapshot_image() {
        let mut s = MvccStore::new();
        s.put(b"x", 1, b"x1").unwrap();
        s.put(b"x", 4, b"x4").unwrap();
        s.put(b"y", 2, b"y2").unwrap();
        s.delete(b"y", 3).unwrap();
        s.put(b"z", 6, b"z6").unwrap();
        let at5: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = s
            .latest_upto(5)
            .into_iter()
            .map(|(k, v)| (k, v.lsn, v.value.map(|b| b.to_vec())))
            .collect();
        assert_eq!(
            at5,
            vec![
                (b"x".to_vec(), 4, Some(b"x4".to_vec())),
                (b"y".to_vec(), 3, None),
            ]
        );
    }

    #[test]
    fn gc_keeps_the_boundary_version_even_when_it_is_a_tombstone() {
        let mut s = MvccStore::new();
        s.put(b"k", 1, b"v1").unwrap();
        s.delete(b"k", 3).unwrap();
        s.put(b"k", 7, b"v7").unwrap();
        let stats = s.gc(5);
        assert_eq!(stats.versions_dropped, 1, "v1 is unobservable at 5+");
        assert_eq!(s.get_at(b"k", 5), None, "tombstone at 3 still answers");
        assert_eq!(s.get_at(b"k", 7), Some(&b"v7"[..]));
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn gc_never_drops_versions_above_the_horizon() {
        let mut s = MvccStore::new();
        for lsn in 1..=10u64 {
            s.put(b"k", lsn, format!("v{lsn}").as_bytes()).unwrap();
        }
        let stats = s.gc(4);
        assert_eq!(stats.versions_dropped, 3, "lsns 1..=3 go, 4..=10 stay");
        for lsn in 4..=10u64 {
            assert_eq!(
                s.get_at(b"k", lsn),
                Some(format!("v{lsn}").as_bytes()),
                "version at {lsn} survives"
            );
        }
    }

    #[test]
    fn purge_reclaims_dead_tombstone_chains_only() {
        let mut s = MvccStore::new();
        s.put(b"dead", 1, b"dv").unwrap();
        s.delete(b"dead", 2).unwrap();
        s.put(b"live", 1, b"lv").unwrap();
        s.delete(b"gone-later", 8).unwrap();
        s.gc(5);
        let stats = s.purge_tombstones(5);
        assert_eq!(stats.chains_purged, 1, "only the dead chain at lsn 2");
        assert_eq!(s.get_at(b"dead", 5), None, "absent == deleted");
        assert_eq!(s.get_at(b"live", 5), Some(&b"lv"[..]));
        assert_eq!(
            s.version_at(b"gone-later", 8),
            Some(Version {
                lsn: 8,
                value: None
            }),
            "tombstone above the horizon is untouched"
        );
    }

    #[test]
    fn heap_space_is_reclaimed_by_gc() {
        let mut s = MvccStore::new();
        let big = vec![7u8; 512];
        for lsn in 1..=64u64 {
            s.put(b"hot", lsn, &big).unwrap();
        }
        let pages_before = s.page_count();
        s.gc(64);
        assert_eq!(s.version_count(), 1);
        assert!(
            s.heap.dead_space() == 0,
            "gc vacuums the heap: {} dead bytes",
            s.heap.dead_space()
        );
        assert!(pages_before >= s.page_count());
    }

    #[test]
    fn rewrite_within_one_lsn_keeps_the_newer_record() {
        let mut s = MvccStore::new();
        s.put(b"k", 2, b"first").unwrap();
        s.put(b"k", 2, b"second").unwrap();
        assert_eq!(s.get_at(b"k", 2), Some(&b"second"[..]));
        assert_eq!(s.version_count(), 1);
    }

    #[test]
    fn pin_set_tracks_the_oldest_live_snapshot() {
        let mut p = PinSet::new();
        assert_eq!(p.oldest(), None);
        p.pin(7);
        p.pin(3);
        p.pin(3);
        assert_eq!(p.oldest(), Some(3));
        assert_eq!(p.live(), 3);
        p.unpin(3);
        assert_eq!(p.oldest(), Some(3), "one pin at 3 remains");
        p.unpin(3);
        assert_eq!(p.oldest(), Some(7));
        p.unpin(7);
        assert_eq!(p.oldest(), None);
        assert_eq!(p.live(), 0);
    }
}
