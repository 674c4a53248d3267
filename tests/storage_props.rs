//! Property tests for the storage primitives the MVCC tier is built on.
//!
//! Three layers, three contracts:
//!
//! - **page / heap / index** — slotted-page round-trips, compaction
//!   that loses no live record, and model-checked index behaviour;
//! - **WAL framing** — the torn-write harness: a log cut at *every*
//!   byte offset, and single-byte corruption anywhere in a frame, must
//!   yield exactly an intact record prefix plus a typed tail error —
//!   never a wrong record;
//! - **MvccStore** — model-checked snapshot reads: `get_at` agrees with
//!   a naive version map at every (key, snapshot) point, and neither
//!   `gc` nor tombstone purging changes any read at or above the
//!   retention horizon;
//! - **garbage** — random and mutated byte strings fed to
//!   `decode_tuple` and to `wal::decode_frame` at every offset return a
//!   typed result and never panic.

#[path = "common/garbage.rs"]
mod garbage;

use std::collections::BTreeMap;

use proptest::prelude::*;

use garbage::Garbage;

use borkin_equiv::storage::heap::HeapFile;
use borkin_equiv::storage::index::OrderedIndex;
use borkin_equiv::storage::mvcc::MvccStore;
use borkin_equiv::storage::page::Page;
use borkin_equiv::storage::wal;
use borkin_equiv::storage::{decode_tuple, encode_tuple, RecordPtr};
use borkin_equiv::value::{Atom, Tuple, Value};

/// Deterministic case-local randomness (the proptest shim hands us a
/// seed; everything else derives from it).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slotted pages: every inserted record reads back verbatim, slots
    /// survive deletes of *other* slots, and compaction reclaims all
    /// dead space without disturbing a single live record or slot id.
    #[test]
    fn page_round_trips_and_compacts_losslessly(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut page = Page::new();
        let mut live: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
        loop {
            let len = 1 + rng.below(120) as usize;
            let record = rng.bytes(len);
            match page.insert(&record) {
                Ok(slot) => {
                    prop_assert!(live.insert(slot, record).is_none(), "slot reused while live");
                }
                Err(_) => break, // page full — exactly what we wanted
            }
        }
        prop_assert!(live.len() >= 2, "page holds a useful number of records");
        // Delete about a third of the slots.
        let doomed: Vec<u16> = live
            .keys()
            .copied()
            .filter(|_| rng.below(3) == 0)
            .collect();
        for slot in &doomed {
            page.delete(*slot).unwrap();
            live.remove(slot);
        }
        if !doomed.is_empty() {
            prop_assert!(page.dead_space() > 0);
        }
        page.compact();
        prop_assert_eq!(page.dead_space(), 0, "compaction reclaims all dead bytes");
        for (slot, record) in &live {
            prop_assert_eq!(page.get(*slot).unwrap(), record.as_slice());
        }
        for slot in &doomed {
            prop_assert!(page.get(*slot).is_err(), "deleted slot stays dead");
        }
        let scanned: BTreeMap<u16, Vec<u8>> = page
            .live_records()
            .map(|(s, r)| (s, r.to_vec()))
            .collect();
        prop_assert_eq!(scanned, live);
    }

    /// Heap files: records spill across pages, vacuum compacts every
    /// page, and — the invariant MVCC leans on — record pointers stay
    /// valid across vacuum.
    #[test]
    fn heap_pointers_survive_vacuum(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut heap = HeapFile::new();
        let mut live: BTreeMap<(u32, u16), Vec<u8>> = BTreeMap::new();
        let mut doomed: Vec<RecordPtr> = Vec::new();
        for _ in 0..400 {
            let len = 1 + rng.below(300) as usize;
            let record = rng.bytes(len);
            let ptr = heap.insert(&record).unwrap();
            if rng.below(3) == 0 {
                doomed.push(ptr);
            } else {
                live.insert((ptr.page, ptr.slot), record);
            }
        }
        prop_assert!(heap.page_count() > 1, "the workload must span pages");
        for ptr in &doomed {
            heap.delete(*ptr).unwrap();
        }
        heap.vacuum();
        prop_assert_eq!(heap.dead_space(), 0);
        prop_assert_eq!(heap.len(), live.len());
        for (&(page, slot), record) in &live {
            prop_assert_eq!(
                heap.get(RecordPtr { page, slot }).unwrap(),
                record.as_slice(),
                "pointer moved under vacuum"
            );
        }
        let scanned: BTreeMap<(u32, u16), Vec<u8>> = heap
            .scan()
            .map(|(p, r)| ((p.page, p.slot), r.to_vec()))
            .collect();
        prop_assert_eq!(scanned, live);
    }

    /// The ordered index against a `BTreeMap` model: point reads,
    /// upserts, removals, and range/prefix scans all agree.
    #[test]
    fn ordered_index_matches_btreemap_model(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut index = OrderedIndex::new();
        let mut model: BTreeMap<Vec<u8>, RecordPtr> = BTreeMap::new();
        let ptr = |n: u64| RecordPtr { page: (n >> 16) as u32, slot: n as u16 };
        for i in 0..500u64 {
            let len = 1 + rng.below(6) as usize;
            let key = rng.bytes(len);
            if rng.below(4) == 0 {
                prop_assert_eq!(index.remove(&key), model.remove(&key));
            } else {
                prop_assert_eq!(index.insert(key.clone(), ptr(i)), model.insert(key, ptr(i)));
            }
        }
        prop_assert_eq!(index.len(), model.len());
        for (key, p) in &model {
            prop_assert_eq!(index.get(key), Some(*p));
        }
        let (mut lo, mut hi) = (rng.bytes(2), rng.bytes(2));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let got: Vec<(Vec<u8>, RecordPtr)> = index
            .range(
                std::ops::Bound::Included(lo.as_slice()),
                std::ops::Bound::Excluded(hi.as_slice()),
            )
            .map(|(k, p)| (k.to_vec(), p))
            .collect();
        let want: Vec<(Vec<u8>, RecordPtr)> = model
            .range(lo..hi)
            .map(|(k, p)| (k.clone(), *p))
            .collect();
        prop_assert_eq!(got, want);
        let prefix = rng.bytes(1);
        let got: Vec<Vec<u8>> = index.prefix(&prefix).map(|(k, _)| k.to_vec()).collect();
        let want: Vec<Vec<u8>> = model
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The torn-write harness: cut a multi-record log at **every** byte
    /// offset. Tolerant replay must return exactly the records whose
    /// frames survive complete — bitwise intact — and flag a torn tail
    /// precisely when the cut lands mid-frame.
    #[test]
    fn wal_cut_at_every_byte_yields_an_intact_prefix(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut buf = Vec::new();
        let mut records = Vec::new();
        let mut ends = vec![0usize];
        for lsn in 1..=8u64 {
            let len = rng.below(60) as usize;
            let payload = rng.bytes(len);
            let trace = (rng.below(2) == 0).then(|| rng.next());
            wal::append_record_traced(&mut buf, lsn, trace, &payload);
            records.push((lsn, trace, payload));
            ends.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let (got, tail) = wal::replay_tolerant(&buf[..cut]);
            let complete = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
            prop_assert_eq!(got.len(), complete, "cut {}", cut);
            for (r, (lsn, trace, payload)) in got.iter().zip(&records) {
                prop_assert_eq!(r.lsn, *lsn);
                prop_assert_eq!(r.trace, *trace);
                prop_assert_eq!(&r.payload, payload);
            }
            prop_assert_eq!(
                tail.is_some(),
                cut != ends[complete],
                "tail error iff the cut is mid-frame (cut {})",
                cut
            );
        }
    }

    /// Single-byte corruption anywhere in the log: the checksum (or
    /// frame header validation) stops replay at the corrupt frame.
    /// Everything before it is returned bitwise intact; nothing at or
    /// after it leaks through as a "decoded" record.
    #[test]
    fn wal_single_byte_corruption_never_yields_a_wrong_record(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut buf = Vec::new();
        let mut records = Vec::new();
        let mut ends = vec![0usize];
        for lsn in 1..=6u64 {
            let len = 1 + rng.below(40) as usize;
            let payload = rng.bytes(len);
            wal::append_record_traced(&mut buf, lsn, Some(rng.next()), &payload);
            records.push((lsn, payload));
            ends.push(buf.len());
        }
        let at = rng.below(buf.len() as u64) as usize;
        let mut corrupt = buf.clone();
        corrupt[at] ^= 1 << rng.below(8);
        let (got, tail) = wal::replay_tolerant(&corrupt);
        // The flipped byte lives in frame k: frames 0..k replay intact.
        let k = ends.iter().filter(|&&e| e > 0 && e <= at).count();
        prop_assert_eq!(got.len(), k, "replay stops at the corrupt frame");
        prop_assert!(tail.is_some(), "corruption is reported, not swallowed");
        for (r, (lsn, payload)) in got.iter().zip(&records) {
            prop_assert_eq!(r.lsn, *lsn);
            prop_assert_eq!(&r.payload, payload);
        }
    }

    /// `MvccStore` against a naive model: a random history of puts and
    /// deletes over a small key pool, then `get_at` checked at every
    /// (key, snapshot) point; `gc` and tombstone purging must not
    /// change any read at or above their horizon.
    #[test]
    fn mvcc_snapshot_reads_match_the_model_through_gc(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut store = MvccStore::new();
        // key -> lsn -> value (None = tombstone)
        let mut model: BTreeMap<Vec<u8>, BTreeMap<u64, Option<Vec<u8>>>> = BTreeMap::new();
        let keys: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'k', i]).collect();
        let max_lsn = 40u64;
        for lsn in 1..=max_lsn {
            let key = &keys[rng.below(keys.len() as u64) as usize];
            if rng.below(3) == 0 {
                store.delete(key, lsn).unwrap();
                model.entry(key.clone()).or_default().insert(lsn, None);
            } else {
                let len = 1 + rng.below(20) as usize;
                let value = rng.bytes(len);
                store.put(key, lsn, &value).unwrap();
                model.entry(key.clone()).or_default().insert(lsn, Some(value));
            }
        }
        let model_read = |model: &BTreeMap<Vec<u8>, BTreeMap<u64, Option<Vec<u8>>>>,
                          key: &[u8],
                          snapshot: u64| {
            model
                .get(key)
                .and_then(|versions| versions.range(..=snapshot).next_back())
                .and_then(|(_, v)| v.clone())
        };
        for snapshot in 0..=max_lsn {
            for key in &keys {
                prop_assert_eq!(
                    store.get_at(key, snapshot).map(<[u8]>::to_vec),
                    model_read(&model, key, snapshot),
                    "key {:?} at snapshot {}",
                    key,
                    snapshot
                );
            }
        }
        // GC below a random horizon: reads at or above it are untouched.
        let horizon = rng.below(max_lsn + 1);
        let before = store.version_count();
        store.gc(horizon);
        prop_assert!(store.version_count() <= before);
        store.purge_tombstones(horizon);
        for snapshot in horizon..=max_lsn {
            for key in &keys {
                prop_assert_eq!(
                    store.get_at(key, snapshot).map(<[u8]>::to_vec),
                    model_read(&model, key, snapshot),
                    "post-gc key {:?} at snapshot {}",
                    key,
                    snapshot
                );
            }
        }
    }

    /// Random and mutated tuple blobs decode to a typed error or to the
    /// one tuple that re-encodes to exactly those bytes.
    #[test]
    fn garbage_tuples_are_typed_errors_or_canonical(seed in 0u64..1_000_000) {
        let mut junk = Garbage(seed);
        for _ in 0..64 {
            let valid = encode_tuple(&Tuple::new((0..junk.below(4)).map(|_| match junk.below(4) {
                0 => Value::Null,
                1 => Value::Atom(Atom::Bool(junk.below(2) == 0)),
                2 => Value::Atom(Atom::Int(junk.next() as i64)),
                _ => Value::Atom(Atom::Str("λx".repeat(junk.below(3) as usize))),
            })));
            for bytes in [junk.mutate(&valid), junk.bytes(24)] {
                if let Ok(tuple) = decode_tuple(&bytes) {
                    prop_assert_eq!(encode_tuple(&tuple), bytes);
                }
            }
        }
    }

    /// `decode_frame` at every offset up to and including the end of a
    /// random or mutated log returns a typed result: a frame that lies
    /// inside the buffer, or an error. At the end it is always
    /// `Truncated`, which is how a frame scan knows to stop.
    #[test]
    fn decode_frame_at_every_offset_is_typed(seed in 0u64..1_000_000) {
        let mut junk = Garbage(seed);
        let mut log = Vec::new();
        for lsn in 1..=4u64 {
            let payload = junk.bytes(24);
            let span = (junk.below(2) == 0).then(|| (junk.next() | 1, junk.next()));
            wal::append_record_spanned(&mut log, lsn, Some(junk.next()), span, &payload);
        }
        for bytes in [junk.mutate(&log), junk.mutate(&log), junk.bytes(96)] {
            for at in 0..=bytes.len() {
                match wal::decode_frame(&bytes, at) {
                    Ok((record, len)) => {
                        prop_assert!(at + len <= bytes.len(), "frame at {} overruns", at);
                        prop_assert_eq!(record.frame_len(), len);
                    }
                    Err(e) => prop_assert!(
                        at < bytes.len() || e == wal::WalError::Truncated { at },
                        "at the end: {:?}",
                        e
                    ),
                }
            }
        }
    }
}
