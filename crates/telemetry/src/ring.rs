//! Per-thread lock-free event rings.
//!
//! Every recording thread owns one fixed-capacity [`Ring`], created and
//! registered on its first event — so the hot path never allocates and
//! never takes a lock. The ring is a seqlock-style single-producer
//! buffer: the owner writes a slot's words with relaxed atomic stores
//! and then publishes the slot by bumping the head sequence with a
//! release store. Any thread may copy the ring out concurrently
//! ([`crate::snapshot`]): it reads the head, copies raw slot words, then
//! re-reads the head and discards entries the producer may have
//! overwritten in the meantime — including, conservatively, the one
//! event exactly one ring-lap behind the re-read head, whose slot an
//! in-flight push may be rewriting before its head bump. Torn events
//! are thus impossible by construction, full rings overwrite their
//! oldest entries, and nothing is ever reported twice thanks to a
//! per-ring floor sequence advanced by [`crate::clear`] (which also
//! reclaims the rings of exited threads).

use crate::{Event, EventKind, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread ring. At 48 bytes per slot this is
/// ~192 KiB per recording thread, allocated once at ring registration
/// (off the hot path) and held until the thread exits *and*
/// [`crate::clear`] reclaims the orphaned ring — instrumenting many
/// short-lived threads without clearing keeps every ring alive.
pub const RING_CAPACITY: usize = 4096;

/// Words per slot: name pointer, name length, kind, timestamp, value,
/// arg.
const SLOT_WORDS: usize = 6;

/// One thread's event ring. See the [module docs](self) for the
/// publication protocol.
pub struct Ring {
    /// Dense thread id, assigned in registration order.
    tid: u64,
    /// Next absolute event sequence number (monotonic; slot = seq % cap).
    head: AtomicU64,
    /// Sequences below the floor are logically cleared.
    floor: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(tid: u64) -> Ring {
        Ring {
            tid,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: (0..RING_CAPACITY * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Writes one event. Must only be called by the owning thread.
    fn push(&self, ev: &Event) {
        let seq = self.head.load(Ordering::Relaxed);
        let base = (seq as usize % RING_CAPACITY) * SLOT_WORDS;
        let words = [
            ev.name.as_ptr() as u64,
            ev.name.len() as u64,
            ev.kind.as_u64(),
            ev.ts_ns,
            ev.value,
            ev.arg,
        ];
        for (slot, w) in self.slots[base..base + SLOT_WORDS].iter().zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
        // Publish: a reader that observes head > seq also observes the
        // slot words above.
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Copies the live events out, appending to `out`; returns how many
    /// events were dropped (overwritten or torn mid-copy).
    fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let floor = self.floor.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        let start = floor.max(head.saturating_sub(RING_CAPACITY as u64));
        let mut dropped = start - floor;
        let mut copied: Vec<(u64, [u64; SLOT_WORDS])> = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let base = (seq as usize % RING_CAPACITY) * SLOT_WORDS;
            let mut words = [0u64; SLOT_WORDS];
            for (w, slot) in words.iter_mut().zip(&self.slots[base..base + SLOT_WORDS]) {
                *w = slot.load(Ordering::Relaxed);
            }
            copied.push((seq, words));
        }
        // Anything the producer lapped while we copied may be torn, and
        // so may the event exactly one lap behind the head: its slot is
        // shared with seq `head_after`, whose push may be writing words
        // right now without having bumped the head yet. Discard both
        // instead of decoding garbage — the boundary event is dropped
        // conservatively even when no push is in flight.
        let head_after = self.head.load(Ordering::Acquire);
        let valid_from = (head_after + 1).saturating_sub(RING_CAPACITY as u64);
        for (seq, words) in copied {
            if seq < valid_from {
                dropped += 1;
                continue;
            }
            // SAFETY: `seq >= valid_from` means this slot was neither
            // overwritten between the two head reads nor shared with an
            // in-flight push of seq `head_after`, so the words are
            // exactly what one completed `push` stored: a decomposed
            // `&'static str` plus plain integers.
            let name = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    words[0] as *const u8,
                    words[1] as usize,
                ))
            };
            out.push(Event {
                name,
                kind: EventKind::from_u64(words[2]),
                tid: self.tid,
                ts_ns: words[3],
                value: words[4],
                arg: words[5],
            });
        }
        dropped
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Dense thread ids come from a counter that survives registry pruning,
/// so a fresh ring never reuses an id already reported in snapshots.
fn next_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    NEXT_TID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static LOCAL_RING: Arc<Ring> = {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(Ring::new(next_tid()));
        reg.push(Arc::clone(&ring));
        ring
    };
}

/// Records one event into the calling thread's ring (creating and
/// registering the ring on first use).
pub(crate) fn record(ev: Event) {
    LOCAL_RING.with(|r| r.push(&ev));
}

/// Copies every registered ring into one time-ordered snapshot.
pub(crate) fn snapshot_all() -> Snapshot {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut snap = Snapshot {
        events: Vec::new(),
        dropped: 0,
        threads: rings.len(),
    };
    for ring in &rings {
        snap.dropped += ring.drain_into(&mut snap.events);
    }
    snap.events.sort_by_key(|e| (e.ts_ns, e.tid));
    snap
}

/// Logically empties every ring by advancing its floor to its head, and
/// unregisters rings whose owning thread has exited (the registry holds
/// their only remaining `Arc`; the owner's thread-local clone dropped at
/// thread exit) so short-lived instrumented threads do not leak ring
/// storage for the process lifetime.
pub(crate) fn clear_all() {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.retain(|ring| Arc::strong_count(ring) > 1);
    for ring in reg.iter() {
        ring.floor
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts: u64) -> Event {
        Event {
            name,
            kind: EventKind::Counter,
            tid: 0,
            ts_ns: ts,
            value: 1,
            arg: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = Ring::new(9);
        let n = RING_CAPACITY as u64 + 100;
        for i in 0..n {
            ring.push(&ev("ring.test", i));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        // The oldest surviving slot is shared with the next push, so the
        // drain conservatively discards it too: capacity - 1 events come
        // back and the boundary event counts as dropped.
        assert_eq!(out.len(), RING_CAPACITY - 1);
        assert_eq!(dropped, 101);
        // The survivors are the newest entries, in order.
        assert_eq!(out[0].ts_ns, 101);
        assert_eq!(out.last().unwrap().ts_ns, n - 1);
        assert!(out.iter().all(|e| e.tid == 9 && e.name == "ring.test"));
    }

    #[test]
    fn floor_hides_cleared_events() {
        let ring = Ring::new(0);
        for i in 0..10 {
            ring.push(&ev("ring.floor", i));
        }
        ring.floor
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
        for i in 10..13 {
            ring.push(&ev("ring.floor", i));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, 0, "cleared events are not drops");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].ts_ns, 10);
    }

    #[test]
    fn concurrent_writer_never_produces_torn_events() {
        // One writer laps the ring while a reader snapshots repeatedly:
        // every decoded event must be internally consistent (name and
        // value always agree).
        let ring = Arc::new(Ring::new(1));
        let w = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let (name, value): (&'static str, u64) = if i % 2 == 0 {
                        ("ring.even", 2)
                    } else {
                        ("ring.odd", 3)
                    };
                    ring.push(&Event {
                        name,
                        kind: EventKind::Counter,
                        tid: 0,
                        ts_ns: i,
                        value,
                        arg: i,
                    });
                }
            })
        };
        for _ in 0..50 {
            let mut out = Vec::new();
            let _ = ring.drain_into(&mut out);
            for e in &out {
                let want = if e.arg % 2 == 0 {
                    ("ring.even", 2)
                } else {
                    ("ring.odd", 3)
                };
                assert_eq!((e.name, e.value), want, "torn event {e:?}");
                assert_eq!(e.ts_ns, e.arg);
            }
        }
        w.join().unwrap();
    }
}
