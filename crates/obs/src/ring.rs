//! The one bounded ring every log in this crate keeps its records in.
//!
//! A ring numbers what it is given (dense, from 0, never reused), keeps the
//! newest `capacity` items and counts the ones it let go, so a reader can
//! tell "never recorded" from "rotated out". Because the numbering is dense
//! and only the front is ever dropped, an item's place is its sequence
//! number less the front's: lookups and cursors are arithmetic, not scans.
//!
//! The ring does no locking. Each owner puts it behind the mutex that
//! guards whatever else has to change with it (the provenance log's
//! indexes, the SLO engine's firing state, the recorder's two rings).

use std::collections::VecDeque;

/// The newest `capacity` items of everything pushed, numbered as pushed.
#[derive(Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring keeping at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Self {
        Ring { items: VecDeque::new(), capacity: capacity.max(1), recorded: 0, dropped: 0 }
    }

    /// Append the item `make` builds from its sequence number. Returns that
    /// number and the item that had to go to make room, if one did.
    pub fn push(&mut self, make: impl FnOnce(u64) -> T) -> (u64, Option<T>) {
        let seq = self.recorded;
        self.recorded += 1;
        let evicted = if self.items.len() == self.capacity {
            self.dropped += 1;
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(make(seq));
        (seq, evicted)
    }

    /// Items ever pushed: the next sequence number.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items let go to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items held now.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The held items, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.items.iter()
    }

    /// The item numbered `seq`, while it is held.
    pub fn get(&self, seq: u64) -> Option<&T> {
        let front = self.recorded - self.items.len() as u64;
        self.items.get(usize::try_from(seq.checked_sub(front)?).ok()?)
    }

    /// The newest `n` items, oldest first.
    pub fn recent(&self, n: usize) -> impl Iterator<Item = &T> {
        self.items.iter().skip(self.items.len().saturating_sub(n))
    }

    /// The held items numbered `cursor` and up, oldest first.
    pub fn since(&self, cursor: u64) -> impl Iterator<Item = &T> {
        let front = self.recorded - self.items.len() as u64;
        let skip = usize::try_from(cursor.saturating_sub(front)).unwrap_or(usize::MAX);
        self.items.iter().skip(skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_and_counts_the_rest() {
        let mut ring = Ring::new(3);
        for i in 0..3u64 {
            assert_eq!(ring.push(|seq| seq * 10), (i, None));
        }
        assert_eq!((ring.recorded(), ring.dropped(), ring.len()), (3, 0, 3));
        // The fourth push evicts the first item and hands it back.
        assert_eq!(ring.push(|seq| seq * 10), (3, Some(0)));
        assert_eq!(ring.push(|seq| seq * 10), (4, Some(10)));
        assert_eq!((ring.recorded(), ring.dropped(), ring.len()), (5, 2, 3));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![20, 30, 40]);
    }

    #[test]
    fn recent_and_since_across_an_overflow() {
        let mut ring = Ring::new(4);
        for _ in 0..10 {
            ring.push(|seq| seq);
        }
        // Held: 6, 7, 8, 9.
        assert_eq!(ring.recent(2).copied().collect::<Vec<_>>(), vec![8, 9]);
        assert_eq!(ring.recent(99).copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(ring.recent(0).count(), 0);
        // A cursor behind the front starts at the front: the gap is the
        // first item's number less the cursor.
        assert_eq!(ring.since(0).copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(ring.since(8).copied().collect::<Vec<_>>(), vec![8, 9]);
        assert_eq!(ring.since(10).count(), 0);
        assert_eq!(ring.since(u64::MAX).count(), 0);
        assert_eq!(ring.get(5), None);
        assert_eq!(ring.get(6), Some(&6));
        assert_eq!(ring.get(9), Some(&9));
        assert_eq!(ring.get(10), None);
    }

    #[test]
    fn a_ring_of_no_capacity_still_holds_one() {
        let mut ring = Ring::new(0);
        ring.push(|_| 'a');
        assert_eq!(ring.push(|_| 'b'), (1, Some('a')));
        assert_eq!(ring.len(), 1);
    }
}
