//! A list that lives inside its owner while it is short.
//!
//! Per registered page the sniffer and the invalidator keep lists that
//! nearly always hold one element — the map rows of a page, the query types
//! feeding it, the instances posted under one indexed value. A `Vec` pays a
//! heap block (and its 24-byte header) for each; an [`InlineVec`] keeps up
//! to `N` elements in place and moves to the heap only past that.

/// Up to `N` elements in place, more on the heap. Order is insertion order.
#[derive(Debug, Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Debug, Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` of `items` are the list; the rest are `T::default()`.
    Inline { len: u8, items: [T; N] },
    /// Boxed, so that the in-place form sets the size of the whole.
    #[allow(clippy::box_collection)]
    Heap(Box<Vec<T>>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "the in-place length is a byte") };
        InlineVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// The elements, in insertion order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(items) => items,
        }
    }

    /// The elements, to reorder or overwrite in place.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Heap(items) => items,
        }
    }

    /// Append `item`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N.max(1));
                heap.extend_from_slice(items);
                heap.push(item);
                self.0 = Repr::Heap(Box::new(heap));
            }
            Repr::Heap(items) => items.push(item),
        }
    }

    /// Insert `item` before position `at` (`at <= len`).
    pub fn insert(&mut self, at: usize, item: T) {
        self.push(item);
        self.as_mut_slice()[at..].rotate_right(1);
    }

    /// Keep the elements `keep` accepts, in order. A list on the heap stays
    /// there.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for at in 0..*len as usize {
                    if keep(&items[at]) {
                        items[kept] = items[at];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Heap(items) => items.retain(keep),
        }
    }

    /// Drop every element.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(items) => items.clear(),
        }
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

/// `rows.push(row)` for a vector with a row per registered page: a full
/// buffer grows by an eighth (still geometrically, so a push stays constant
/// time amortised) where `Vec::push` would double it — half a site's worth
/// of spare rows just past every power of two.
pub fn push_tight<T>(rows: &mut Vec<T>, row: T) {
    if rows.len() == rows.capacity() {
        rows.reserve_exact((rows.len() / 8).max(8));
    }
    rows.push(row);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_vec_across_the_spill() {
        let mut list: InlineVec<u32, 3> = InlineVec::new();
        let mut model: Vec<u32> = Vec::new();
        for i in 0..10 {
            list.push(i);
            model.push(i);
            assert_eq!(&*list, &model[..]);
        }
        list.insert(0, 99);
        model.insert(0, 99);
        list.insert(4, 77);
        model.insert(4, 77);
        assert_eq!(&*list, &model[..]);
        list.retain(|v| v % 2 == 1);
        model.retain(|v| v % 2 == 1);
        assert_eq!(&*list, &model[..]);
        list.clear();
        assert!(list.is_empty());
    }

    #[test]
    fn inline_insert_and_retain() {
        let mut list: InlineVec<u32, 5> = InlineVec::new();
        for v in [5, 1, 3] {
            let at = list.binary_search(&v).unwrap_or_else(|at| at);
            list.insert(at, v);
        }
        assert_eq!(&*list, &[1, 3, 5]);
        list.retain(|&v| v != 3);
        assert_eq!(&*list, &[1, 5]);
        list.as_mut_slice().reverse();
        assert_eq!(&*list, &[5, 1]);
    }

    #[test]
    fn a_tight_vector_keeps_an_eighth_to_spare() {
        let mut rows = Vec::new();
        for i in 0..10_000u32 {
            push_tight(&mut rows, i);
            assert!(rows.capacity() <= rows.len() + (rows.len() / 8).max(8));
        }
        assert!(rows.iter().copied().eq(0..10_000));
    }

    #[test]
    fn three_row_numbers_take_the_room_of_a_page_key() {
        assert_eq!(std::mem::size_of::<InlineVec<u32, 3>>(), 16);
    }
}
