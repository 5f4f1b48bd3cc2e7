//! Per-thread reusable scratch allocations.
//!
//! The register VM (and any other hot executor) needs per-invocation
//! working memory — register banks, slot banks, resolved-tunable
//! tables. Allocating those on every invocation dominates small-rule
//! execution, so each thread keeps a *reservoir*: at most one warm,
//! boxed item per scratch type. [`ScratchPool`] — reached through
//! [`crate::ExecCtx::scratch`] — is the handle to the current thread's
//! reservoir, not a container of its own: [`ScratchPool::take`] removes
//! the thread's item and [`ScratchPool::put`] returns it there, so the
//! item an executor warmed under one context is the item the next
//! context on this thread finds — including a context created while
//! the first is still alive (every trial builds its accuracy metric's
//! context that way) and contexts dropped in any order.
//!
//! One item per type is the whole bound: a `put` of a type already
//! parked replaces the parked item. Code that holds its item across a
//! call that may take the same type again should put it back first
//! (and re-take it afterwards) so the inner user runs warm; if it does
//! not, the inner user gets a fresh item and the outer one — put last,
//! held longest, warmest — is the one that stays.

use std::any::Any;
use std::cell::RefCell;

thread_local! {
    /// This thread's parked scratch items, one per type.
    static RESERVOIR: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Handle to the current thread's scratch reservoir (see the module
/// docs). Holds nothing itself: creating or dropping one is free.
#[derive(Debug, Default)]
pub struct ScratchPool(());

impl ScratchPool {
    /// Number of items currently parked on this thread.
    pub fn len(&self) -> usize {
        RESERVOIR.with(|r| r.borrow().len())
    }

    /// Whether this thread has no parked items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes this thread's item of type `T`, or default-constructs one
    /// if none is parked. The caller owns it until it is
    /// [`ScratchPool::put`] back.
    pub fn take<T: Any + Default>(&mut self) -> Box<T> {
        let parked = RESERVOIR.with(|r| {
            let mut items = r.borrow_mut();
            let at = items.iter().position(|i| i.is::<T>())?;
            Some(items.swap_remove(at))
        });
        match parked {
            Some(item) => item.downcast::<T>().expect("position() matched the type"),
            None => Box::<T>::default(),
        }
    }

    /// Parks an item for later reuse on this thread, replacing any
    /// parked item of the same type.
    pub fn put<T: Any>(&mut self, item: Box<T>) {
        // The displaced item drops after the borrow ends: its `Drop`
        // may itself reach for the reservoir.
        let displaced = RESERVOIR.with(|r| {
            let mut items = r.borrow_mut();
            match items.iter().position(|i| i.is::<T>()) {
                Some(at) => Some(std::mem::replace(&mut items[at], item as Box<dyn Any>)),
                None => {
                    items.push(item);
                    None
                }
            }
        });
        drop(displaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Buf(Vec<u8>);

    #[test]
    fn take_reuses_parked_items() {
        let mut pool = ScratchPool::default();
        let mut a = pool.take::<Buf>();
        a.0.resize(128, 7);
        let data_ptr = a.0.as_ptr();
        pool.put(a);
        let b = pool.take::<Buf>();
        assert_eq!(b.0.as_ptr(), data_ptr, "the parked buffer comes back");
        assert_eq!(b.0.len(), 128);
    }

    #[test]
    fn nested_takes_get_distinct_items() {
        #[derive(Default)]
        struct Nested(Vec<u8>);
        let mut pool = ScratchPool::default();
        let mut a = pool.take::<Nested>();
        a.0.push(1);
        let b = pool.take::<Nested>();
        assert!(!std::ptr::eq(&*a, &*b));
        // Inner user returns first; the outer, longer-held item is the
        // one the thread keeps.
        pool.put(b);
        pool.put(a);
        assert_eq!(pool.take::<Nested>().0, vec![1]);
        assert!(pool.take::<Nested>().0.is_empty(), "one item per type");
    }

    #[test]
    fn reservoir_survives_pool_drop() {
        // Run in a dedicated thread so other tests' reservoirs don't
        // interfere.
        std::thread::spawn(|| {
            let data_ptr = {
                let mut pool = ScratchPool::default();
                let mut buf = pool.take::<Buf>();
                buf.0.resize(64, 1);
                let data_ptr = buf.0.as_ptr();
                pool.put(buf);
                data_ptr
            };
            let mut warm = ScratchPool::default();
            let buf = warm.take::<Buf>();
            assert_eq!(buf.0.as_ptr(), data_ptr, "reservoir kept the buffer");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_pools_share_one_item_whatever_the_order() {
        // The trial's context is alive while the metric's runs: the
        // inner pool must find the item the outer one warmed, and the
        // thread must end with exactly one — whichever pool goes out
        // of scope first, and whichever returns an item last when both
        // hold one.
        for inner_ends_first in [true, false] {
            std::thread::spawn(move || {
                let mut outer = ScratchPool::default();
                let mut buf = outer.take::<Buf>();
                buf.0.resize(32, 3);
                let data_ptr = buf.0.as_ptr();
                outer.put(buf);

                let mut inner = ScratchPool::default();
                let warm = inner.take::<Buf>();
                assert_eq!(warm.0.as_ptr(), data_ptr, "inner pool finds the warm item");
                let fresh = outer.take::<Buf>();
                assert!(fresh.0.is_empty(), "a second holder starts cold");
                let (mut first, mut last) = if inner_ends_first {
                    (inner, outer)
                } else {
                    (outer, inner)
                };
                first.put(fresh);
                last.put(warm);

                let mut next = ScratchPool::default();
                assert_eq!(next.len(), 1);
                assert_eq!(next.take::<Buf>().0.as_ptr(), data_ptr, "last put stays");
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn distinct_types_coexist() {
        #[derive(Default)]
        struct Other(u64);
        let mut pool = ScratchPool::default();
        let mut buf = pool.take::<Buf>();
        buf.0.clear();
        buf.0.push(1);
        pool.put(buf);
        let mut other = pool.take::<Other>();
        other.0 = 9;
        pool.put(other);
        assert_eq!(pool.take::<Buf>().0, vec![1]);
        assert_eq!(pool.take::<Other>().0, 9);
    }
}
