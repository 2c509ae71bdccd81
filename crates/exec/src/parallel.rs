//! Scoped-thread fan-out over partitions.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bfq_common::{BfqError, Result};

/// Apply `f` to each index `0..n` in parallel, collecting results in
/// order: item 0 runs on the calling thread, every other item on a scoped
/// thread of its own. Errors from any item are propagated; a panicking
/// item, the inline one included, surfaces as an execution error.
pub fn par_map<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    let Some((first, rest)) = slots.split_first_mut() else {
        return Ok(Vec::new());
    };
    let panicked = || BfqError::Execution("worker thread panicked".into());
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (rest.iter_mut().zip(1..))
            .map(|(slot, i)| scope.spawn(move || *slot = Some(f(i))))
            .collect();
        *first = Some(catch_unwind(AssertUnwindSafe(|| f(0))).unwrap_or_else(|_| Err(panicked())));
        // Join every handle: a panicked thread left unjoined would make the
        // scope itself panic.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .try_for_each(|j| j.map_err(|_| panicked()))
    })?;
    slots
        .into_iter()
        .map(|s| s.expect("worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = par_map(8, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn propagates_errors() {
        let out = par_map(4, |i| {
            if i == 2 {
                Err(BfqError::Execution("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn a_panic_in_the_inline_item_is_an_error() {
        let out = par_map(3, |i| {
            if i == 0 {
                panic!("item 0 fails on the calling thread");
            }
            Ok(i)
        });
        assert!(matches!(out, Err(BfqError::Execution(_))));
    }

    #[test]
    fn zero_and_one() {
        assert_eq!(par_map(0, |_| Ok(1)).unwrap(), Vec::<i32>::new());
        assert_eq!(par_map(1, |i| Ok(i + 1)).unwrap(), vec![1]);
    }

    #[test]
    fn actually_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        par_map(4, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        assert!(peak.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }
}
