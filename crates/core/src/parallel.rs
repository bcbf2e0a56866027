//! The fan-out over the cores that independent topics allow (design
//! decision **D4**).
//!
//! Topics are independent problems (§IV.C): [`crate::optimizer::solve_topics`]
//! solves them apart, and the simulator runs them apart. Both split their
//! topics the same way, with [`map_chunks`]: contiguous chunks, one per
//! worker, the calling thread running the last one itself, and the results
//! joined in chunk order, so what a caller builds from them does not depend
//! on how many workers there were.

use std::ops::Range;

/// How many workers the machine offers: `available_parallelism`, or 1
/// when it cannot say.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..len` into contiguous chunks of `len.div_ceil(workers)`
/// indices (the last may be shorter, and there are at most `workers` of
/// them), maps `work` over the chunks on scoped threads and returns the
/// results in chunk order. The calling thread runs the last chunk itself,
/// so one chunk spawns nothing. No chunk is empty, and `len == 0` maps
/// nothing; `workers == 0` counts as one.
///
/// # Panics
///
/// A panic in `work` is re-raised on the calling thread, with its own
/// payload, once every worker has stopped.
pub fn map_chunks<R: Send>(
    len: usize,
    workers: usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    if len == 0 {
        return Vec::new();
    }
    let chunk_len = len.div_ceil(workers.clamp(1, len));
    let mut chunks = (0..len).step_by(chunk_len).map(|start| start..len.min(start + chunk_len));
    let last = chunks.next_back();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.map(|chunk| scope.spawn(move || work(chunk))).collect();
        let last = last.map(work);
        let mut results = Vec::with_capacity(handles.len() + 1);
        for handle in handles {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results.extend(last);
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_in_order_and_cover_every_index() {
        for len in 0..12 {
            for workers in 0..9 {
                let chunks = map_chunks(len, workers, |chunk| chunk);
                let indices: Vec<usize> = chunks.iter().cloned().flatten().collect();
                assert_eq!(indices, (0..len).collect::<Vec<_>>(), "{len} over {workers}");
                assert!(chunks.len() <= workers.max(1), "{len} over {workers}");
                assert!(chunks.iter().all(|chunk| !chunk.is_empty()));
                // Every chunk but the last is `len.div_ceil(workers)` long.
                if let Some((_, full)) = chunks.split_last() {
                    let chunk_len = len.div_ceil(workers.clamp(1, len));
                    assert!(full.iter().all(|chunk| chunk.len() == chunk_len));
                }
            }
        }
    }

    #[test]
    fn the_calling_thread_runs_the_last_chunk() {
        let caller = std::thread::current().id();
        let ran_on = map_chunks(6, 3, |_| std::thread::current().id());
        assert_eq!(ran_on.len(), 3);
        assert_eq!(ran_on.last(), Some(&caller));
        assert!(ran_on[..2].iter().all(|&id| id != caller));
        assert_eq!(map_chunks(5, 1, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn a_worker_panic_is_re_raised_with_its_payload() {
        for failing in [0, 2] {
            let outcome = std::panic::catch_unwind(|| {
                map_chunks(3, 3, |chunk| assert!(chunk.start != failing, "chunk {failing} failed"))
            });
            let payload = outcome.expect_err("the panic was swallowed");
            let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(message, format!("chunk {failing} failed"));
        }
    }
}
