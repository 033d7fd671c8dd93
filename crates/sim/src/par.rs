//! Chunked std-thread parallelism for the simulation kernels.
//!
//! # Determinism contract
//!
//! Every parallel helper in this module produces **bit-identical results at
//! any thread count**, including 1:
//!
//! - [`for_each_range`](crate::par) partitions an index space into disjoint
//!   contiguous ranges; kernels built on it write each element from exactly
//!   one worker and perform no cross-element arithmetic, so the thread count
//!   only changes *who* computes an element, never *what* is computed.
//! - [`chunked_sums`] computes reduction partials over **fixed-width chunks**
//!   ([`REDUCE_CHUNK`] items) whose boundaries do not depend on the thread
//!   count, and returns them in chunk order; callers fold the partials
//!   sequentially, so the floating-point summation order is pinned.
//!
//! The worker count comes from the [`SIM_THREADS_ENV`] environment variable
//! (default 1 — fully sequential) and can be overridden in-process with
//! [`set_threads`]; small sweeps stay sequential regardless (see
//! [`set_min_items_per_thread`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable selecting the simulator worker-thread count — the
/// stack's one parallelism switch. Unset or invalid values mean 1
/// (sequential).
pub const SIM_THREADS_ENV: &str = "QONCORD_SIM_THREADS";

/// Default minimum number of items each worker must receive before a sweep
/// is split across threads; below `2×` this the sweep runs sequentially.
pub const DEFAULT_MIN_ITEMS_PER_THREAD: usize = 1 << 13;

/// Fixed reduction chunk width, in items. Reduction partials are always
/// computed per [`REDUCE_CHUNK`]-sized chunk and folded in chunk order, so
/// reduced sums are bit-identical at any thread count.
pub const REDUCE_CHUNK: usize = 1 << 12;

/// 0 means "not yet initialised from the environment".
static THREADS: AtomicUsize = AtomicUsize::new(0);
static MIN_ITEMS: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_ITEMS_PER_THREAD);

/// The active simulator worker-thread count (≥ 1). Reads
/// [`SIM_THREADS_ENV`] on first use.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let t = std::env::var(SIM_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    THREADS.store(t, Ordering::Relaxed);
    t
}

/// Overrides the worker-thread count process-wide (clamped to ≥ 1).
///
/// Safe to change at any time thanks to the determinism contract: results
/// are identical at every thread count, so a concurrent sweep observing the
/// old or new value computes the same state either way.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The minimum per-worker item count before a sweep parallelises.
pub fn min_items_per_thread() -> usize {
    MIN_ITEMS.load(Ordering::Relaxed).max(1)
}

/// Overrides the per-worker minimum item count (clamped to ≥ 1). Primarily
/// a test hook: lowering it lets small registers exercise the chunked
/// parallel path; it never affects results, only scheduling.
pub fn set_min_items_per_thread(n: usize) {
    MIN_ITEMS.store(n.max(1), Ordering::Relaxed);
}

/// Number of workers a sweep over `items` elements should use.
pub(crate) fn plan(items: usize) -> usize {
    let t = threads();
    if t <= 1 {
        return 1;
    }
    let min = min_items_per_thread();
    if items < 2 * min {
        return 1;
    }
    t.min(items / min).max(1)
}

/// Runs `f` over `0..items` split into at most [`threads`] disjoint
/// contiguous ranges, each on its own scoped thread (sequentially when the
/// sweep is too small to split). `f` must only touch state owned by its
/// range for the result to be deterministic.
pub fn for_each_range(items: usize, f: impl Fn(Range<usize>) + Sync) {
    let workers = plan(items);
    if workers <= 1 {
        f(0..items);
        return;
    }
    let per = items.div_ceil(workers);
    std::thread::scope(|s| {
        let f = &f;
        for w in 0..workers {
            let lo = w * per;
            let hi = ((w + 1) * per).min(items);
            if lo >= hi {
                break;
            }
            s.spawn(move || f(lo..hi));
        }
    });
}

/// Computes reduction partials over `0..items` in fixed [`REDUCE_CHUNK`]
/// chunks, in parallel, and returns them **in chunk order**. Fold the
/// returned vector sequentially to obtain a sum whose floating-point
/// rounding is independent of the thread count.
pub fn chunked_sums<T, F>(items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let n_chunks = items.div_ceil(REDUCE_CHUNK);
    let chunk_range = |k: usize| {
        let lo = k * REDUCE_CHUNK;
        lo..(lo + REDUCE_CHUNK).min(items)
    };
    let workers = plan(items).min(n_chunks.max(1));
    if workers <= 1 {
        return (0..n_chunks).map(|k| f(chunk_range(k))).collect();
    }
    let per = n_chunks.div_ceil(workers);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .filter_map(|w| {
                let lo = w * per;
                let hi = ((w + 1) * per).min(n_chunks);
                (lo < hi)
                    .then(|| s.spawn(move || (lo..hi).map(chunk_range).map(f).collect::<Vec<T>>()))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sim worker thread panicked"))
            .collect()
    })
}

/// Inserts a zero bit at position `bit` of `i` (all higher bits shift up):
/// maps a dense anchor counter onto the indices with that bit clear, letting
/// kernels enumerate sweep anchors branch-free.
#[inline(always)]
pub(crate) fn expand(i: usize, bit: usize) -> usize {
    ((i >> bit) << (bit + 1)) | (i & ((1 << bit) - 1))
}

/// Shared mutable pointer into a complex buffer, handed to scoped workers
/// that write provably disjoint index sets (see the kernel call sites).
#[derive(Clone, Copy)]
pub(crate) struct SharedAmps(*mut crate::math::C64);

// SAFETY: workers access disjoint indices by construction (each kernel maps
// its private index range to a private set of amplitude slots), so aliased
// mutation never occurs; C64 is Copy and has no interior mutability.
unsafe impl Send for SharedAmps {}
// SAFETY: as above — disjoint-index writes only.
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    pub(crate) fn new(s: &mut [crate::math::C64]) -> Self {
        SharedAmps(s.as_mut_ptr())
    }

    /// Reads slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and not concurrently written by another worker.
    pub(crate) unsafe fn get(&self, i: usize) -> crate::math::C64 {
        *self.0.add(i)
    }

    /// Writes slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and owned exclusively by the calling worker.
    pub(crate) unsafe fn set(&self, i: usize, v: crate::math::C64) {
        *self.0.add(i) = v;
    }

    /// Swaps slots `i` and `j`.
    ///
    /// # Safety
    /// Both slots must be in bounds and owned exclusively by the caller.
    pub(crate) unsafe fn swap(&self, i: usize, j: usize) {
        let a = self.get(i);
        self.set(i, self.get(j));
        self.set(j, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Serialises tests that mutate the process-global thread settings.
    static CONFIG: Mutex<()> = Mutex::new(());

    #[test]
    fn sequential_by_default_and_clamped() {
        let _g = CONFIG.lock().unwrap();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(1);
    }

    #[test]
    fn for_each_range_covers_every_index_once() {
        let _g = CONFIG.lock().unwrap();
        set_min_items_per_thread(4);
        for t in [1, 2, 4] {
            set_threads(t);
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            for_each_range(100, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        set_threads(1);
        set_min_items_per_thread(DEFAULT_MIN_ITEMS_PER_THREAD);
    }

    #[test]
    fn chunked_sums_order_is_thread_count_invariant() {
        let _g = CONFIG.lock().unwrap();
        set_min_items_per_thread(8);
        let items = 3 * REDUCE_CHUNK + 17;
        let sum_at = |t: usize| {
            set_threads(t);
            let parts = chunked_sums(items, |r| r.map(|i| (i as f64).sqrt()).sum::<f64>());
            assert_eq!(parts.len(), items.div_ceil(REDUCE_CHUNK));
            parts.into_iter().fold(0.0, |a, b| a + b)
        };
        let s1 = sum_at(1);
        for t in [2, 4] {
            assert_eq!(s1.to_bits(), sum_at(t).to_bits());
        }
        set_threads(1);
        set_min_items_per_thread(DEFAULT_MIN_ITEMS_PER_THREAD);
    }
}
