//! The counting `#[global_allocator]` of the data-plane allocation gates —
//! `alloc_budget` (qtp-core), `mux_alloc_budget` (qtp-io) and
//! `sim_alloc_budget` (qtp-bench) — and of the unit tests of `qtp-core`
//! and `qtp-simnet`, included by each with `#[path]`.
//!
//! A test binary is its own program, so it can install a global allocator
//! without touching the crates under test. Counters are
//! thread-local: the harness runs each test on its own thread and every gate
//! drives its workload on that thread, so a test reads exactly its own
//! allocations. A growth counts as one allocation of the new size, as
//! `qtpperf` counts it.
//!
//! A gate that fails runs its workload again with [`sample`] switched on at
//! the start of its measured window, and names the busiest call sites with
//! [`top_sites`] — the way to find a new allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`Counts::now`].
    static PEAK: Cell<u64> = const { Cell::new(0) };
    /// Capture the backtrace of every this-many-th allocation; 0 = off.
    static SAMPLE_EVERY: Cell<u64> = const { Cell::new(0) };
    /// Set while a sample is taken, so the sampler's own allocations are
    /// neither counted nor sampled.
    static IN_SAMPLER: Cell<bool> = const { Cell::new(false) };
    /// Backtraces of the sampled allocations, unresolved.
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; those calls go uncounted.
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(by)));
}

/// Count one allocation of `size` bytes that grows the live heap by
/// `grown`, and capture its backtrace if it is due for a sample.
fn count(size: u64, grown: u64) {
    if IN_SAMPLER.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    bump(&ALLOCS, 1);
    bump(&BYTES, size);
    bump(&LIVE, grown);
    let live = LIVE.try_with(Cell::get).unwrap_or(0);
    let _ = PEAK.try_with(|peak| {
        if live as i64 > peak.get() as i64 {
            peak.set(live);
        }
    });
    let every = SAMPLE_EVERY.try_with(Cell::get).unwrap_or(0);
    if every == 0 || ALLOCS.try_with(Cell::get).unwrap_or(1) % every != 0 {
        return;
    }
    IN_SAMPLER.set(true);
    let trace = Backtrace::force_capture();
    SAMPLES.with_borrow_mut(|s| s.push(trace));
    IN_SAMPLER.set(false);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counters are plain thread-locals, and the sampler's own
// allocations re-enter `count` only to return at its guard.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64, layout.size() as u64);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        bump(&LIVE, (layout.size() as u64).wrapping_neg());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(
            new_size as u64,
            (new_size as u64).wrapping_sub(layout.size() as u64),
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocator counters at one moment; [`Counts::since`] turns
/// two of them into what happened in between.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Allocations, growths included.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
    pub frees: u64,
    /// Bytes allocated and not yet freed. Wraps below zero harmlessly: read
    /// it as a difference, signed.
    pub live: u64,
    /// The live heap's high-water mark since the previous `now()` on this
    /// thread; in a [`Counts::since`] window, how far it rose above the
    /// live heap at the window's start.
    pub peak: u64,
}

impl Counts {
    /// This thread's counters, and the high-water mark since the previous
    /// call, which restarts from the live heap now.
    pub fn now() -> Counts {
        let live = LIVE.get();
        Counts {
            allocs: ALLOCS.get(),
            bytes: BYTES.get(),
            frees: FREES.get(),
            live,
            peak: PEAK.replace(live),
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            frees: self.frees - earlier.frees,
            live: self.live.wrapping_sub(earlier.live),
            peak: self.peak.wrapping_sub(earlier.live),
        }
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocations of {} B, {} frees, live heap {:+} B (peak {:+} B)",
            self.allocs, self.bytes, self.frees, self.live as i64, self.peak as i64
        )
    }
}

/// From now on, capture the backtrace of every `every`th allocation on this
/// thread, until [`top_sites`] reports them.
pub fn sample(every: u64) {
    SAMPLE_EVERY.set(every.max(1));
}

/// Stops sampling and names the ten call sites under `crates/` that made
/// the most sampled allocations: estimated allocations, `file:line:column`
/// and function, and the same for its caller on the next line. A site is
/// the innermost frame of the workspace outside its tests, so a `Vec`
/// growth is charged to whoever pushed.
pub fn top_sites() -> String {
    let every = SAMPLE_EVERY.replace(0);
    let samples = SAMPLES.take();
    // Frames of the including crate are named relative to its directory.
    let dir = env!("CARGO_MANIFEST_DIR");
    let own = dir.find("crates/").map_or(dir, |i| &dir[i..]);
    let mut sites: HashMap<String, u64> = HashMap::new();
    for trace in &samples {
        let text = trace.to_string();
        let mut function = "?";
        let mut frames = text.lines().map(str::trim).filter_map(|line| {
            let Some(at) = line.strip_prefix("at ") else {
                // `N: path::to::fn`, or an inlined frame's bare `path::to::fn`.
                function = line.split_once(": ").map_or(line, |(_, f)| f);
                return None;
            };
            let file = match (at.find("crates/"), at.strip_prefix("./")) {
                (Some(i), _) => at[i..].to_string(),
                (None, rel) => format!("{own}/{}", rel?),
            };
            (!file.contains("/tests/")).then(|| format!("{file} {function}"))
        });
        let site = match (frames.next(), frames.next()) {
            (Some(site), Some(caller)) => format!("{site}\n            <- {caller}"),
            (Some(site), None) => site,
            (None, _) => "(outside crates/)".into(),
        };
        *sites.entry(site).or_default() += 1;
    }
    let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut report = format!(
        "{} allocations sampled (one in {every}); top sites:\n",
        samples.len()
    );
    for (site, n) in sites.iter().take(10) {
        report += &format!("  ~{:>6}  {site}\n", n * every);
    }
    report
}
