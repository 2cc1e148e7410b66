//! Layer probes: direct calls into the `mem`, `vm`, `alloc` and `core`
//! public APIs on fixed synthetic state, timed from outside.
//!
//! The shapes follow the repository's `hotpath` and `sweep` benches: a
//! capability load/store streak over 8 slots of one page, a 4 KiB data
//! write, a full Reloaded epoch over 512 capability-bearing pages with
//! half the objects painted, and, added here, an 8-line cache read
//! streak, 64-byte alloc/free pairs through the quarantine shim, and
//! foreground load-fault handling of every page of a fresh epoch. Each
//! probe reports the median ns per call over `SAMPLES` timed samples.

use cheri_alloc::{HeapLayout, Mrs, MrsConfig};
use cheri_cap::{Capability, Perms};
use cheri_vm::{Machine, MapFlags};
use cornucopia::{Revoker, RevokerConfig, Strategy};
use std::hint::black_box;
use std::time::Instant;

const HEAP: u64 = 0x4000_0000;
const SWEEP_PAGES: u64 = 512;
const SWEEP_CAPS_PER_PAGE: u64 = 8;
const SAMPLES: usize = 11;

/// Median ns per call of each probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeNs {
    pub load_cap: f64,
    pub store_cap: f64,
    pub write_data_4k: f64,
    pub touch_read: f64,
    pub alloc_free: f64,
    pub sweep_per_page: f64,
    pub load_fault: f64,
}

/// Runs `sample` (which returns calls made and ns taken) once to warm
/// up, then `SAMPLES` times; the median ns per call.
fn median_ns(mut sample: impl FnMut() -> (u64, u64)) -> f64 {
    sample();
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (calls, ns) = sample();
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[SAMPLES / 2]
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn machine_with_caps(pages: u64, caps_per_page: u64) -> (Machine, Capability) {
    let mut m = Machine::new(5);
    let len = pages * 4096;
    m.map_range(HEAP, len, MapFlags::user_rw())
        .expect("probe heap maps");
    let heap = Capability::new_root(HEAP, len, Perms::rw());
    for p in 0..pages {
        for s in 0..caps_per_page {
            let a = HEAP + p * 4096 + s * (4096 / caps_per_page);
            let c = heap.set_bounds(a, 64).expect("in bounds");
            m.store_cap(0, &heap.set_addr(a), c).expect("probe store");
        }
    }
    (m, heap)
}

/// A Reloaded revoker mid-epoch over `SWEEP_PAGES` capability-bearing
/// pages with every other page's first object painted.
fn epoch_setup() -> (Machine, Revoker) {
    let (mut m, _) = machine_with_caps(SWEEP_PAGES, SWEEP_CAPS_PER_PAGE);
    let mut rev = Revoker::new(
        RevokerConfig {
            strategy: Strategy::Reloaded,
            revoker_cores: vec![1],
            ..RevokerConfig::default()
        },
        HEAP,
        SWEEP_PAGES * 4096,
    );
    for p in (0..SWEEP_PAGES).step_by(2) {
        rev.paint(&mut m, 0, HEAP + p * 4096, 64);
    }
    rev.start_epoch(&mut m);
    (m, rev)
}

/// Runs every probe. `scale` multiplies the calls per sample (1 for a
/// measurement, smaller only to shorten the self-test).
#[must_use]
pub fn run(scale: f64) -> ProbeNs {
    let calls = |n: u64| ((n as f64 * scale) as u64).max(1);
    let mut out = ProbeNs::default();

    let (mut m, heap) = machine_with_caps(4, 8);
    let n = calls(20_000);
    out.load_cap = median_ns(|| {
        let t = Instant::now();
        for i in 0..n {
            let a = HEAP + (i % 8) * 512;
            black_box(m.load_cap(0, &heap.set_addr(a)).expect("probe load"));
        }
        (n, elapsed_ns(t))
    });

    let obj = heap.set_bounds(HEAP, 64).expect("in bounds");
    out.store_cap = median_ns(|| {
        let t = Instant::now();
        for i in 0..n {
            let a = HEAP + 4096 + (i % 8) * 512;
            black_box(m.store_cap(0, &heap.set_addr(a), obj).expect("probe store"));
        }
        (n, elapsed_ns(t))
    });

    let n4k = calls(2_000);
    out.write_data_4k = median_ns(|| {
        let t = Instant::now();
        for _ in 0..n4k {
            black_box(
                m.write_data(0, &heap.set_addr(HEAP + 8192), 4096)
                    .expect("probe write"),
            );
        }
        (n4k, elapsed_ns(t))
    });

    out.touch_read = median_ns(|| {
        let mem = m.mem_mut();
        let t = Instant::now();
        for i in 0..n {
            black_box(mem.touch_read(0, HEAP + 12288 + (i % 8) * 512, 64));
        }
        (n, elapsed_ns(t))
    });

    let pairs = calls(2_048);
    out.alloc_free = median_ns(|| {
        let layout = HeapLayout::new(HEAP, 64 << 20);
        let mut m = Machine::new(2);
        let mut rev = Revoker::new(
            RevokerConfig {
                strategy: Strategy::Reloaded,
                ..RevokerConfig::default()
            },
            layout.base,
            layout.total_len,
        );
        let mut mrs = Mrs::new(layout, MrsConfig::default());
        let t = Instant::now();
        for _ in 0..pairs {
            let a = mrs.alloc(&mut m, 0, 64).expect("probe alloc");
            black_box(mrs.free(&mut m, &mut rev, 0, a.cap).expect("probe free"));
        }
        (pairs, elapsed_ns(t))
    });

    out.sweep_per_page = median_ns(|| {
        let (mut m, mut rev) = epoch_setup();
        let t = Instant::now();
        while rev.is_revoking() {
            black_box(rev.background_step(&mut m, u64::MAX / 4));
        }
        let ns = elapsed_ns(t);
        (rev.stats().pages_swept, ns)
    });

    out.load_fault = median_ns(|| {
        let (mut m, mut rev) = epoch_setup();
        let t = Instant::now();
        for p in 0..SWEEP_PAGES {
            black_box(rev.handle_load_fault(&mut m, 0, HEAP + p * 4096));
        }
        let ns = elapsed_ns(t);
        (rev.stats().load_faults, ns)
    });
    out
}
