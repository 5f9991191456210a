//! The host-speed reference: a fixed kernel that belongs to the benchmark,
//! not to the program, timed between the workload's operations on the same
//! client threads.
//!
//! On a shared host the same code runs up to 1.6× faster in some minutes
//! than in others, so raw times of two runs of one commit differ by more
//! than a regression bound. The reference — a complex matrix-vector product
//! over a 4 MiB matrix and a complex product of two 64 × 64 matrices —
//! slows down with the host the way the pipelines do: over 12–24 s windows
//! of a 4-minute probe, its time and that of `Pipeline::run` on one fixed
//! graph correlated at 0.93 (quantum, n = 200) and 0.96 (classical,
//! n = 400), with slope 1.0–1.1, and dividing one by the other cut the
//! spread of the pipeline's log time from 0.13 to 0.04. Plane rotations, an
//! integer loop and AVX2 builds of the same products did not follow the
//! pipelines (correlation 0.55–0.86, residual spread 0.10–0.12), so they
//! are not part of it.
//!
//! A time is reported at the reference speed: multiplied by
//! `NOMINAL_MS / measured`, where `measured` is the median of the reference
//! samples taken around it on the same thread. The reference runs no
//! program code, so a faster program still reads faster.

use std::hint::black_box;
use std::time::Instant;

/// Matrix order: 512 × 512 complex numbers, 4 MiB, larger than L2.
const ORDER: usize = 512;
/// Order of the small cache-resident complex matrices multiplied in each
/// sample, the way the density-matrix backend conjugates a 6-qubit
/// register: 64 KiB each, compute-bound.
const SMALL: usize = 64;
/// Small products per sample.
const SMALL_PRODUCTS: usize = 2;
/// Matrix-vector products per sample.
const PRODUCTS: usize = 2;
/// Sample time (CPU ms) that scaled times refer to: about the median over
/// trial runs on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207),
/// whose run medians ranged from 1.4 to 2.0 ms.
const NOMINAL_MS: f64 = 1.7;

pub struct HostRef {
    matrix: Vec<f64>,
    small: [Vec<f64>; 3],
    x: Vec<f64>,
    y: Vec<f64>,
    /// Sample times (CPU ms), in the order taken.
    pub samples: Vec<f64>,
    /// Wall time spent sampling (s).
    pub spent_s: f64,
}

impl HostRef {
    pub fn new() -> Self {
        let matrix = (0..2 * ORDER * ORDER)
            .map(|i| ((i % 97) as f64 - 48.0) / 97.0)
            .collect();
        let x = (0..2 * ORDER)
            .map(|i| ((i % 13) as f64 - 6.0) / 13.0)
            .collect();
        let small = |k: usize| {
            (0..2 * SMALL * SMALL)
                .map(|i| ((i * k % 31) as f64 - 15.0) / 31.0)
                .collect()
        };
        HostRef {
            matrix,
            small: [small(1), small(3), vec![0.0; 2 * SMALL * SMALL]],
            x,
            y: vec![0.0; 2 * ORDER],
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Times one sample in this thread's CPU time and records it.
    pub fn sample(&mut self) {
        let wall = Instant::now();
        let start = thread_cpu_ms();
        for _ in 0..PRODUCTS {
            for (row, out) in self
                .matrix
                .chunks_exact(2 * ORDER)
                .zip(self.y.chunks_exact_mut(2))
            {
                let (mut re, mut im) = (0.0, 0.0);
                for (a, b) in row.chunks_exact(2).zip(self.x.chunks_exact(2)) {
                    re += a[0] * b[0] - a[1] * b[1];
                    im += a[0] * b[1] + a[1] * b[0];
                }
                out[0] = re;
                out[1] = im;
            }
            black_box(&mut self.y);
        }
        let [a, b, c] = &mut self.small;
        for _ in 0..SMALL_PRODUCTS {
            c.fill(0.0);
            for i in 0..SMALL {
                for k in 0..SMALL {
                    let (ar, ai) = (a[2 * (i * SMALL + k)], a[2 * (i * SMALL + k) + 1]);
                    let brow = &b[2 * k * SMALL..2 * (k + 1) * SMALL];
                    let crow = &mut c[2 * i * SMALL..2 * (i + 1) * SMALL];
                    for (cz, bz) in crow.chunks_exact_mut(2).zip(brow.chunks_exact(2)) {
                        cz[0] += ar * bz[0] - ai * bz[1];
                        cz[1] += ar * bz[1] + ai * bz[0];
                    }
                }
            }
            black_box(&mut *c);
        }
        self.samples.push(thread_cpu_ms() - start);
        self.spent_s += wall.elapsed().as_secs_f64();
    }

    /// Takes `count` samples.
    pub fn samples(&mut self, count: usize) {
        for _ in 0..count {
            self.sample();
        }
    }

    /// `NOMINAL_MS` ÷ the median of the last `count` samples: multiply a
    /// time this thread measured beside them by this to state it at the
    /// reference speed.
    pub fn recent_factor(&self, count: usize) -> f64 {
        let recent = &self.samples[self.samples.len().saturating_sub(count)..];
        NOMINAL_MS / crate::stats::median(recent).expect("at least one reference sample")
    }
}

/// CPU time of the calling thread (ms): unlike wall time, it does not grow
/// while the thread waits for a core, so the program's own threads taking
/// the core do not read as a slower host. The `timespec` layout and the
/// clock id are those of 64-bit Linux, the only platform the benchmark
/// runs on (it also reads `/proc/self/status`).
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) for the whole call, which writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 * 1e3 + t.nsec as f64 * 1e-6
}
