//! What every workload's run shares: repeated set-up, the measuring window,
//! the end-to-end accumulator and the process's peak memory.

use crate::metrics::Outcome;
use crate::stats::{highest_supported_percentile, median, percentile};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A set-up takes 20-60 ms, so
/// this many cost a run about a second.
const SETUPS: usize = 21;

/// Runs `setup` [`SETUPS`] times, dropping each result before the next so
/// peak memory holds one, and returns the seconds each took plus the last.
/// The times are scaled to nominal speed by the median of the calibration
/// kernel runs interleaved with them (see [`calibration_ms`]): set-up happens
/// before the measuring window, so the window's calibration does not cover it.
pub fn timed_setups<T>(setup: impl Fn() -> T) -> (Vec<f64>, T) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    let mut cal_ms = vec![calibration_ms()];
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
        cal_ms.push(calibration_ms());
    }
    let scale = NOMINAL_CAL_MS / median(&cal_ms);
    (seconds.into_iter().map(|s| s * scale).collect(), last.expect("SETUPS > 0"))
}

/// Calls `step(i)` for `i = 0, 1, …` until `seconds` have passed, and at
/// least `min_steps` times.
pub fn window(seconds: f64, min_steps: usize, mut step: impl FnMut(usize)) {
    let span = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_steps || t0.elapsed() < span {
        step(i);
        i += 1;
    }
}

/// What the calibration kernel takes on this sandbox when nothing else runs,
/// in a process that never started a thread. Host times are reported scaled
/// by `nominal / measured`, so a quiet machine reports them as measured.
pub const NOMINAL_CAL_MS: f64 = 8.0;

/// The calibration kernel runs at most once per this interval.
const CAL_INTERVAL: Duration = Duration::from_millis(60);

/// The calibration kernel: a fixed amount of hashing, ordered-map insertion
/// and small allocations over a working set of a few MB — the kinds of work
/// the system under test does, with none of its code. Returns the
/// milliseconds it took.
///
/// Why it exists: this sandbox's speed drifts by tens of percent over
/// minutes (shared host), and every host time of a run drifts with it. The
/// kernel is interleaved with the measured operations, so the ratio of an
/// operation's median to the kernel's median stays put when the machine
/// does not: over eight runs of `update_bulk` in a noisy hour the measured
/// medians spread 28%, the scaled ones 2.3%. The allocations matter: a
/// kernel that only sorts, hashes and touches memory tracked the system
/// three times worse.
pub fn calibration_ms() -> f64 {
    const ITEMS: u64 = 20_000;
    let (ms, kept) = timed_ms(|| {
        let mut hashed = std::collections::HashSet::new();
        let mut ordered = std::collections::BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..ITEMS {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let item: Box<[u64]> = vec![x >> 24, x & 0xFFFF].into_boxed_slice();
            ordered.insert(item.clone());
            hashed.insert(item);
        }
        hashed.len() + ordered.len()
    });
    std::hint::black_box(kept);
    ms
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Milliseconds of processor time this process has used so far, over all
/// its threads, living and ended. Time spent blocked — on the disk, on a
/// condition variable — is not in it.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, writable `Timespec` whose layout is
    // that struct's on 64-bit Linux (two 64-bit integers), and keeps nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock exists on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// `(wall, processor)` milliseconds `f` took, and its result.
pub fn timed_wall_and_cpu_ms<T>(f: impl FnOnce() -> T) -> ((f64, f64), T) {
    let cpu0 = process_cpu_ms();
    let (wall, out) = timed_ms(f);
    ((wall, process_cpu_ms() - cpu0), out)
}

/// The process's peak resident set (`VmHWM`), in MB. Each workload runs in
/// its own process, so this is per workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run observed, end to end.
#[derive(Default)]
pub struct EndToEnd {
    /// Seconds per set-up, at nominal speed.
    pub setup_s: Vec<f64>,
    /// Host ms per successful primary operation.
    pub op_ms: Vec<f64>,
    /// Host ms per successful secondary operation.
    pub aux_ms: Vec<f64>,
    /// Messages per successful primary operation.
    pub msgs: Vec<f64>,
    /// Tuples the successful primary operations moved (materialised,
    /// answered, or made durable).
    pub tuples: f64,
    /// Host ms spent in primary operations, failed ones included.
    pub op_total_ms: f64,
    /// `(bytes, tuples)` of the state the run left stored.
    pub stored: (u64, u64),
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The run's calibration.
    pub calibration: Calibration,
}

/// A run's calibration: the kernel's times, interleaved with the measured
/// operations, and the factor they scale a host time by.
#[derive(Default)]
pub struct Calibration {
    nominal_ms: f64,
    /// The kernel is timed on the clock the operations are timed on.
    on_cpu_clock: bool,
    kernel_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// A calibration for operations timed on the wall clock, whose kernel
    /// nominally takes `nominal_ms` (see [`NOMINAL_CAL_MS`]).
    pub fn new(nominal_ms: f64) -> Self {
        Calibration { nominal_ms, ..Calibration::default() }
    }

    /// The same for operations timed in processor time.
    pub fn on_cpu_clock(nominal_ms: f64) -> Self {
        Calibration { nominal_ms, on_cpu_clock: true, ..Calibration::default() }
    }

    /// Runs the kernel if [`CAL_INTERVAL`] has passed.
    fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < CAL_INTERVAL) {
            return;
        }
        let cpu0 = process_cpu_ms();
        let wall = calibration_ms();
        self.kernel_ms.push(if self.on_cpu_clock { process_cpu_ms() - cpu0 } else { wall });
        self.last = Some(Instant::now());
    }

    /// The factor that takes a host time of this run to nominal speed.
    fn scale(&self) -> f64 {
        let measured = median(&self.kernel_ms);
        if measured > 0.0 {
            self.nominal_ms / measured
        } else {
            1.0
        }
    }
}

impl EndToEnd {
    /// An empty record for a run whose set-ups took `setup_s`.
    pub fn new(setup_s: Vec<f64>, calibration: Calibration) -> Self {
        EndToEnd { setup_s, calibration, ..EndToEnd::default() }
    }

    /// Runs the calibration kernel if it is due. Workloads call this
    /// between operations, never inside a timed one.
    pub fn calibrate(&mut self) {
        self.calibration.tick();
    }

    /// Counts one primary operation: a sample when it succeeded, a failure
    /// otherwise.
    pub fn op(&mut self, ok: bool, ms: f64, messages: u64, tuples: u64) {
        self.op_lap(&[(ok, ms, messages)], tuples);
    }

    /// Counts one secondary operation.
    pub fn aux(&mut self, ok: bool, ms: f64) {
        self.aux_lap(&[(ok, ms)]);
    }

    /// Counts a lap's primary operations — `(ok, ms, messages)` each — as
    /// one sample: their mean. For a workload whose operations within a lap
    /// differ systematically (a database that grows round by round), the
    /// median over single operations would sit between their modes; the
    /// median over laps compares like with like. One failure voids the lap's
    /// sample.
    pub fn op_lap(&mut self, ops: &[(bool, f64, u64)], tuples_each: u64) {
        self.attempted += ops.len() as u64;
        let failed = ops.iter().filter(|o| !o.0).count();
        self.failed += failed as u64;
        self.op_total_ms += ops.iter().map(|o| o.1).sum::<f64>();
        self.tuples += (tuples_each * (ops.len() - failed) as u64) as f64;
        if failed == 0 && !ops.is_empty() {
            let n = ops.len() as f64;
            self.op_ms.push(ops.iter().map(|o| o.1).sum::<f64>() / n);
            self.msgs.push(ops.iter().map(|o| o.2 as f64).sum::<f64>() / n);
        }
    }

    /// Counts a lap's secondary operations — `(ok, ms)` each — as one
    /// sample: their mean (see [`EndToEnd::op_lap`]).
    pub fn aux_lap(&mut self, ops: &[(bool, f64)]) {
        self.attempted += ops.len() as u64;
        let failed = ops.iter().filter(|o| !o.0).count();
        self.failed += failed as u64;
        if failed == 0 && !ops.is_empty() {
            self.aux_ms.push(ops.iter().map(|o| o.1).sum::<f64>() / ops.len() as f64);
        }
    }

    /// Counts an operation that is checked but not timed.
    pub fn checked(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The end-to-end metrics.
    pub fn into_outcome(self) -> Outcome {
        let mut out =
            Outcome { attempted: self.attempted, failed: self.failed, ..Outcome::default() };
        let cal = &self.calibration;
        let scale = cal.scale();
        let op_total_s = self.op_total_ms * scale / 1e3;
        out.set("setup_s", median(&self.setup_s));
        out.set("op_ms_p50", median(&self.op_ms) * scale);
        out.set("aux_ms_p50", median(&self.aux_ms) * scale);
        // Over all the time spent in primary operations, so that the tail
        // and the time lost to failed operations show, which a median hides.
        out.set("tuples_per_s", if op_total_s > 0.0 { self.tuples / op_total_s } else { 0.0 });
        out.set("msgs_per_op", median(&self.msgs));
        out.set("stored_bytes_per_tuple", self.stored.0 as f64 / (self.stored.1.max(1)) as f64);
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "as measured: op_ms_p50 {:.6}, aux_ms_p50 {:.6}, op_total_ms {:.6}, calibration_ms_p50 {:.6}; reported = measured x {scale:.6}",
            median(&self.op_ms),
            median(&self.aux_ms),
            self.op_total_ms,
            median(&cal.kernel_ms)
        ));
        for (what, samples) in
            [("op", &self.op_ms), ("aux", &self.aux_ms), ("calibration", &cal.kernel_ms)]
        {
            let supported = highest_supported_percentile(samples.len())
                .map_or("none above the median".to_owned(), |p| format!("p{p}"));
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.3}", percentile(samples, f64::from(d) * 10.0)))
                .collect();
            out.notes.push(format!(
                "{what}_ms: {} samples; highest percentile with >=10 samples beyond it: {supported}; deciles {}",
                samples.len(),
                deciles.join(" ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process, so what a sleeping test's neighbours burn is
    // in the clock too: only the lower bound can be tested here.
    #[test]
    fn processor_time_advances_with_work() {
        let ((wall, cpu), _) = timed_wall_and_cpu_ms(calibration_ms);
        assert!(cpu > 1.0 && wall > 1.0, "the kernel: wall {wall} ms, processor {cpu} ms");
    }

    #[test]
    fn throughput_is_over_all_the_time_in_primary_operations() {
        let mut e2e = EndToEnd::new(vec![1.0], Calibration::new(NOMINAL_CAL_MS));
        e2e.op(true, 10.0, 5, 100);
        e2e.op(true, 10.0, 5, 100);
        e2e.op(true, 40.0, 5, 100);
        e2e.op(false, 40.0, 5, 100);
        // No kernel ran, so nothing is rescaled.
        let out = e2e.into_outcome();
        assert_eq!((out.attempted, out.failed), (4, 1));
        assert_eq!(out.get("op_ms_p50"), 10.0);
        // 300 tuples in 100 ms: the slow and the failed operation both cost.
        assert_eq!(out.get("tuples_per_s"), 3000.0);
    }
}
