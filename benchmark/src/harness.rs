//! What the five workloads share: the run's parameters, the timed window
//! with its latency samples and traced/untraced blocks, and the metrics
//! every workload derives the same way.

use crate::metrics::{peak_rss_mb, RunResult, LAYERS};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::{self, Span, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of one workload run.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    /// 1/20 length, one set-up: checks and schema only.
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// Zero of every span timestamp.
    pub epoch: Instant,
}

impl Run {
    /// Set-ups per run: `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Scale a warm-up or check length down for `--smoke`.
    pub fn scaled(&self, n: u32) -> u32 {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }

    pub fn tracer(&self, id_base: u64) -> Tracer {
        let mut tr = Tracer::new(self.epoch, id_base);
        tr.set_on(self.traced);
        tr
    }

    /// Open the timed window now, `self.seconds` long.
    pub fn window(&self, block_ops: u64, rss_at_op: u64, tr: &mut Tracer) -> Window {
        Window::open(
            Instant::now(),
            self.seconds,
            self.traced,
            block_ops,
            rss_at_op,
            tr,
        )
    }
}

/// One timed set-up, and the fingerprint of the state it reached.
pub struct SetUp<B> {
    pub built: B,
    pub setup_s: f64,
    pub fingerprint: String,
}

/// Set up `run.setups()` times and keep the last build (each earlier one
/// is dropped before the next is built, so peak memory is one build's).
/// Every build of one seed must reach the same state: a fingerprint that
/// differs from the first is a failed check. Returns the build and each
/// set-up's seconds.
pub fn set_up<B>(
    run: &Run,
    res: &mut RunResult,
    mut build: impl FnMut() -> SetUp<B>,
) -> (B, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut first: Option<String> = None;
    let mut last = None;
    for _ in 0..run.setups() {
        drop(last.take());
        let SetUp {
            built,
            setup_s: s,
            fingerprint,
        } = build();
        let first = first.get_or_insert_with(|| fingerprint.clone());
        res.check(*first == fingerprint, || {
            format!("two set-ups of one seed differ: {first} / {fingerprint}")
        });
        setup_s.push(s);
        last = Some(built);
    }
    (last.expect("at least one set-up"), setup_s)
}

/// The window is read in this many equal slices, and the end-to-end
/// timings are medians over the slices: a burst of interference from the
/// host (this is a shared 2-core box) spoils the slices it hits, not the
/// run.
pub const SLICES: usize = 10;
const SAMPLE_CAP: usize = 1 << 16;

/// Latency samples in arrival order, in memory that does not depend on
/// how many there are: the buffer is allocated and touched up front, and
/// once full it keeps every 2nd, then every 4th, ... sample. A change that
/// makes operations 100x faster must not show up as a `peak_rss_mb`
/// regression of the harness's own making.
pub struct Samples {
    /// (seconds into the window at which the operation ended, its ms).
    kept: Vec<(f64, f64)>,
    /// One in `stride` samples is kept.
    stride: u64,
    seen: u64,
    sum_ms: f64,
    slice_s: f64,
    /// Operations that ended in each slice, kept or not, and when the
    /// last of them ended.
    per_slice: [u64; SLICES],
    last_end_s: [f64; SLICES],
}

impl Samples {
    fn new(window_s: f64) -> Samples {
        // Written, not zero-allocated, so the pages are resident from the
        // start.
        let mut kept = vec![(1.0, 1.0); SAMPLE_CAP];
        kept.clear();
        Samples {
            kept,
            stride: 1,
            seen: 0,
            sum_ms: 0.0,
            slice_s: window_s / SLICES as f64,
            per_slice: [0; SLICES],
            last_end_s: [0.0; SLICES],
        }
    }

    fn push(&mut self, at_s: f64, ms: f64) {
        let index = self.seen;
        self.seen += 1;
        self.sum_ms += ms;
        // The operation that straddles the deadline belongs to no slice.
        let slice = (at_s / self.slice_s) as usize;
        if slice < SLICES {
            self.per_slice[slice] += 1;
            self.last_end_s[slice] = self.last_end_s[slice].max(at_s);
        }
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == SAMPLE_CAP {
            self.halve();
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.kept.push((at_s, ms));
    }

    fn halve(&mut self) {
        thin(&mut self.kept);
        self.stride *= 2;
    }

    /// Pool another thread's samples of the same window (arrival order is
    /// lost; slices and percentiles are not): both sides are thinned to
    /// the same stride first.
    fn absorb(&mut self, other: &Samples) {
        let mut theirs = other.kept.clone();
        let mut their_stride = other.stride;
        while self.stride < their_stride {
            self.halve();
        }
        while their_stride < self.stride {
            thin(&mut theirs);
            their_stride *= 2;
        }
        self.kept.extend_from_slice(&theirs);
        self.seen += other.seen;
        self.sum_ms += other.sum_ms;
        for i in 0..SLICES {
            self.per_slice[i] += other.per_slice[i];
            self.last_end_s[i] = self.last_end_s[i].max(other.last_end_s[i]);
        }
    }

    /// The kept latencies in ms, in arrival order.
    pub fn kept_ms(&self) -> Vec<f64> {
        self.kept.iter().map(|&(_, ms)| ms).collect()
    }

    /// Operations seen, kept or not.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Summed latency of every operation seen, in ms.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Per slice: operations per second, and the percentiles `ps` of the
    /// slice's latencies (0 for an empty slice). A slice's operations are
    /// those that ended in it, so its rate is their number over the time
    /// from the previous slice's last end to its own — exact for a closed
    /// loop, with no rounding to whole operations per slice.
    fn slices(&self, ps: &[f64]) -> Vec<(f64, Vec<f64>)> {
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for &(at_s, ms) in &self.kept {
            if let Some(v) = by_slice.get_mut((at_s / self.slice_s) as usize) {
                v.push(ms);
            }
        }
        let mut prev_end_s = 0.0;
        by_slice
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let v = sorted(&v);
                let rate = if self.per_slice[i] > 0 {
                    let took_s = self.last_end_s[i] - prev_end_s;
                    prev_end_s = self.last_end_s[i];
                    self.per_slice[i] as f64 / took_s
                } else {
                    0.0
                };
                (rate, ps.iter().map(|&p| percentile(&v, p)).collect())
            })
            .collect()
    }
}

/// Drop every second element, keeping the first.
fn thin<T>(v: &mut Vec<T>) {
    let mut i = 0;
    v.retain(|_| {
        i += 1;
        i % 2 == 1
    });
}

/// The timed window. An untraced run just times operations until the
/// deadline. A traced run switches the tracer in blocks of `block_ops`
/// operations — off, on, on, off, and again — so one process yields the
/// per-layer numbers *and* what recording them costs
/// (`trace.overhead_pct`: wall time per operation, on over off). Blocks
/// are counted in operations so that both sides see the same mix of them
/// (a block of `admit_churn` is one pass over its pool of graphs), and the
/// off-on-on-off order makes a workload that slows down steadily as it
/// runs slow both sides alike.
pub struct Window {
    start: Instant,
    deadline: Instant,
    /// Time taken off the clock by [`Window::exclude`].
    excluded: Duration,
    traced: bool,
    block_ops: u64,
    block_start: Instant,
    /// Operations done in the current block; blocks done.
    in_block: u64,
    blocks: u32,
    on: bool,
    in_op: bool,
    /// Wall seconds and operations with the tracer off / on.
    wall: [f64; 2],
    ops: [u64; 2],
    samples: Samples,
    /// `VmHWM` is read when this many operations are done, not at the end
    /// of the window: sessions grow as they run (retired slots, per-cycle
    /// traces), so memory at the end would rise with the speed of the run.
    /// The count is one this machine reaches in under half the window.
    rss_at_op: u64,
    rss_mb: Option<f64>,
}

impl Window {
    /// A window from `start` (now, or a moment ago for threads sharing
    /// one) for `seconds`; leaves `tr` off (the first block).
    pub fn open(
        start: Instant,
        seconds: f64,
        traced: bool,
        block_ops: u64,
        rss_at_op: u64,
        tr: &mut Tracer,
    ) -> Window {
        tr.set_on(false);
        Window {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            excluded: Duration::ZERO,
            traced,
            block_ops,
            block_start: start,
            in_block: 0,
            blocks: 0,
            on: false,
            in_op: false,
            wall: [0.0; 2],
            ops: [0; 2],
            samples: Samples::new(seconds),
            rss_at_op,
            rss_mb: None,
        }
    }

    /// Call before each operation: closes the previous one, flips the
    /// tracer at block boundaries, and says whether to go on.
    pub fn next_op(&mut self, tr: &mut Tracer) -> bool {
        let now = Instant::now();
        if self.in_op {
            self.ops[self.on as usize] += 1;
            self.in_block += 1;
        }
        let over = now >= self.deadline;
        if over || (self.traced && self.in_block >= self.block_ops) {
            self.wall[self.on as usize] += (now - self.block_start).as_secs_f64();
            self.block_start = now;
            self.in_block = 0;
            if !over {
                self.blocks += 1;
                self.on = matches!(self.blocks % 4, 1 | 2);
                tr.set_on(self.on);
            }
        }
        self.in_op = !over;
        !over
    }

    /// Take `gap`, which just passed between two operations, off the
    /// clock: the deadline stays, but slices, rates and block times see
    /// only the rest.
    pub fn exclude(&mut self, gap: Duration) {
        self.excluded += gap;
        self.block_start += gap;
    }

    /// Record the latency of the operation that just ended.
    pub fn record(&mut self, latency: Duration) {
        let at = self.start.elapsed() - self.excluded;
        self.samples.push(at.as_secs_f64(), ms(latency));
        if self.samples.count() == self.rss_at_op {
            self.rss_mb = Some(peak_rss_mb());
        }
    }

    /// Peak resident set at the checkpoint operation, or now if the window
    /// never got that far.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.unwrap_or_else(peak_rss_mb)
    }

    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    pub fn ops(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    pub fn wall_s(&self) -> f64 {
        self.wall[0] + self.wall[1]
    }

    /// Merge another thread's window over the same interval: operations
    /// and samples add up, wall time does not.
    pub fn absorb_parallel(&mut self, other: &Window) {
        for i in 0..2 {
            self.ops[i] += other.ops[i];
            self.wall[i] = self.wall[i].max(other.wall[i]);
        }
        self.samples.absorb(&other.samples);
        self.rss_mb = match (self.rss_mb, other.rss_mb) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    pub fn overhead_pct(&self) -> f64 {
        if self.ops[0] == 0 || self.ops[1] == 0 {
            return 0.0;
        }
        let off = self.wall[0] / self.ops[0] as f64;
        let on = self.wall[1] / self.ops[1] as f64;
        (on / off - 1.0) * 100.0
    }
}

/// What a workload hands back for the metrics all five derive alike.
pub struct Measured {
    pub window: Window,
    /// One value per set-up.
    pub setup_s: Vec<f64>,
    /// Time spent in the harness's own correctness checks.
    pub check_s: f64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

/// The end-to-end metrics (untraced run) or the harness/trace per-layer
/// metrics (traced run, which also writes the span file).
pub fn common_metrics(run: &Run, res: &mut RunResult, m: &Measured) {
    // Medians over the slices that saw any operation.
    let samples = m.window.samples();
    let slices: Vec<(f64, Vec<f64>)> = samples
        .slices(&[50.0, 90.0])
        .into_iter()
        .filter(|(rate, _)| *rate > 0.0)
        .collect();
    let over_slices = |f: fn(&(f64, Vec<f64>)) -> f64| -> f64 {
        median(&slices.iter().map(f).collect::<Vec<f64>>())
    };
    if !run.traced {
        res.set("ops_per_s", over_slices(|s| s.0));
        res.set("op_p50_ms", over_slices(|s| s.1[0]));
        res.set("peak_rss_mb", m.window.peak_rss_mb());
        res.set("setup_s", median(&m.setup_s));
        return;
    }
    res.set("harness.op_p90_ms", over_slices(|s| s.1[1]));
    res.set("trace.overhead_pct", m.window.overhead_pct());
    res.set("harness.spans", m.spans.len() as f64);
    res.set("harness.spans_dropped", m.spans_dropped as f64);
    res.set("harness.samples", samples.count() as f64);
    res.set(
        "harness.tail_percentile",
        highest_supported_percentile(samples.count() as usize).unwrap_or(50.0),
    );
    res.set("harness.check_s", m.check_s);
    let own = trace::self_seconds_by_layer(&m.spans);
    for layer in LAYERS {
        res.set(
            &format!("trace.self_s.{layer}"),
            own.get(layer).copied().unwrap_or(0.0),
        );
    }
    let path = run.out_dir.join(format!("trace-{}.jsonl", run.workload));
    if let Err(e) = trace::write_jsonl(&path, &m.spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Milliseconds of a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_alternates_blocks_and_counts_both_sides() {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut w = Window::open(Instant::now(), 0.06, true, 4, 3, &mut tr);
        while w.next_op(&mut tr) {
            tr.next_request();
            let o = tr.begin("harness", "op");
            std::thread::sleep(Duration::from_millis(1));
            let dt = tr.end(o);
            w.record(dt);
        }
        assert!(w.ops[0] > 0 && w.ops[1] > 0, "{:?}", w.ops);
        assert_eq!(w.samples().count(), w.ops());
        assert!(w.rss_mb.is_some_and(|mb| mb > 0.0));
        assert!((0.055..1.0).contains(&w.wall_s()), "{}", w.wall_s());
        // Spans exist for the traced blocks only.
        assert_eq!(tr.into_spans().len() as u64, w.ops[1]);
    }

    #[test]
    fn untraced_window_never_turns_the_tracer_on() {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut w = Window::open(Instant::now(), 0.01, false, 1, 0, &mut tr);
        while w.next_op(&mut tr) {
            let o = tr.begin("harness", "op");
            tr.end(o);
        }
        assert_eq!(w.ops[1], 0);
        assert_eq!(w.overhead_pct(), 0.0);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn samples_thin_out_evenly_once_full() {
        let mut s = Samples::new(10.0);
        let n = 3 * SAMPLE_CAP as u64;
        for i in 0..n {
            s.push(0.5, i as f64);
        }
        assert_eq!(s.count(), n);
        assert_eq!(s.sum_ms(), (n * (n - 1) / 2) as f64);
        // Every 4th sample survives, still in arrival order.
        let kept = s.kept_ms();
        assert_eq!(kept.len(), 3 * SAMPLE_CAP / 4);
        assert!(kept.iter().enumerate().all(|(k, &x)| x == 4.0 * k as f64));
        let mut fine = Samples::new(10.0);
        fine.push(0.5, 0.5);
        fine.push(0.5, 1.5);
        fine.absorb(&s);
        assert_eq!(fine.kept_ms().len(), 1 + 3 * SAMPLE_CAP / 4);
        assert_eq!(fine.count(), n + 2);
        assert_eq!(fine.per_slice[0], n + 2);
    }

    #[test]
    fn slices_hold_their_own_rate_and_percentiles() {
        let mut s = Samples::new(10.0);
        // Slice 0: 100 operations of 1..=100 ms; slice 3: 10 of 7 ms; one
        // past the deadline.
        for i in 1..=100 {
            s.push(0.5, f64::from(i));
        }
        for _ in 0..10 {
            s.push(3.0, 7.0);
        }
        s.push(10.2, 1e6);
        let slices = s.slices(&[50.0, 90.0]);
        assert_eq!(slices.len(), SLICES);
        // 100 operations by 0.5 s; 10 more between then and 3.0 s.
        assert_eq!(slices[0], (200.0, vec![50.0, 90.0]));
        assert_eq!(slices[3], (4.0, vec![7.0, 7.0]));
        assert_eq!(slices[1], (0.0, vec![0.0, 0.0]));
        assert_eq!(s.count(), 111);
    }
}
