//! In-memory span recorder for the traced run, plus the statistics the
//! benchmark reports: self time, medians and the tail percentile.
//!
//! Spans are kept in one buffer until the run ends and never written into the
//! program's canonical event log. The untraced run creates no recorder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that was open on the same thread when this one started.
    pub parent: Option<u32>,
    /// Which thread recorded the span (recorder-assigned, from 0).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_thread: AtomicU32,
}

thread_local! {
    /// Per thread: its recorder-assigned id and the stack of open span ids.
    static OPEN: RefCell<(Option<u32>, Vec<u32>)> = const { RefCell::new((None, Vec::new())) };
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
            next_thread: AtomicU32::new(0),
        }
    }
}

impl Recorder {
    /// Time `f` as a span named `name`, child of the span open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (thread, parent) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let thread = *open
                .0
                .get_or_insert_with(|| self.next_thread.fetch_add(1, Ordering::Relaxed));
            let parent = open.1.last().copied();
            open.1.push(id);
            (thread, parent)
        });
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().1.pop());
        self.spans.lock().expect("span buffer poisoned").push(Span {
            name,
            id,
            parent,
            thread,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// The recorder-assigned id of the calling thread (assigned on first use).
    pub fn thread_id(&self) -> u32 {
        OPEN.with(|open| {
            *open
                .borrow_mut()
                .0
                .get_or_insert_with(|| self.next_thread.fetch_add(1, Ordering::Relaxed))
        })
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Overlapping children (spans on several threads under
/// one parent) count once, as the union of their intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles a tail figure may report, highest first.
const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// The highest percentile, capped at `cap`, that has at least ten samples
/// beyond it among `n` samples (50 when no percentile has).
pub fn tail_percentile(n: usize, cap: usize) -> usize {
    TAIL_PERCENTILES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n * (100 - p) >= 1000)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..50 and 30..70 overlap on 30..50, and a
        // third child sticks out past the parent's end.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
            span(4, Some(1), 20, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 60 - 10);
        assert_eq!(st[&1], 40 - 5);
        assert_eq!(st[&2], 40);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let st = self_times(&[span(7, None, 5, 9)]);
        assert_eq!(st[&7], 4);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000, 95), 95);
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(200, 99), 95);
        assert_eq!(tail_percentile(199, 95), 90);
        assert_eq!(tail_percentile(100, 95), 90);
        assert_eq!(tail_percentile(40, 95), 75);
        assert_eq!(tail_percentile(20, 95), 50);
        assert_eq!(tail_percentile(3, 95), 50);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn recorder_links_nested_spans_to_their_parent() {
        let rec = Recorder::default();
        rec.span("outer", || rec.span("inner", || ()));
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
