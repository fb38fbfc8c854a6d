//! Wall-clock spans for the traced run.
//!
//! Spans nest as run → event handler → transport or object call. Each
//! span records its own duration and adds it to its parent's child
//! time, so a layer's *self* time is its span minus its children and
//! the self times of all layers add up exactly to the root span.
//!
//! The recorder is thread-local: a traced simulation runs on one
//! thread, and a thread with no active recording pays one flag check
//! per span.

use std::cell::RefCell;
use std::time::Instant;

/// The layers a traced run attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The root span: `rdma-sim`'s event loop and fabric, i.e. whatever
    /// no child span covers.
    Sim,
    /// The benchmark's own drive-loop checks and poll bookkeeping.
    Harness,
    /// Poll-timer events: buffer traversal plus the client pump.
    Pump,
    /// Verb-completion events.
    Completion,
    /// Heartbeat, failure-detector and retry timers.
    Timers,
    /// `HambandNode::start`, two-sided control messages and injected
    /// faults.
    Control,
    /// Calls through the `Transport` trait.
    Transport,
    /// `ObjectSpec::apply` / `apply_mut`.
    TypesApply,
    /// `ObjectSpec::summarize`.
    TypesSummarize,
    /// `ObjectSpec::invariant` / `permissible`.
    TypesInvariant,
    /// The rest of the object's code: queries, initial states and
    /// workload generation.
    TypesOther,
    /// The trace sink recording virtual-time events.
    Trace,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Sim,
        Layer::Harness,
        Layer::Pump,
        Layer::Completion,
        Layer::Timers,
        Layer::Control,
        Layer::Transport,
        Layer::TypesApply,
        Layer::TypesSummarize,
        Layer::TypesInvariant,
        Layer::TypesOther,
        Layer::Trace,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Self time and entry count per layer, as recorded by one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    root_ns: u64,
}

impl LayerTimes {
    /// Self time of `layer`, nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// How many spans of `layer` were entered.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Sum of every layer's self time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Duration of the outermost spans, nanoseconds: the traced wall
    /// time, which [`total_ns`](Self::total_ns) must equal.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    active: bool,
    stack: Vec<Frame>,
    times: LayerTimes,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording on this thread, discarding anything recorded
/// before.
pub(crate) fn begin() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.active = true;
        r.stack.clear();
        r.times = LayerTimes::default();
    });
}

/// Stop recording on this thread and return what was recorded.
///
/// # Panics
///
/// Panics if a span is still open: the self times would not add up.
pub(crate) fn end() -> LayerTimes {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "traced run ended with open spans");
        r.active = false;
        std::mem::take(&mut r.times)
    })
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when dropped"]
pub(crate) struct Span {
    live: bool,
}

/// Open a span of `layer` under the innermost open span (a no-op when
/// this thread is not recording).
pub(crate) fn enter(layer: Layer) -> Span {
    let live = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.active {
            r.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        r.active
    });
    Span { live }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(frame) = r.stack.pop() else { return };
            let total = frame.start.elapsed().as_nanos() as u64;
            // Children run one after another inside this span on a
            // monotonic clock, so their durations never exceed it.
            let i = frame.layer.index();
            r.times.self_ns[i] += total - frame.child_ns;
            r.times.calls[i] += 1;
            match r.stack.last_mut() {
                Some(parent) => parent.child_ns += total,
                None => r.times.root_ns += total,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        begin();
        {
            let _root = enter(Layer::Sim);
            for _ in 0..3 {
                let _h = enter(Layer::Pump);
                let _t = enter(Layer::Transport);
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let t = end();
        assert_eq!(t.calls(Layer::Pump), 3);
        assert_eq!(t.calls(Layer::Transport), 3);
        assert_eq!(t.calls(Layer::Sim), 1);
        assert!(t.root_ns() > 0);
        assert_eq!(t.total_ns(), t.root_ns());
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        let s = enter(Layer::Sim);
        assert!(!s.live);
    }
}
