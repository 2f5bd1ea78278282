//! Black-box tests of `obs::trace`: RAII nesting, explicit cross-thread
//! propagation through the vendored rayon, seqlock snapshot safety under
//! a concurrent writer, ring overflow accounting, and zero-cost-off.
//!
//! The journal registry and counters are process-global and the harness
//! runs tests concurrently, so every assertion here is scoped to trace
//! ids this test minted (or is a race-safe lower bound on a counter).
//! The on/off switch is process-global too: every test holds [`SWITCH`]
//! for its whole body via [`tracing`].

use fmml_obs::trace::{self, TraceContext};
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the tests of this file around the global trace switch.
static SWITCH: Mutex<()> = Mutex::new(());

/// Take the switch and turn tracing `on` or off until the guard drops.
fn tracing(on: bool) -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the switch itself is still sound.
    let guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(on);
    guard
}

fn my_spans(snap: &trace::TraceSnapshot, trace_id: u64) -> Vec<trace::SpanInfo> {
    snap.spans
        .iter()
        .copied()
        .filter(|s| s.trace_id == trace_id)
        .collect()
}

#[test]
fn disabled_tracing_records_nothing() {
    let _switch = tracing(false);
    let s = trace::span("off.root");
    assert_eq!(s.context(), TraceContext::NONE);
    assert_eq!(s.trace_id(), 0);
    assert_eq!(trace::current_context(), TraceContext::NONE);
    let id = trace::record_span(
        "off.retro",
        TraceContext {
            trace_id: 7,
            span_id: 0,
        },
        Instant::now(),
        Duration::from_micros(1),
    );
    assert_eq!(id, 0, "retroactive record must no-op when off");
}

#[test]
fn raii_spans_nest_with_parent_linkage() {
    let _switch = tracing(true);
    let root_ctx;
    let child_ctx;
    {
        let root = trace::root("t.root");
        root_ctx = root.context();
        assert!(root_ctx.is_set());
        assert_eq!(trace::current_context(), root_ctx);
        {
            let child = trace::span("t.child");
            child_ctx = child.context();
            assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
            let leaf = trace::span("t.leaf");
            assert_eq!(leaf.context().trace_id, root_ctx.trace_id);
        }
        // Context restored to the root after the children dropped.
        assert_eq!(trace::current_context(), root_ctx);
    }
    assert_eq!(trace::current_context(), TraceContext::NONE);

    let snap = trace::snapshot();
    let mine = my_spans(&snap, root_ctx.trace_id);
    assert_eq!(mine.len(), 3, "three spans recorded: {mine:?}");
    let root_rec = mine.iter().find(|s| s.name == "t.root").unwrap();
    let child_rec = mine.iter().find(|s| s.name == "t.child").unwrap();
    let leaf_rec = mine.iter().find(|s| s.name == "t.leaf").unwrap();
    assert_eq!(root_rec.parent_id, 0);
    assert_eq!(child_rec.parent_id, root_rec.span_id);
    assert_eq!(leaf_rec.parent_id, child_rec.span_id);

    // Folded stacks contain the full path with self-time accounting.
    let folded = snap.folded_stacks();
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("t.root;t.child;t.leaf ")),
        "missing stack line in:\n{folded}"
    );
}

#[test]
fn context_propagates_into_rayon_workers() {
    let _switch = tracing(true);
    let trace_id;
    {
        let root = trace::root("par.root");
        trace_id = root.trace_id();
        let ctx = trace::current_context();
        let items: Vec<u64> = (0..64).collect();
        // The vendored rayon spawns fresh scope threads: thread-locals
        // do NOT flow. Explicit capture + with_context is the contract.
        let out: Vec<u64> = items
            .par_iter()
            .map(|&i| {
                trace::with_context(ctx, || {
                    let _s = trace::span("par.shard");
                    i * 2
                })
            })
            .collect();
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }
    let snap = trace::snapshot();
    let mine = my_spans(&snap, trace_id);
    let shards: Vec<_> = mine.iter().filter(|s| s.name == "par.shard").collect();
    assert_eq!(shards.len(), 64, "one span per item: {}", shards.len());
    let root_rec = mine.iter().find(|s| s.name == "par.root").unwrap();
    for s in shards {
        assert_eq!(s.parent_id, root_rec.span_id, "shard not under root");
    }
}

#[test]
fn retroactive_records_attach_to_a_trace() {
    let _switch = tracing(true);
    let trace_id = trace::alloc_trace_id();
    let parent = TraceContext {
        trace_id,
        span_id: 0,
    };
    let start = Instant::now();
    let sid = trace::record_span("retro.stage", parent, start, Duration::from_micros(250));
    assert_ne!(sid, 0);
    let child = trace::record_span(
        "retro.sub",
        TraceContext {
            trace_id,
            span_id: sid,
        },
        start,
        Duration::from_micros(100),
    );
    assert_ne!(child, 0);
    let snap = trace::snapshot();
    let mine = my_spans(&snap, trace_id);
    assert_eq!(mine.len(), 2);
    let stage = mine.iter().find(|s| s.name == "retro.stage").unwrap();
    let sub = mine.iter().find(|s| s.name == "retro.sub").unwrap();
    assert_eq!(stage.parent_id, 0);
    assert_eq!(sub.parent_id, stage.span_id);
    assert_eq!(stage.dur_ns, 250_000);

    let summary = snap
        .summaries(usize::MAX)
        .into_iter()
        .find(|t| t.trace_id == trace_id)
        .expect("trace summarized");
    assert_eq!(summary.root, "retro.stage");
    assert_eq!(summary.spans, 2);
    assert_eq!(summary.names, vec!["retro.stage", "retro.sub"]);
}

#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let _switch = tracing(true);
    let before = fmml_obs::trace::TRACE_DROPPED.get();
    // Push well past one ring's capacity from a dedicated thread so the
    // overflow is attributable to exactly these writes. Counter deltas
    // are lower bounds: other tests only ever add drops.
    let n = trace::DEFAULT_RING_SLOTS + 500;
    let trace_id = std::thread::spawn(move || {
        let root = trace::root("overflow.root");
        let id = root.trace_id();
        for _ in 0..n {
            let _s = trace::span("overflow.spin");
        }
        id
    })
    .join()
    .unwrap();
    let after = fmml_obs::trace::TRACE_DROPPED.get();
    assert!(
        after - before >= 500,
        "expected >= 500 drops, got {}",
        after - before
    );
    // The newest records survive; the snapshot stays well-formed.
    let snap = trace::snapshot();
    let mine = my_spans(&snap, trace_id);
    assert!(!mine.is_empty());
    assert!(mine.iter().all(|s| s.name.starts_with("overflow.")));
}

#[test]
fn snapshots_race_safely_with_a_live_writer() {
    let _switch = tracing(true);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let root = trace::root("race.root");
            let id = root.trace_id();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _a = trace::span("race.a");
                let _b = trace::span("race.b");
            }
            id
        })
    };
    // Hammer snapshots while the ring is being overwritten under us:
    // every record we get back must be fully formed (the seqlock must
    // discard torn reads, and names must be the original literals).
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut seen = 0usize;
    while Instant::now() < deadline {
        let snap = trace::snapshot();
        for s in &snap.spans {
            if s.name.starts_with("race.") {
                assert!(
                    s.name == "race.root" || s.name == "race.a" || s.name == "race.b",
                    "torn name escaped the seqlock: {:?}",
                    s.name
                );
                assert!(s.trace_id != 0 && s.span_id != 0);
                seen += 1;
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = writer.join().unwrap();
    assert!(seen > 0, "snapshots never observed the writer");
}

#[test]
fn dump_json_exposes_trace_section() {
    let _switch = tracing(true);
    {
        let _root = trace::root("dump.root");
        let _child = trace::span("dump.child");
    }
    let dump = fmml_obs::dump_json();
    let v: serde_json::Value = serde_json::from_str(&dump).expect("dump is valid JSON");
    assert!(v["metrics"]["counters"].as_object().is_some());
    assert_eq!(v["trace"]["enabled"].as_bool(), Some(true));
    assert!(v["trace"]["spans"].as_u64().unwrap() >= 2);
    assert!(v["trace"]["folded"].as_str().is_some());
}
