//! Zero-perturbation instrumentation for the autotuning stack: tuner
//! phase spans and the VM's per-chunk opcode profile.
//!
//! The hard contract, shared with every other subsystem in this repo:
//! **tracing enabled vs disabled is bit-identical** in every tuner
//! decision and every `TunerStats` counter. Instrumentation only ever
//! *observes* — it reads clocks and counters, it never participates in
//! control flow — and when disabled it costs a single branch on a
//! static flag.
//!
//! # Phase spans
//!
//! The tuner brackets each of its five phases (Figure 5: test, random
//! mutation, merge, guided mutation, prune) with [`start`] and
//! [`record`]. Spans go into one process-wide log behind a mutex. A
//! tuning run records a few per round, on the thread driving it, so
//! the lock is taken rarely and almost never contended. The log holds
//! at most `LOG_CAP` spans; later ones are counted in
//! [`Trace::dropped`].
//!
//! # VM chunk profiling
//!
//! [`record_chunk`] merges a stack-local per-opcode count array into a
//! per-thread table keyed by chunk label. The tables are `HashMap`s
//! behind per-thread mutexes that only the owning thread and the
//! (quiescent-time) snapshot ever lock, and the steady-state path —
//! `get_mut` on an existing label plus a `zip` of two slices — does
//! not allocate, preserving the VM's zero-alloc contract (pinned by
//! `tests/vm_alloc.rs` with profiling enabled).

#![forbid(unsafe_code)]

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans the log keeps between [`reset`]s; later ones are only counted
/// (in [`Trace::dropped`]).
const LOG_CAP: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

/// Phase span recording.
static EVENTS: AtomicBool = AtomicBool::new(false);
/// VM per-chunk opcode profiling.
static VMPROF: AtomicBool = AtomicBool::new(false);

/// Turns on span recording *and* VM chunk profiling.
pub fn enable() {
    EVENTS.store(true, Ordering::Release);
    VMPROF.store(true, Ordering::Release);
}

/// Turns off span recording and VM chunk profiling. Already-recorded
/// spans stay in the log until [`collect`]/[`reset`].
pub fn disable() {
    EVENTS.store(false, Ordering::Release);
    VMPROF.store(false, Ordering::Release);
}

/// Is span recording on? The tracing-disabled fast path is exactly
/// this load-and-branch.
#[inline]
pub fn enabled() -> bool {
    EVENTS.load(Ordering::Relaxed)
}

/// Is VM chunk profiling on? Checked once per chunk execution, not per
/// instruction.
#[inline]
pub fn vm_profiling() -> bool {
    VMPROF.load(Ordering::Relaxed)
}

/// Toggles VM chunk profiling independently of span recording (used
/// by the allocation test, which wants profiling without spans).
pub fn set_vm_profiling(on: bool) {
    VMPROF.store(on, Ordering::Release);
}

// ---------------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------------

/// Which tuner phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Each size's first `Population::test_all` (new children and
    /// guided candidates are tested inside their own phases).
    PhaseTest,
    /// Random-mutation plan+execute (children's trial batch).
    PhaseMutate,
    /// Child-vs-parent arena merge.
    PhaseMerge,
    /// Hill-climbing guided mutation.
    PhaseGuided,
    /// Tournament pruning.
    PhasePrune,
}

impl EventKind {
    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseTest => "phase_test",
            EventKind::PhaseMutate => "phase_mutate",
            EventKind::PhaseMerge => "phase_merge",
            EventKind::PhaseGuided => "phase_guided",
            EventKind::PhasePrune => "phase_prune",
        }
    }

    /// The five tuner phases, in their in-generation order.
    pub const PHASES: [EventKind; 5] = [
        EventKind::PhaseTest,
        EventKind::PhaseMutate,
        EventKind::PhaseMerge,
        EventKind::PhaseGuided,
        EventKind::PhasePrune,
    ];
}

/// One recorded phase span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Which phase.
    pub kind: EventKind,
    /// Span duration in nanoseconds.
    pub wall_ns: u64,
}

/// The span log and what overflowed it.
struct Log {
    events: Vec<Event>,
    dropped: u64,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    events: Vec::new(),
    dropped: 0,
});

const POISONED: &str = "trace log lock poisoned";

/// Opens a span: the current time while recording is on, `None` (and
/// no clock read) while it is off.
#[inline]
pub fn start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Closes a span opened by [`start`], logging it as `kind`; a `None`
/// start records nothing.
pub fn record(kind: EventKind, start: Option<Instant>) {
    let Some(start) = start else { return };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut log = LOG.lock().expect(POISONED);
    if log.events.len() < LOG_CAP {
        log.events.push(Event { kind, wall_ns });
    } else {
        log.dropped += 1;
    }
}

// ---------------------------------------------------------------------------
// VM chunk profiling
// ---------------------------------------------------------------------------

/// Accumulated counters for one chunk on one thread.
#[derive(Debug, Clone)]
struct ChunkCounts {
    executions: u64,
    opcodes: Vec<u64>,
}

/// One thread's chunk-profile table, shared with the collector.
type SharedChunkTable = Arc<Mutex<HashMap<String, ChunkCounts>>>;

static CHUNK_TABLES: Mutex<Vec<SharedChunkTable>> = Mutex::new(Vec::new());

thread_local! {
    static CHUNK_TABLE: OnceCell<SharedChunkTable> = const { OnceCell::new() };
}

/// Merges one chunk execution's per-opcode counts into this thread's
/// table. The steady-state path (label already present) performs no
/// heap allocation; the first execution of a chunk on a thread
/// allocates its table row, which warmup runs absorb.
pub fn record_chunk(label: &str, opcodes: &[u64]) {
    CHUNK_TABLE.with(|cell| {
        let table = cell.get_or_init(|| {
            let t = Arc::new(Mutex::new(HashMap::new()));
            CHUNK_TABLES.lock().unwrap().push(t.clone());
            t
        });
        let mut t = table.lock().unwrap();
        match t.get_mut(label) {
            Some(counts) => {
                counts.executions += 1;
                for (acc, &n) in counts.opcodes.iter_mut().zip(opcodes) {
                    *acc += n;
                }
            }
            None => {
                t.insert(
                    label.to_owned(),
                    ChunkCounts {
                        executions: 1,
                        opcodes: opcodes.to_vec(),
                    },
                );
            }
        }
    });
}

/// Per-chunk execution totals, merged across threads. Opcode indices
/// follow `pb_lang`'s opcode table (this crate stores them raw and
/// leaves naming to consumers, keeping the dependency arrow pointing
/// the right way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkProfile {
    /// Chunk label, `transform::rN`.
    pub label: String,
    /// Times the chunk's dispatch loop ran.
    pub executions: u64,
    /// Executed-instruction count per opcode index.
    pub opcodes: Vec<u64>,
}

impl ChunkProfile {
    /// Total instructions executed in this chunk.
    pub fn instructions(&self) -> u64 {
        self.opcodes.iter().sum()
    }
}

/// Snapshot of all threads' chunk tables, merged and sorted by label.
pub fn chunk_snapshot() -> Vec<ChunkProfile> {
    let tables = CHUNK_TABLES.lock().unwrap().clone();
    let mut merged: BTreeMap<String, ChunkCounts> = BTreeMap::new();
    for table in &tables {
        for (label, counts) in table.lock().unwrap().iter() {
            match merged.get_mut(label) {
                Some(m) => {
                    m.executions += counts.executions;
                    if m.opcodes.len() < counts.opcodes.len() {
                        m.opcodes.resize(counts.opcodes.len(), 0);
                    }
                    for (acc, &n) in m.opcodes.iter_mut().zip(&counts.opcodes) {
                        *acc += n;
                    }
                }
                None => {
                    merged.insert(label.clone(), counts.clone());
                }
            }
        }
    }
    merged
        .into_iter()
        .map(|(label, c)| ChunkProfile {
            label,
            executions: c.executions,
            opcodes: c.opcodes,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// The span log plus chunk profiles.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Phase spans in the order they ended.
    pub events: Vec<Event>,
    /// Merged VM chunk profiles, sorted by label.
    pub chunks: Vec<ChunkProfile>,
    /// Spans recorded past the log's cap, and so not in `events`.
    pub dropped: u64,
}

/// Drains nothing, copies everything: the span log and the merged
/// chunk tables. Call at a quiescent point (no tuning in flight).
pub fn collect() -> Trace {
    let (events, dropped) = {
        let log = LOG.lock().expect(POISONED);
        (log.events.clone(), log.dropped)
    };
    Trace {
        events,
        chunks: chunk_snapshot(),
        dropped,
    }
}

/// Clears the span log, its drop count and all chunk tables. Only call
/// at a quiescent point.
pub fn reset() {
    {
        let mut log = LOG.lock().expect(POISONED);
        log.events.clear();
        log.dropped = 0;
    }
    for table in CHUNK_TABLES.lock().unwrap().iter() {
        table.lock().unwrap().clear();
    }
}

/// Per-phase span summary, so trace consumers need no event-model
/// knowledge.
#[derive(Debug, Clone, Default)]
pub struct PhaseDelta {
    /// Phase name (`phase_test`, `phase_mutate`, ...).
    pub phase: String,
    /// Phase span occurrences across the trace.
    pub count: u64,
    /// Summed wall time of the phase spans, ns.
    pub wall_ns: u64,
}

impl Trace {
    /// Span counts and summed wall time per phase, in generation order;
    /// phases with no span are left out.
    pub fn phase_deltas(&self) -> Vec<PhaseDelta> {
        EventKind::PHASES
            .into_iter()
            .filter_map(|kind| {
                let (count, wall_ns) = self
                    .events
                    .iter()
                    .filter(|e| e.kind == kind)
                    .fold((0, 0), |(n, wall), e| (n + 1, wall + e.wall_ns));
                (count > 0).then(|| PhaseDelta {
                    phase: kind.name().to_owned(),
                    count,
                    wall_ns,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that [`reset`] or read what it clears.
    static RESETS: Mutex<()> = Mutex::new(());

    #[test]
    fn tracing_is_off_by_default() {
        // Other tests in this module flip VMPROF/EVENTS; this only
        // checks the initial state indirectly via a fresh pair of
        // enable/disable transitions.
        disable();
        assert!(!enabled());
        assert!(!vm_profiling());
        assert_eq!(start(), None, "no clock read while off");
        enable();
        assert!(enabled());
        assert!(vm_profiling());
        disable();
    }

    #[test]
    fn chunk_profiles_merge_per_label() {
        let _serial = RESETS.lock().unwrap();
        record_chunk("t::r0", &[1, 0, 2]);
        record_chunk("t::r0", &[1, 1, 0]);
        let snap = chunk_snapshot();
        let c = snap.iter().find(|c| c.label == "t::r0").unwrap();
        assert_eq!(c.executions, 2);
        assert_eq!(c.opcodes, vec![2, 1, 2]);
        assert_eq!(c.instructions(), 5);
    }

    #[test]
    fn span_log_is_capped_and_reset_clears_it() {
        let _serial = RESETS.lock().unwrap();
        reset();
        for _ in 0..LOG_CAP + 3 {
            record(EventKind::PhaseTest, Some(Instant::now()));
        }
        record(EventKind::PhasePrune, None);
        let t = collect();
        assert_eq!(t.events.len(), LOG_CAP);
        assert_eq!(t.dropped, 3);
        assert!(t.events.iter().all(|e| e.kind == EventKind::PhaseTest));
        reset();
        let t = collect();
        assert_eq!((t.events.len(), t.dropped), (0, 0));
    }

    #[test]
    fn phase_deltas_sum_span_wall_per_phase_in_generation_order() {
        let span = |kind, wall_ns| Event { kind, wall_ns };
        let trace = Trace {
            events: vec![
                span(EventKind::PhasePrune, 100),
                span(EventKind::PhaseMutate, 100),
                span(EventKind::PhaseMutate, 50),
            ],
            chunks: Vec::new(),
            dropped: 0,
        };
        let phases = trace.phase_deltas();
        assert_eq!(phases.len(), 2, "only phases that occurred are listed");
        assert_eq!(phases[0].phase, "phase_mutate");
        assert_eq!((phases[0].count, phases[0].wall_ns), (2, 150));
        assert_eq!(phases[1].phase, "phase_prune");
        assert_eq!((phases[1].count, phases[1].wall_ns), (1, 100));
    }
}
