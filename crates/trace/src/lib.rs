//! Zero-perturbation structured tracing for the autotuning stack.
//!
//! Every layer of the system — tuner generations, mutation/prune/merge
//! phases, arena rounds, evaluator batches, trials, pool batches and
//! jobs — can emit events into per-thread, pre-allocated ring buffers.
//! The recorders are lock-free on the hot path (one `Relaxed` head
//! bump plus a `Release` publish per event) and allocation-free after
//! their first use on a thread, so tracing can stay on during
//! measurement runs.
//!
//! The hard contract, shared with every other subsystem in this repo:
//! **tracing enabled vs disabled is bit-identical** in every tuner
//! decision and every `TunerStats` counter. Instrumentation only ever
//! *observes* — it reads clocks and counters, it never participates in
//! control flow — and when disabled it costs a single branch on a
//! static flag.
//!
//! # Deterministic merge order
//!
//! Wall-clock timestamps are nondeterministic, so they are payload,
//! never a sort key. Instead every event carries a two-level logical
//! order:
//!
//! * `seq` — a global sequence number allocated on the coordinator
//!   thread when the structural construct (span, batch) is created.
//!   Coordinator-side control flow is deterministic, so `seq` is too.
//! * `idx` — the position *within* that construct: the trial's request
//!   index in its batch, a pool job's start index. Also deterministic.
//!
//! [`collect`] merges all rings and sorts by `(seq, idx, kind, thread,
//! start_ns)`; for events produced by a deterministic run the prefix
//! `(seq, idx, kind)` is already a total order, so the merged log's
//! event sequence is identical across reruns and across sequential vs
//! pooled execution even though the timestamps differ.
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

use std::cell::{OnceCell, UnsafeCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events per thread kept in the ring; older events are overwritten
/// (and counted in [`Trace::dropped`]). Power of two so the index mask
/// is a single `and`.
const RING_CAP: usize = 1 << 15;

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

/// Structural event recording (spans, batches, jobs).
static EVENTS: AtomicBool = AtomicBool::new(false);
/// VM per-chunk opcode profiling.
static VMPROF: AtomicBool = AtomicBool::new(false);
/// Coordinator-side structural sequence counter.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Monotonic epoch all timestamps are relative to; armed on first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns on event recording *and* VM chunk profiling.
pub fn enable() {
    // Arm the epoch before any recorder can read it, so timestamps
    // never race the first event.
    let _ = EPOCH.get_or_init(Instant::now);
    EVENTS.store(true, Ordering::Release);
    VMPROF.store(true, Ordering::Release);
}

/// Turns off event recording and VM chunk profiling. Already-recorded
/// events stay in the rings until [`collect`]/[`reset`].
pub fn disable() {
    EVENTS.store(false, Ordering::Release);
    VMPROF.store(false, Ordering::Release);
}

/// Is structural event recording on? The tracing-disabled fast path is
/// exactly this load-and-branch.
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

/// Should *this* execution of the chunk named `label` be profiled?
/// Every execution is while [`vm_profiling`] is on, none while it is
/// off.
#[inline]
pub fn vm_profile_due(_label: &str) -> bool {
    vm_profiling()
}

/// Toggles VM chunk profiling independently of event recording (used
/// by the allocation test, which wants profiling without spans).
pub fn set_vm_profiling(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    VMPROF.store(on, Ordering::Release);
}

/// Allocates the next structural sequence number. Only meaningful on
/// deterministic (coordinator) control flow; worker-side events reuse
/// the sequence of the construct that spawned them.
#[inline]
pub fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// Nanoseconds since the trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What an [`Event`] describes. Listed coordinator-outermost first;
/// the discriminant doubles as the tie-breaking sort key after
/// `(seq, idx)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// One whole `tune_outcome` run. `a`=seed, `b`=input sizes,
    /// `c..d`=pool delta (tasks, dispatched batches).
    TuningRun,
    /// One input size's generations. `a`=n, `b..d`=pool delta.
    Generation,
    /// `Population::test_all`. Phase args: `a`=dispatched, `b`=inline,
    /// `c`=tasks, `d`=max batch — the pool delta over the phase.
    PhaseTest,
    /// Random-mutation plan+execute (children's trial batch).
    PhaseMutate,
    /// Child-vs-parent arena merge.
    PhaseMerge,
    /// Hill-climbing guided mutation.
    PhaseGuided,
    /// Tournament pruning.
    PhasePrune,
    /// One arena comparison round that issued a batch. `a`=planned
    /// requests, `b`=candidates drawn, `c`=live contests.
    ArenaRound,
    /// One `Evaluator::run_batch`. `a`=requests, `b`=executed misses,
    /// `c`=cache hits, `d`=coalesced duplicates.
    EvalBatch,
    /// One trial execution. `idx` is its request index within the
    /// batch. `a`=input size, `b`=trial seed, `c`=virtual cost.
    Trial,
    /// One pool batch. `a`=items, `b`=job chunks, `c`=1 if dispatched
    /// to workers, 0 if inline; `d` is reserved (0; older traces may
    /// carry other values, which readers ignore).
    PoolBatch,
    /// One executed pool job (contiguous item range). `idx`=`a`=range
    /// start, `b`=range end.
    PoolJob,
}

impl EventKind {
    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TuningRun => "tuning_run",
            EventKind::Generation => "generation",
            EventKind::PhaseTest => "phase_test",
            EventKind::PhaseMutate => "phase_mutate",
            EventKind::PhaseMerge => "phase_merge",
            EventKind::PhaseGuided => "phase_guided",
            EventKind::PhasePrune => "phase_prune",
            EventKind::ArenaRound => "arena_round",
            EventKind::EvalBatch => "eval_batch",
            EventKind::Trial => "trial",
            EventKind::PoolBatch => "pool_batch",
            EventKind::PoolJob => "pool_job",
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

/// One recorded event. Fixed-size and `Copy` so ring slots never
/// allocate or drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Structural (deterministic) major order — see module docs.
    pub seq: u64,
    /// Deterministic minor order within `seq`.
    pub idx: u64,
    /// Recording thread's trace-local id (0 = first thread seen).
    pub thread: u32,
    /// Span start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Kind-specific payload.
    pub c: u64,
    /// Kind-specific payload.
    pub d: u64,
}

impl Event {
    /// A span that started at `start_ns` (from [`now_ns`]) and ends
    /// now. `thread` is stamped by [`record`].
    pub fn span(kind: EventKind, seq: u64, idx: u64, start_ns: u64, args: [u64; 4]) -> Event {
        Event {
            kind,
            seq,
            idx,
            thread: 0,
            start_ns,
            dur_ns: now_ns().saturating_sub(start_ns),
            a: args[0],
            b: args[1],
            c: args[2],
            d: args[3],
        }
    }

    const ZERO: Event = Event {
        kind: EventKind::TuningRun,
        seq: 0,
        idx: 0,
        thread: 0,
        start_ns: 0,
        dur_ns: 0,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
    };
}

// ---------------------------------------------------------------------------
// Per-thread ring recorders
// ---------------------------------------------------------------------------

/// A single-producer ring: the owning thread writes, [`collect`] reads
/// at quiescent points (after a run, never concurrent with tuning).
struct Ring {
    /// Trace-local thread id.
    thread: u32,
    /// Total events ever written; slot = `head & (slots.len() - 1)`
    /// ([`RING_CAP`] slots, a power of two).
    /// `Release` on write, `Acquire` on collect, so the collector sees
    /// fully-written slots.
    head: AtomicU64,
    slots: Box<[UnsafeCell<Event>]>,
}

// SAFETY: only the owning thread writes (thread-local handle); readers
// synchronize through `head` and only run at quiescent points.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

/// One thread's chunk-profile table, shared with the collector.
type SharedChunkTable = Arc<Mutex<HashMap<String, ChunkCounts>>>;

static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static CHUNK_TABLES: Mutex<Vec<SharedChunkTable>> = Mutex::new(Vec::new());

thread_local! {
    static RECORDER: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    static CHUNK_TABLE: OnceCell<SharedChunkTable> = const { OnceCell::new() };
}

fn register_ring() -> Arc<Ring> {
    let ring = Arc::new(Ring {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        head: AtomicU64::new(0),
        slots: (0..RING_CAP)
            .map(|_| UnsafeCell::new(Event::ZERO))
            .collect(),
    });
    RINGS.lock().unwrap().push(ring.clone());
    ring
}

/// Records an event into this thread's ring, stamping the thread id.
/// Callers gate on [`enabled`] themselves (usually they already did,
/// to skip building the event at all).
pub fn record(ev: Event) {
    RECORDER.with(|cell| {
        let ring = cell.get_or_init(register_ring);
        let n = ring.head.load(Ordering::Relaxed);
        let slot = ring.slots[(n as usize) & (ring.slots.len() - 1)].get();
        // SAFETY: this thread is the ring's only writer; the slot is
        // below the published head, so no reader touches it yet.
        unsafe {
            slot.write(Event {
                thread: ring.thread,
                ..ev
            })
        };
        ring.head.store(n + 1, Ordering::Release);
    });
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

/// A merged, deterministically ordered event log plus chunk profiles.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events sorted by `(seq, idx, kind, thread, start_ns)`.
    pub events: Vec<Event>,
    /// Merged VM chunk profiles, sorted by label.
    pub chunks: Vec<ChunkProfile>,
    /// Events lost to ring wrap-around (oldest-first per thread).
    pub dropped: u64,
}

/// Drains nothing, copies everything: merges all ring contents and
/// chunk tables into a [`Trace`]. Call at a quiescent point (no tuning
/// or traced pool work in flight).
pub fn collect() -> Trace {
    let rings = RINGS.lock().unwrap().clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in &rings {
        let head = ring.head.load(Ordering::Acquire);
        let kept = head.min(ring.slots.len() as u64);
        dropped += head - kept;
        for i in (head - kept)..head {
            // SAFETY: slots below the Acquire-loaded head are fully
            // written, and we only collect at quiescent points.
            events.push(unsafe { *ring.slots[(i as usize) & (ring.slots.len() - 1)].get() });
        }
    }
    events.sort_by(|x, y| {
        (x.seq, x.idx, x.kind, x.thread, x.start_ns)
            .cmp(&(y.seq, y.idx, y.kind, y.thread, y.start_ns))
    });
    Trace {
        events,
        chunks: chunk_snapshot(),
        dropped,
    }
}

/// Clears all rings, chunk tables, and the sequence counter. Only call
/// at a quiescent point.
pub fn reset() {
    for ring in RINGS.lock().unwrap().iter() {
        ring.head.store(0, Ordering::Release);
    }
    for table in CHUNK_TABLES.lock().unwrap().iter() {
        table.lock().unwrap().clear();
    }
    SEQ.store(0, Ordering::Relaxed);
}

/// Per-phase pool-batch delta summary, so trace consumers need no
/// event-model knowledge.
#[derive(Debug, Clone, Default)]
pub struct PhaseDelta {
    /// Phase name (`phase_test`, `phase_mutate`, ...).
    pub phase: String,
    /// Phase span occurrences across the trace.
    pub count: u64,
    /// Summed wall time of the phase spans, ns.
    pub wall_ns: u64,
    /// Pool batches dispatched to workers during the phase.
    pub dispatched: u64,
    /// Pool batches run inline during the phase.
    pub inline: u64,
    /// Pool tasks executed during the phase.
    pub tasks: u64,
    /// Largest single dispatched batch seen in the phase.
    pub max_batch: u64,
}

impl Trace {
    /// Per-phase pool-batch deltas aggregated from this trace's phase
    /// spans (args: a=dispatched, b=inline, c=tasks, d=max batch).
    pub fn phase_deltas(&self) -> Vec<PhaseDelta> {
        let mut out = Vec::new();
        for kind in EventKind::PHASES {
            let mut delta = PhaseDelta {
                phase: kind.name().to_owned(),
                count: 0,
                wall_ns: 0,
                dispatched: 0,
                inline: 0,
                tasks: 0,
                max_batch: 0,
            };
            for e in self.events.iter().filter(|e| e.kind == kind) {
                delta.count += 1;
                delta.wall_ns += e.dur_ns;
                delta.dispatched += e.a;
                delta.inline += e.b;
                delta.tasks += e.c;
                delta.max_batch = delta.max_batch.max(e.d);
            }
            if delta.count > 0 {
                out.push(delta);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, seq: u64, idx: u64, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            kind,
            seq,
            idx,
            thread: 0,
            start_ns,
            dur_ns,
            a: 1,
            b: 2,
            c: 3,
            d: 4,
        }
    }

    #[test]
    fn vm_profile_due_mirrors_the_profiling_switch_at_default_period() {
        set_vm_profiling(false);
        assert!(!vm_profile_due("t::r0"));
        set_vm_profiling(true);
        assert!(vm_profile_due("t::r0"));
        assert!(vm_profile_due("t::r0"), "every execution is profiled");
        set_vm_profiling(false);
    }

    #[test]
    fn tracing_is_off_by_default() {
        // Other tests in this module flip VMPROF/EVENTS; this only
        // checks the initial state indirectly via a fresh pair of
        // enable/disable transitions.
        disable();
        assert!(!enabled());
        assert!(!vm_profiling());
        enable();
        assert!(enabled());
        assert!(vm_profiling());
        disable();
    }

    #[test]
    fn record_and_collect_orders_by_logical_sequence_not_time() {
        // Later wall-clock, earlier sequence: logical order must win.
        record(ev(EventKind::Trial, 10, 1, 999_999, 5));
        record(ev(EventKind::Trial, 10, 0, 999_998, 5));
        record(ev(EventKind::EvalBatch, 9, 0, 1_000_000, 50));
        let t = collect();
        let mine: Vec<&Event> = t
            .events
            .iter()
            .filter(|e| e.seq == 9 || e.seq == 10)
            .collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::EvalBatch);
        assert_eq!((mine[1].seq, mine[1].idx), (10, 0));
        assert_eq!((mine[2].seq, mine[2].idx), (10, 1));
    }

    #[test]
    fn chunk_profiles_merge_per_label() {
        record_chunk("t::r0", &[1, 0, 2]);
        record_chunk("t::r0", &[1, 1, 0]);
        let snap = chunk_snapshot();
        let c = snap.iter().find(|c| c.label == "t::r0").unwrap();
        assert_eq!(c.executions, 2);
        assert_eq!(c.opcodes, vec![2, 1, 2]);
        assert_eq!(c.instructions(), 5);
    }

    #[test]
    fn phase_deltas_sum_the_pool_args_per_phase_in_generation_order() {
        let trace = Trace {
            events: vec![
                ev(EventKind::PhasePrune, 3, 0, 700, 100),
                ev(EventKind::PhaseMutate, 2, 0, 500, 100),
                ev(EventKind::TuningRun, 1, 0, 0, 1000),
                ev(EventKind::PhaseMutate, 4, 0, 900, 50),
            ],
            chunks: Vec::new(),
            dropped: 0,
        };
        let phases = trace.phase_deltas();
        assert_eq!(phases.len(), 2, "only phases that occurred are listed");
        assert_eq!(phases[0].phase, "phase_mutate");
        assert_eq!((phases[0].count, phases[0].wall_ns), (2, 150));
        assert_eq!((phases[0].dispatched, phases[0].inline), (2, 4));
        assert_eq!((phases[0].tasks, phases[0].max_batch), (6, 4));
        assert_eq!(phases[1].phase, "phase_prune");
    }
}
