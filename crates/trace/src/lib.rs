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
//! # Exporters
//!
//! * [`Trace::to_jsonl`] — one JSON object per line, in deterministic
//!   merge order. Greppable ground truth.
//! * [`Trace::to_chrome`] / [`Trace::chrome_json`] — Chrome
//!   trace-event JSON (sorted by timestamp, complete `"X"` events)
//!   that loads directly in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. Chunk profiles and per-phase pool-batch
//!   deltas ride along in `otherData`, which the viewers ignore but
//!   the `tuner_trace` CLI reads back.
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

use serde::{Deserialize, Serialize};
use std::cell::{OnceCell, RefCell, UnsafeCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable overriding the per-thread ring capacity
/// (events kept per thread before wrap-around). Read once per
/// process, on first ring registration; the value is rounded up to a
/// power of two so the slot index stays a single mask. Absent,
/// unparsable, or zero values fall back to [`DEFAULT_RING_CAP`].
pub const RING_CAP_ENV: &str = "PB_TRACE_RING";

/// Default events per thread kept in the ring; older events are
/// overwritten (and counted in [`Trace::dropped`]). Power of two so
/// the index mask is a single `and`.
const DEFAULT_RING_CAP: usize = 1 << 15;

/// The active per-thread ring capacity: [`RING_CAP_ENV`] if set, else
/// [`DEFAULT_RING_CAP`].
fn ring_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| parse_ring_cap(std::env::var(RING_CAP_ENV).ok().as_deref()))
}

/// Pure parse half of [`ring_cap`]: round a positive integer up to a
/// power of two, defaulting on anything else.
fn parse_ring_cap(raw: Option<&str>) -> usize {
    match raw.and_then(|value| value.trim().parse::<usize>().ok()) {
        None | Some(0) => DEFAULT_RING_CAP,
        Some(cap) => cap.next_power_of_two(),
    }
}

/// Environment variable selecting the VM profiling sample period: when
/// profiling is on, only every `N`th execution of each chunk (per
/// thread) is counted, cutting the per-execution table merge to `1/N`
/// for long measurement runs. Read once per process, on the first
/// sampling decision. Absent, unparsable, or zero values fall back to
/// `1` — profile every execution, the exact pre-sampling behavior with
/// no extra bookkeeping.
pub const PROFILE_SAMPLE_ENV: &str = "PB_PROFILE_SAMPLE";

/// The active sample period: [`PROFILE_SAMPLE_ENV`] if set, else 1.
fn profile_sample() -> u64 {
    static PERIOD: OnceLock<u64> = OnceLock::new();
    *PERIOD.get_or_init(|| parse_profile_sample(std::env::var(PROFILE_SAMPLE_ENV).ok().as_deref()))
}

/// Pure parse half of [`profile_sample`]: a positive integer, or the
/// every-execution default of 1 on anything else.
fn parse_profile_sample(raw: Option<&str>) -> u64 {
    match raw.and_then(|value| value.trim().parse::<u64>().ok()) {
        None | Some(0) => 1,
        Some(n) => n,
    }
}

/// Pure sampling decision: bumps the per-chunk execution counter and
/// reports whether this execution lands on the sample grid (the 1st,
/// `n+1`th, `2n+1`th, ... executions are profiled, so a chunk that
/// runs at all always profiles at least once).
fn sample_due(counter: &mut u64, n: u64) -> bool {
    let due = counter.is_multiple_of(n);
    *counter += 1;
    due
}

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
///
/// `false` whenever [`vm_profiling`] is off. When it is on, the
/// [`PROFILE_SAMPLE_ENV`] period decides: at the default period of 1
/// this is exactly `vm_profiling()` — no counters are touched — and at
/// period `N > 1` each thread counts executions per chunk label and
/// profiles every `N`th, starting with the first. The counter bump is
/// allocation-free once a label has been seen on a thread (the first
/// sighting allocates its table row, absorbed by warmup), preserving
/// the VM's zero-alloc contract under sampled profiling.
pub fn vm_profile_due(label: &str) -> bool {
    if !VMPROF.load(Ordering::Relaxed) {
        return false;
    }
    let n = profile_sample();
    if n <= 1 {
        return true;
    }
    SAMPLE_COUNTERS.with(|counters| {
        let mut counters = counters.borrow_mut();
        match counters.get_mut(label) {
            Some(counter) => sample_due(counter, n),
            None => {
                let mut counter = 0;
                let due = sample_due(&mut counter, n);
                counters.insert(label.to_owned(), counter);
                due
            }
        }
    })
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
    /// Stable lower-snake name used by both exporters.
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

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::PoolBatch | EventKind::PoolJob => "pool",
            EventKind::EvalBatch | EventKind::Trial => "eval",
            _ => "tuner",
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
    /// (capacity from [`ring_cap`], always a power of two).
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
    /// Per-chunk execution counters for sampled profiling
    /// ([`vm_profile_due`]); purely thread-local, never collected.
    static SAMPLE_COUNTERS: RefCell<HashMap<String, u64>> = RefCell::new(HashMap::new());
}

fn register_ring() -> Arc<Ring> {
    let ring = Arc::new(Ring {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        head: AtomicU64::new(0),
        slots: (0..ring_cap())
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// One line of the JSONL export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JsonlEvent {
    /// [`EventKind::name`].
    pub kind: String,
    /// Structural sequence.
    pub seq: u64,
    /// Within-sequence index.
    pub idx: u64,
    /// Recording thread.
    pub thread: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Payload.
    pub a: u64,
    /// Payload.
    pub b: u64,
    /// Payload.
    pub c: u64,
    /// Payload.
    pub d: u64,
}

/// `args` of a Chrome trace event: the logical order and raw payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChromeArgs {
    /// Structural sequence.
    pub seq: u64,
    /// Within-sequence index.
    pub idx: u64,
    /// Payload.
    pub a: u64,
    /// Payload.
    pub b: u64,
    /// Payload.
    pub c: u64,
    /// Payload.
    pub d: u64,
}

/// One Chrome trace-event (`ph:"X"` complete event, µs timestamps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name ([`EventKind::name`]).
    pub name: String,
    /// Category (`tuner`/`eval`/`pool`).
    pub cat: String,
    /// Phase — always `"X"` (complete event with duration).
    pub ph: String,
    /// Process id (always 1; one trace = one process).
    pub pid: u32,
    /// Thread lane = trace-local thread id.
    pub tid: u32,
    /// Start in microseconds since the trace epoch.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Logical order + payload.
    pub args: ChromeArgs,
}

/// Per-phase pool-batch delta summary, precomputed at export time so
/// trace consumers need no event-model knowledge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Non-event payload of the Chrome export (ignored by viewers, read by
/// the `tuner_trace` CLI).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChromeMeta {
    /// Events lost to ring wrap-around.
    pub dropped: u64,
    /// Merged VM chunk profiles.
    pub chunks: Vec<ChunkProfile>,
    /// Per-phase pool-batch deltas.
    pub phases: Vec<PhaseDelta>,
}

/// The whole Chrome trace file (object form, Perfetto-loadable).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// Events sorted by `ts` (monotonic non-decreasing).
    pub traceEvents: Vec<ChromeEvent>,
    /// Display hint for viewers.
    pub displayTimeUnit: String,
    /// Chunk profiles + phase summaries.
    pub otherData: ChromeMeta,
}

impl Trace {
    /// JSONL export in deterministic merge order, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let line = JsonlEvent {
                kind: e.kind.name().to_owned(),
                seq: e.seq,
                idx: e.idx,
                thread: e.thread,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
                a: e.a,
                b: e.b,
                c: e.c,
                d: e.d,
            };
            out.push_str(&serde_json::to_string(&line).expect("event serialization is total"));
            out.push('\n');
        }
        out
    }

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

    /// Chrome trace-event form: events sorted by timestamp, chunk
    /// profiles and phase deltas in `otherData`.
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by(|x, y| {
            (x.start_ns, x.seq, x.idx, x.kind).cmp(&(y.start_ns, y.seq, y.idx, y.kind))
        });
        let trace_events = events
            .iter()
            .map(|e| ChromeEvent {
                name: e.kind.name().to_owned(),
                cat: e.kind.category().to_owned(),
                ph: "X".to_owned(),
                pid: 1,
                tid: e.thread,
                ts: e.start_ns as f64 / 1000.0,
                dur: e.dur_ns as f64 / 1000.0,
                args: ChromeArgs {
                    seq: e.seq,
                    idx: e.idx,
                    a: e.a,
                    b: e.b,
                    c: e.c,
                    d: e.d,
                },
            })
            .collect();
        ChromeTrace {
            traceEvents: trace_events,
            displayTimeUnit: "ms".to_owned(),
            otherData: ChromeMeta {
                dropped: self.dropped,
                chunks: self.chunks.clone(),
                phases: self.phase_deltas(),
            },
        }
    }

    /// [`Trace::to_chrome`] serialized to a JSON string.
    pub fn chrome_json(&self) -> String {
        serde_json::to_string(&self.to_chrome()).expect("trace serialization is total")
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
    fn ring_cap_parses_rounds_and_defaults() {
        assert_eq!(parse_ring_cap(None), DEFAULT_RING_CAP);
        assert_eq!(parse_ring_cap(Some("")), DEFAULT_RING_CAP);
        assert_eq!(parse_ring_cap(Some("not a number")), DEFAULT_RING_CAP);
        assert_eq!(parse_ring_cap(Some("0")), DEFAULT_RING_CAP);
        assert_eq!(parse_ring_cap(Some("1")), 1);
        assert_eq!(parse_ring_cap(Some("4096")), 4096);
        assert_eq!(parse_ring_cap(Some(" 4096 ")), 4096, "whitespace tolerated");
        assert_eq!(
            parse_ring_cap(Some("5000")),
            8192,
            "rounds up to a power of two"
        );
    }

    #[test]
    fn profile_sample_parses_and_defaults() {
        assert_eq!(parse_profile_sample(None), 1);
        assert_eq!(parse_profile_sample(Some("")), 1);
        assert_eq!(parse_profile_sample(Some("not a number")), 1);
        assert_eq!(parse_profile_sample(Some("0")), 1);
        assert_eq!(parse_profile_sample(Some("1")), 1);
        assert_eq!(
            parse_profile_sample(Some(" 16 ")),
            16,
            "whitespace tolerated"
        );
        assert_eq!(parse_profile_sample(Some("1000")), 1000);
    }

    #[test]
    fn sample_due_hits_every_nth_starting_with_the_first() {
        let mut counter = 0;
        let hits: Vec<bool> = (0..7).map(|_| sample_due(&mut counter, 3)).collect();
        assert_eq!(hits, [true, false, false, true, false, false, true]);
        assert_eq!(counter, 7);

        // Period 1 profiles everything.
        let mut counter = 0;
        assert!((0..4).all(|_| sample_due(&mut counter, 1)));
    }

    #[test]
    fn vm_profile_due_mirrors_the_profiling_switch_at_default_period() {
        // PB_PROFILE_SAMPLE is unset in the test process, so the
        // period is 1 and the decision is exactly the global switch.
        set_vm_profiling(false);
        assert!(!vm_profile_due("t::r0"));
        set_vm_profiling(true);
        assert!(vm_profile_due("t::r0"));
        assert!(vm_profile_due("t::r0"), "period 1 samples every execution");
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
    fn chrome_export_is_timestamp_sorted_and_round_trips() {
        let trace = Trace {
            events: vec![
                ev(EventKind::PhaseMutate, 2, 0, 500, 100),
                ev(EventKind::TuningRun, 1, 0, 0, 1000),
                ev(EventKind::PhasePrune, 3, 0, 700, 100),
            ],
            chunks: vec![ChunkProfile {
                label: "t::r0".into(),
                executions: 7,
                opcodes: vec![3, 0, 4],
            }],
            dropped: 0,
        };
        let json = trace.chrome_json();
        let parsed: ChromeTrace = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(parsed.traceEvents.len(), 3);
        for pair in parsed.traceEvents.windows(2) {
            assert!(pair[0].ts <= pair[1].ts, "timestamps must be monotonic");
        }
        assert_eq!(parsed.otherData.chunks.len(), 1);
        assert_eq!(parsed.otherData.chunks[0].executions, 7);
        // Both phase kinds present with their pool-delta args summed.
        let phases = &parsed.otherData.phases;
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, "phase_mutate");
        assert_eq!(phases[0].dispatched, 1);
        assert_eq!(phases[0].tasks, 3);
        assert_eq!(phases[1].phase, "phase_prune");
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let trace = Trace {
            events: vec![
                ev(EventKind::Trial, 1, 0, 0, 10),
                ev(EventKind::Trial, 1, 1, 5, 10),
            ],
            chunks: Vec::new(),
            dropped: 0,
        };
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: JsonlEvent = serde_json::from_str(lines[0]).expect("parses");
        assert_eq!(first.kind, "trial");
        assert_eq!(first.dur_ns, 10);
    }
}
