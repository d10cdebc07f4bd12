//! The out-of-order core: an RUU-style (SimpleScalar) unified-window
//! machine with fetch, dispatch, issue, execute, writeback, and commit.
//!
//! The window is the reorder buffer itself: issue selects ready,
//! oldest-first instructions directly from the ROB, which matches the
//! register-update-unit organization of the paper's base simulator.
//! External controllers throttle the machine per cycle through
//! [`PipelineControls`].
//!
//! The window is a power-of-two ring of slots: the entry with sequence
//! number `seq` lives in slot `seq & mask`, so no lookup subtracts the
//! window's front. The event-driven scheduler keeps its state as slot
//! bitmasks — the ready set, and one completion set per cycle of a ring
//! indexed by `done_at` — walked oldest-first from the window head, so
//! neither issue nor writeback sorts anything.

use std::collections::VecDeque;

use crate::branch::{BranchModel, BranchPredictor};
use crate::cache::{CacheHierarchy, ServiceLevel};
use crate::config::CpuConfig;
use crate::control::PipelineControls;
use crate::isa::{InstructionStream, OpClass, SynthInst};
use crate::memsys::MissTracker;
use crate::stats::{CycleEvents, RunStats};

/// Execution state of one in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// In the window, waiting for operands or an issue slot.
    Waiting,
    /// Issued; completes at the contained cycle.
    Executing { done_at: u64 },
    /// Execution finished; awaiting in-order commit.
    Completed,
}

/// Sentinel terminating a wakeup subscriber chain.
const NO_SUB: u32 = u32::MAX;

/// Upper bound on the completion ring's length; latencies that do not fit
/// wait on the overflow list instead.
const MAX_DONE_RING: u64 = 1024;

/// One window entry. Its sequence number is implied by its slot and the
/// window head, which keeps an entry at 64 bytes.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    inst: SynthInst,
    state: InstState,
    /// Head of the chain of wakeup nodes blocked on this entry, each node
    /// `consumer_slot << 1 | source` ([`NO_SUB`] when none). Event
    /// scheduling only; unused under [`ScanMode::FullScan`].
    subs: u32,
    /// Per source operand, the next node of the chain that source is
    /// linked into.
    next_sub: [u32; 2],
    /// Source operands still blocked on an in-window producer.
    pending: u8,
}

impl RobEntry {
    fn new(inst: SynthInst) -> Self {
        Self {
            inst,
            state: InstState::Waiting,
            subs: NO_SUB,
            next_sub: [NO_SUB; 2],
            pending: 0,
        }
    }
}

/// How the core finds work each cycle.
///
/// Both modes issue and complete exactly the same instructions on exactly
/// the same cycles — `FullScan` exists as the executable specification the
/// event-driven scheduler is property-tested against, and as the pre-kernel
/// baseline for the criterion benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Event-driven scheduling: a waiting instruction subscribes to each
    /// unready producer and goes ready when the last one completes, issue
    /// walks a ready bitmask, and writeback takes the cycle's completion
    /// set from a ring indexed by completion cycle — no whole-window scans
    /// on the hot path.
    #[default]
    Event,
    /// The classic RUU scans: issue and writeback walk the entire window
    /// every cycle.
    FullScan,
}

/// Window slots per word of a slot bitmask.
const SLOT_WORD: usize = 128;

fn set_bit(words: &mut [u128], slot: usize) {
    words[slot / SLOT_WORD] |= 1 << (slot % SLOT_WORD);
}

/// Calls `f` with every set bit of `words` in ring order starting at bit
/// `start` — oldest first when `start` is the window head's slot — until
/// `f` returns `false`.
fn walk_ring(words: &[u128], start: usize, mut f: impl FnMut(usize) -> bool) {
    if let [word] = words {
        // One word holds the whole ring: rotate the head's bit to bit 0.
        let mut word = word.rotate_right(start as u32);
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            if !f((start + b) % SLOT_WORD) {
                return;
            }
        }
        return;
    }
    let n = words.len();
    let (first, bit) = (start / SLOT_WORD, start % SLOT_WORD);
    for i in 0..=n {
        let w = if first + i >= n {
            first + i - n
        } else {
            first + i
        };
        let mut word = words[w];
        if i == 0 {
            word &= u128::MAX << bit;
        } else if i == n {
            word &= !(u128::MAX << bit);
        }
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            if !f(w * SLOT_WORD + b) {
                return;
            }
        }
    }
}

/// Wakes every consumer subscribed to the just-completed entry in slot
/// `producer`: a consumer whose last blocked source this was goes ready.
/// The chain links are left as they are: a completed producer is never
/// linked to or woken again, and linking overwrites a consumer's link.
fn wake(slots: &mut [RobEntry], ready: &mut [u128], producer: usize) {
    let mut node = slots[producer].subs;
    while node != NO_SUB {
        let (consumer, source) = ((node >> 1) as usize, (node & 1) as usize);
        let e = &mut slots[consumer];
        node = e.next_sub[source];
        debug_assert_eq!(e.state, InstState::Waiting);
        e.pending -= 1;
        ready[consumer / SLOT_WORD] |= u128::from(e.pending == 0) << (consumer % SLOT_WORD);
    }
}

/// The out-of-order processor core.
///
/// # Examples
///
/// ```
/// use cpusim::{Cpu, CpuConfig, PipelineControls};
/// use cpusim::isa::{LoopStream, SynthInst};
///
/// let mut cpu = Cpu::new(
///     CpuConfig::isca04_table1(),
///     LoopStream::new(vec![SynthInst::int_alu(); 4]),
/// );
/// for _ in 0..100 {
///     cpu.tick(PipelineControls::free());
/// }
/// assert!(cpu.stats().committed > 0);
/// ```
#[derive(Debug)]
pub struct Cpu<S> {
    config: CpuConfig,
    stream: S,
    caches: CacheHierarchy,
    /// The unified window: a power-of-two ring holding the entry with
    /// sequence number `seq` in slot `seq & (slots.len() − 1)`.
    slots: Vec<RobEntry>,
    /// Sequence number of the oldest window entry (`next_seq` when empty).
    head: u64,
    /// Fetched but not yet dispatched instructions, in program order: a
    /// power-of-two ring read at `fetch_head` and written at `fetch_tail`
    /// (both count instructions), so dispatch copies straight from it into
    /// the window.
    fetch_ring: Vec<SynthInst>,
    fetch_head: u64,
    fetch_tail: u64,
    /// Squashed instructions awaiting re-fetch after a redirect, in order.
    replay: VecDeque<SynthInst>,
    /// Cycles remaining until fetch resumes after a mispredict redirect.
    redirect_stall: u32,
    /// Cycles remaining until the next I-cache line is available (I-miss).
    ifetch_stall: u32,
    /// Cycle the unpipelined integer divider frees up.
    int_div_busy_until: u64,
    /// Cycle the unpipelined FP divider frees up.
    fp_div_busy_until: u64,
    /// In-flight load/store count (LSQ occupancy).
    lsq_occupancy: u32,
    /// Optional MSHR/bandwidth limiter.
    miss_tracker: Option<MissTracker>,
    /// Optional real branch predictor (predictor-driven branch model).
    predictor: Option<BranchPredictor>,
    next_seq: u64,
    cycle: u64,
    stats: RunStats,
    /// Scheduling strategy (see [`ScanMode`]).
    scan: ScanMode,
    /// Execution latency of every class but loads, by [`OpClass::index`].
    fixed_latency: [u64; 9],
    /// Event scheduling: slot bitmask of the waiting entries whose sources
    /// are all complete.
    ready: Vec<u128>,
    /// Event scheduling: `done_mask + 1` slot bitmasks; the one at
    /// `done_at & done_mask` holds the entries completing at `done_at`.
    done_ring: Vec<u128>,
    done_mask: u64,
    /// Event scheduling: `(done_at, slot)` of executing entries whose
    /// latency does not fit the ring (zero, or stretched past it by the
    /// [`MissTracker`]).
    done_overflow: Vec<(u64, u32)>,
    /// Reusable slot bitmask of the entries completing this cycle.
    completing: Vec<u128>,
    /// Reusable issue-selection buffer (slots picked this cycle).
    issue_scratch: Vec<usize>,
}

impl<S: InstructionStream> Cpu<S> {
    /// Creates a core reading instructions from `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CpuConfig::validate`]).
    pub fn new(config: CpuConfig, stream: S) -> Self {
        Self::with_scan_mode(config, stream, ScanMode::default())
    }

    /// Creates a core with an explicit scheduling strategy (see
    /// [`ScanMode`]); [`Cpu::new`] uses the event-driven default.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CpuConfig::validate`]).
    pub fn with_scan_mode(config: CpuConfig, stream: S, scan: ScanMode) -> Self {
        config.validate();
        Self::build(config, stream, scan, CacheHierarchy::new(&config))
    }

    /// Creates an event-scheduled core whose caches start as `caches` —
    /// typically a clone of a warmed image — instead of empty.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent or `caches` was built for a
    /// different cache geometry.
    pub fn with_caches(config: CpuConfig, stream: S, caches: CacheHierarchy) -> Self {
        config.validate();
        assert!(
            caches.built_for(&config),
            "cache hierarchy geometry must match the core's configuration"
        );
        Self::build(config, stream, ScanMode::Event, caches)
    }

    fn build(config: CpuConfig, stream: S, scan: ScanMode, caches: CacheHierarchy) -> Self {
        let miss_tracker = config.memory_system.map(MissTracker::new);
        let predictor = match config.branch_model {
            BranchModel::Profile => None,
            BranchModel::Predictor { kind, entries } => Some(BranchPredictor::new(kind, entries)),
        };
        // At least one whole bitmask word, so a window of up to 128 entries
        // walks its slot sets in a single rotated word.
        let capacity = (config.rob_entries as usize)
            .next_power_of_two()
            .max(SLOT_WORD);
        let words = capacity / SLOT_WORD;
        // The ring must outlast every fixed latency: the longest functional
        // unit and a load that misses all the way to memory.
        let lat = &config.latency;
        let longest = [
            lat.int_alu,
            lat.int_mul,
            lat.int_div,
            lat.fp_alu,
            lat.fp_mul,
            lat.fp_div,
        ]
        .into_iter()
        .map(u64::from)
        .chain([u64::from(config.l1d.latency)
            + u64::from(config.l2.latency)
            + u64::from(config.memory_latency)])
        .max()
        .unwrap_or(0);
        let ring = (longest + 1).next_power_of_two().min(MAX_DONE_RING);
        let fixed_latency = OpClass::ALL.map(|op| match op {
            OpClass::IntAlu | OpClass::Branch => lat.int_alu as u64,
            OpClass::IntMul => lat.int_mul as u64,
            OpClass::IntDiv => lat.int_div as u64,
            OpClass::FpAlu => lat.fp_alu as u64,
            OpClass::FpMul => lat.fp_mul as u64,
            OpClass::FpDiv => lat.fp_div as u64,
            // Store issue is address generation; the write happens at
            // commit. One cycle to compute the address.
            OpClass::Store => 1,
            // Loads take their cache access's latency.
            OpClass::Load => 0,
        });
        Self {
            miss_tracker,
            predictor,
            caches,
            slots: vec![RobEntry::new(SynthInst::int_alu()); capacity],
            head: 0,
            fetch_ring: vec![
                SynthInst::int_alu();
                (config.fetch_buffer as usize).next_power_of_two()
            ],
            fetch_head: 0,
            fetch_tail: 0,
            replay: VecDeque::new(),
            redirect_stall: 0,
            ifetch_stall: 0,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            lsq_occupancy: 0,
            next_seq: 0,
            cycle: 0,
            stats: RunStats::default(),
            scan,
            fixed_latency,
            ready: vec![0; words],
            done_ring: vec![0; ring as usize * words],
            done_mask: ring - 1,
            done_overflow: Vec::new(),
            completing: vec![0; words],
            issue_scratch: Vec::with_capacity(config.issue_width as usize),
            config,
            stream,
        }
    }

    /// The scheduling strategy this core was built with.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The cache hierarchy (for miss-rate statistics).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Mutable access to the cache hierarchy, for pre-warming working sets
    /// before measurement (the simulation-time stand-in for the paper's
    /// 2-billion-instruction fast-forward past initialization code).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The branch predictor's own statistics (predictions, misprediction
    /// rate), when the predictor-driven branch model is active. Counts
    /// every *resolution* (squash-replayed branches resolve more than
    /// once, as speculative hardware does).
    pub fn predictor_stats(&self) -> Option<(u64, f64)> {
        self.predictor
            .as_ref()
            .map(|bp| (bp.predictions(), bp.misprediction_rate()))
    }

    /// Entries in the window.
    fn window_len(&self) -> u64 {
        self.next_seq - self.head
    }

    /// The ring slot of sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        seq as usize & (self.slots.len() - 1)
    }

    /// Instructions in the fetch buffer.
    fn fetch_len(&self) -> usize {
        (self.fetch_tail - self.fetch_head) as usize
    }

    /// The fetch ring slot of the instruction fetched `n`-th.
    fn fetch_slot(&self, n: u64) -> usize {
        n as usize & (self.fetch_ring.len() - 1)
    }

    /// Looks up a window entry by sequence number.
    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        if seq < self.head || seq >= self.next_seq {
            return None;
        }
        Some(&self.slots[self.slot(seq)])
    }

    /// `true` when the producer `dist` instructions before `seq` has
    /// completed (or already committed). `dist == 0` means no dependence.
    fn source_ready(&self, seq: u64, dist: u32) -> bool {
        if dist == 0 {
            return true;
        }
        let producer = match seq.checked_sub(dist as u64) {
            Some(p) => p,
            None => return true, // before the beginning of time
        };
        match self.entry(producer) {
            None => true, // committed long ago
            Some(e) => matches!(e.state, InstState::Completed),
        }
    }

    fn execution_latency(&mut self, inst: &SynthInst, events: &mut CycleEvents) -> u64 {
        match inst.op {
            OpClass::Load => {
                let r = self.caches.access_data(inst.addr);
                events.l1d_accesses += 1;
                match r.level {
                    ServiceLevel::L1 => {}
                    ServiceLevel::L2 => {
                        events.l2_accesses += 1;
                        self.stats.l1d_misses += 1;
                    }
                    ServiceLevel::Memory => {
                        events.l2_accesses += 1;
                        events.mem_accesses += 1;
                        self.stats.l1d_misses += 1;
                        self.stats.l2_misses += 1;
                    }
                }
                if r.level != ServiceLevel::L1 {
                    if let Some(tracker) = &mut self.miss_tracker {
                        return tracker.admit_miss(
                            self.cycle,
                            r.latency,
                            r.level == ServiceLevel::Memory,
                        ) as u64;
                    }
                }
                r.latency as u64
            }
            op => self.fixed_latency[op.index()],
        }
    }

    /// Squashes every window entry younger than `seq` and queues the
    /// squashed instructions (plus the whole fetch buffer) for replay in
    /// program order.
    fn squash_younger_than(&mut self, seq: u64) {
        // The next sequence numbers will be re-assigned at re-dispatch;
        // pull the replayed instructions before new stream instructions,
        // in program order: pushing to the front youngest first, the fetch
        // buffer (younger than anything in the ROB), then the ROB entries
        // younger than the branch.
        for f in (self.fetch_head..self.fetch_tail).rev() {
            self.replay.push_front(self.fetch_ring[self.fetch_slot(f)]);
        }
        self.fetch_head = self.fetch_tail;
        for s in (seq + 1..self.next_seq).rev() {
            let inst = self.slots[self.slot(s)].inst;
            if inst.op.is_mem() {
                self.lsq_occupancy -= 1;
            }
            self.replay.push_front(inst);
        }
        // Reuse the squashed sequence numbers for the replayed instructions:
        // the window must stay contiguous in `seq` for O(1) lookup, and
        // dependence distances are relative so re-dispatch at the same seq
        // resolves identically.
        self.next_seq = seq + 1;
        self.redirect_stall = self.config.mispredict_penalty;
        self.ifetch_stall = 0;
        // Squashed slots are about to be reused, so every subscriber chain,
        // ready bit, and completion bit is suspect: rebuild the
        // event-scheduling state from the surviving window. Squashes are
        // per-mispredict, so this O(window) pass is off the hot path.
        if self.scan == ScanMode::Event {
            self.rebuild_event_state();
        }
    }

    /// Re-derives the ready set, completion ring, and subscriber chains
    /// from the window's instruction states alone.
    fn rebuild_event_state(&mut self) {
        self.ready.fill(0);
        self.done_ring.fill(0);
        self.done_overflow.clear();
        for seq in self.head..self.next_seq {
            let slot = self.slot(seq);
            let e = &mut self.slots[slot];
            e.subs = NO_SUB;
            e.next_sub = [NO_SUB; 2];
            e.pending = 0;
        }
        for seq in self.head..self.next_seq {
            let slot = self.slot(seq);
            match self.slots[slot].state {
                InstState::Waiting => {
                    let inst = self.slots[slot].inst;
                    self.link_sources(seq, [inst.src1_dist, inst.src2_dist]);
                }
                InstState::Executing { done_at } => self.schedule_done(done_at, slot),
                InstState::Completed => {}
            }
        }
    }

    /// Files the executing entry in `slot` to complete at `done_at`: in the
    /// completion ring when that cycle is within its reach, otherwise on
    /// the overflow list. Called after this cycle's writeback, so ring
    /// reach is `1..=done_mask` cycles ahead.
    #[inline]
    fn schedule_done(&mut self, done_at: u64, slot: usize) {
        let wait = done_at.wrapping_sub(self.cycle);
        if (1..=self.done_mask).contains(&wait) {
            let words = self.ready.len();
            let base = (done_at & self.done_mask) as usize * words;
            set_bit(&mut self.done_ring[base..base + words], slot);
        } else {
            self.done_overflow.push((done_at, slot as u32));
        }
    }

    /// Files the waiting entry `seq` for issue: into the ready set when
    /// both sources are ready, otherwise into the subscriber chain of each
    /// blocking producer, counting them; the last producer to complete
    /// sets its ready bit.
    ///
    /// The distances come from the caller, which already holds the
    /// instruction, rather than being read back from the just-written
    /// entry.
    #[inline]
    fn link_sources(&mut self, seq: u64, dists: [u32; 2]) {
        let slot = self.slot(seq);
        let len = self.window_len();
        let mut pending = 0;
        for (source, dist) in dists.into_iter().enumerate() {
            // A source blocks while its producer is in the window and not
            // complete. No dependence (distance 0) never blocks, and a
            // producer before the window head has committed: its distance
            // from the head wraps past the window length.
            let producer = seq.wrapping_sub(dist as u64);
            let p = self.slot(producer);
            if dist != 0
                && producer.wrapping_sub(self.head) < len
                && self.slots[p].state != InstState::Completed
            {
                self.slots[slot].next_sub[source] = self.slots[p].subs;
                self.slots[p].subs = ((slot as u32) << 1) | source as u32;
                pending += 1;
            }
        }
        self.slots[slot].pending = pending;
        if pending == 0 {
            set_bit(&mut self.ready, slot);
        }
    }

    fn next_instruction(&mut self) -> SynthInst {
        self.replay
            .pop_front()
            .unwrap_or_else(|| self.stream.next_inst())
    }

    fn push_fetched(&mut self, inst: SynthInst) {
        let f = self.fetch_slot(self.fetch_tail);
        self.fetch_ring[f] = inst;
        self.fetch_tail += 1;
    }

    fn fetch(&mut self, controls: &PipelineControls, events: &mut CycleEvents) {
        if controls.stall_fetch {
            return;
        }
        if self.redirect_stall > 0 {
            self.redirect_stall -= 1;
            return;
        }
        if self.ifetch_stall > 0 {
            self.ifetch_stall -= 1;
            return;
        }
        let room = self.config.fetch_buffer as usize - self.fetch_len();
        let n = room.min(self.config.fetch_width as usize);
        if n == 0 {
            return;
        }
        // One I-cache access per fetch group (the group shares a line in
        // this synthetic model; the stream's pc stride decides miss rates),
        // made by the group's first instruction.
        let first = self.next_instruction();
        events.l1i_accesses += 1;
        let r = self.caches.access_inst(first.pc);
        if r.level != ServiceLevel::L1 {
            if r.level == ServiceLevel::Memory {
                events.mem_accesses += 1;
            }
            events.l2_accesses += 1;
            // Stall fetch until the line returns; this instruction still
            // enters the buffer with the line.
            self.ifetch_stall = r.latency - self.config.l1i.latency;
        }
        self.push_fetched(first);
        let mut fetched = 1;
        // The rest of the group waits for an I-miss.
        if self.ifetch_stall == 0 {
            for _ in 1..n {
                let inst = self.next_instruction();
                self.push_fetched(inst);
            }
            fetched = n as u32;
        }
        events.fetched = fetched;
    }

    fn dispatch(&mut self, events: &mut CycleEvents) {
        let mut dispatched = 0;
        while dispatched < self.config.dispatch_width
            && self.window_len() < self.config.rob_entries as u64
        {
            if self.fetch_head == self.fetch_tail {
                break;
            }
            let inst = &self.fetch_ring[self.fetch_slot(self.fetch_head)];
            let is_mem = inst.op.is_mem();
            if is_mem && self.lsq_occupancy >= self.config.lsq_entries {
                break;
            }
            let dists = [inst.src1_dist, inst.src2_dist];
            let seq = self.next_seq;
            let slot = self.slot(seq);
            self.slots[slot] = RobEntry::new(*inst);
            self.fetch_head += 1;
            self.lsq_occupancy += is_mem as u32;
            self.next_seq += 1;
            dispatched += 1;
            if self.scan == ScanMode::Event {
                self.link_sources(seq, dists);
            }
        }
        events.dispatched = dispatched;
    }

    fn issue(&mut self, controls: &PipelineControls, events: &mut CycleEvents) {
        if controls.stall_issue {
            self.stats.stalled_cycles += 1;
            return;
        }
        // Nothing ready: no candidate could be picked, so skip building the
        // picker (the common cycle of a full window waiting on memory).
        if self.scan == ScanMode::Event && self.ready.iter().all(|&w| w == 0) {
            return;
        }
        let width = controls
            .issue_width_limit
            .map_or(self.config.issue_width, |w| w.min(self.config.issue_width));
        let ports = controls
            .mem_ports_limit
            .map_or(self.config.mem_ports, |p| p.min(self.config.mem_ports));
        let fu = self.config.fu;
        let mut picker = IssuePicker {
            used: [0; 5],
            limit: [fu.int_alu, fu.int_mul_div, fu.fp_alu, fu.fp_mul_div, ports],
            issued: 0,
            issued_current: 0.0,
            width,
            cap: controls.issue_current_cap,
            int_div_free: self.int_div_busy_until <= self.cycle,
            fp_div_free: self.fp_div_busy_until <= self.cycle,
        };
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        match self.scan {
            ScanMode::Event => self.select_from_ready(&mut picker, &mut to_issue),
            ScanMode::FullScan => self.select_by_scan(&mut picker, &mut to_issue),
        }

        for &slot in &to_issue {
            let inst = self.slots[slot].inst;
            let latency = self.execution_latency(&inst, events);
            match inst.op {
                OpClass::IntDiv => self.int_div_busy_until = self.cycle + latency,
                OpClass::FpDiv => self.fp_div_busy_until = self.cycle + latency,
                _ => {}
            }
            let done_at = self.cycle + latency;
            self.slots[slot].state = InstState::Executing { done_at };
            events.issued[inst.op.index()] += 1;
            if self.scan == ScanMode::Event {
                self.schedule_done(done_at, slot);
            }
        }
        self.issue_scratch = to_issue;
    }

    /// The classic selection: walk the whole window oldest-first, checking
    /// readiness as we go.
    fn select_by_scan(&mut self, picker: &mut IssuePicker, to_issue: &mut Vec<usize>) {
        for seq in self.head..self.next_seq {
            let slot = self.slot(seq);
            let e = &self.slots[slot];
            if e.state != InstState::Waiting {
                continue;
            }
            if !(self.source_ready(seq, e.inst.src1_dist)
                && self.source_ready(seq, e.inst.src2_dist))
            {
                continue;
            }
            match picker.consider(e.inst.op) {
                Verdict::Take => to_issue.push(slot),
                Verdict::Skip => {}
                Verdict::Stop => break,
            }
        }
    }

    /// Event-driven selection: the ready set holds exactly the waiting
    /// entries whose sources are all complete, so walking it from the
    /// window head reproduces the full scan's oldest-first candidate order.
    fn select_from_ready(&mut self, picker: &mut IssuePicker, to_issue: &mut Vec<usize>) {
        let slots = &self.slots;
        walk_ring(&self.ready, self.slot(self.head), |slot| {
            debug_assert_eq!(slots[slot].state, InstState::Waiting);
            match picker.consider(slots[slot].inst.op) {
                Verdict::Take => to_issue.push(slot),
                Verdict::Skip => {}
                Verdict::Stop => return false,
            }
            true
        });
        for &slot in to_issue.iter() {
            self.ready[slot / SLOT_WORD] &= !(1 << (slot % SLOT_WORD));
        }
    }

    fn writeback(&mut self, events: &mut CycleEvents) {
        let mispredicted_branch = match self.scan {
            ScanMode::Event => self.complete_from_ring(events),
            ScanMode::FullScan => self.complete_by_scan(events),
        };
        if let Some(seq) = mispredicted_branch {
            // The branch resolves: everything younger is wrong-path.
            events.mispredict_redirect = true;
            self.stats.mispredicts += 1;
            // Clear the flag so the replayed world does not re-squash on
            // this same branch (it stays in the window, already resolved).
            let slot = self.slot(seq);
            self.slots[slot].inst.mispredict = false;
            self.squash_younger_than(seq);
        }
    }

    /// The classic completion pass: walk the whole window in order, finish
    /// anything whose latency has elapsed. Returns the oldest branch that
    /// resolved mispredicted this cycle.
    fn complete_by_scan(&mut self, events: &mut CycleEvents) -> Option<u64> {
        let cycle = self.cycle;
        let mut mispredicted_branch: Option<u64> = None;
        for seq in self.head..self.next_seq {
            let slot = self.slot(seq);
            let e = &mut self.slots[slot];
            if let InstState::Executing { done_at } = e.state {
                if done_at <= cycle {
                    e.state = InstState::Completed;
                    events.completed += 1;
                    if e.inst.op == OpClass::Branch {
                        // Resolve: either the stream's profile-driven flag,
                        // or a real predictor against the ground-truth
                        // direction. (Out-of-order resolution scrambles
                        // predictor history slightly, as speculative-update
                        // hardware does.)
                        let mispredicted = match &mut self.predictor {
                            None => e.inst.mispredict,
                            Some(bp) => {
                                let predicted = bp.predict(e.inst.pc);
                                bp.update(e.inst.pc, e.inst.taken, predicted)
                            }
                        };
                        if mispredicted && mispredicted_branch.is_none() {
                            mispredicted_branch = Some(seq);
                        }
                    }
                }
            }
        }
        mispredicted_branch
    }

    /// Event-driven completion: take this cycle's completion set from the
    /// ring (plus any due overflow entries) instead of scanning the window.
    /// The set is walked from the window head, so predictor updates and the
    /// choice of the redirecting branch happen in window order, exactly as
    /// [`Cpu::complete_by_scan`] does.
    fn complete_from_ring(&mut self, events: &mut CycleEvents) -> Option<u64> {
        let cycle = self.cycle;
        let words = self.ready.len();
        let base = (cycle & self.done_mask) as usize * words;
        let bucket = &mut self.done_ring[base..base + words];
        if self.done_overflow.is_empty() && bucket.iter().all(|&w| w == 0) {
            return None; // nothing completes this cycle
        }
        let mut done = std::mem::take(&mut self.completing);
        done.copy_from_slice(bucket);
        bucket.fill(0);
        if !self.done_overflow.is_empty() {
            self.done_overflow.retain(|&(done_at, slot)| {
                let due = done_at <= cycle;
                if due {
                    set_bit(&mut done, slot as usize);
                }
                !due
            });
        }
        let mut mispredicted_branch: Option<u64> = None;
        if done.iter().any(|&w| w != 0) {
            let (head, mask) = (self.head, self.slots.len() as u64 - 1);
            let (slots, ready, predictor) = (&mut self.slots, &mut self.ready, &mut self.predictor);
            walk_ring(&done, head as usize & mask as usize, |slot| {
                let e = &mut slots[slot];
                debug_assert!(
                    matches!(e.state, InstState::Executing { done_at } if done_at <= cycle)
                );
                e.state = InstState::Completed;
                events.completed += 1;
                if e.inst.op == OpClass::Branch {
                    let mispredicted = match predictor {
                        None => e.inst.mispredict,
                        Some(bp) => {
                            let predicted = bp.predict(e.inst.pc);
                            bp.update(e.inst.pc, e.inst.taken, predicted)
                        }
                    };
                    if mispredicted && mispredicted_branch.is_none() {
                        mispredicted_branch =
                            Some(head + ((slot as u64).wrapping_sub(head) & mask));
                    }
                }
                wake(slots, ready, slot);
                true
            });
        }
        self.completing = done;
        mispredicted_branch
    }

    fn commit(&mut self, events: &mut CycleEvents) {
        let mut committed = 0;
        while committed < self.config.commit_width && self.head < self.next_seq {
            let e = &self.slots[self.slot(self.head)];
            if e.state != InstState::Completed {
                break;
            }
            let inst = e.inst;
            self.head += 1;
            if inst.op.is_mem() {
                self.lsq_occupancy -= 1;
                if inst.op == OpClass::Store {
                    // The store writes the data cache at commit.
                    let r = self.caches.access_data(inst.addr);
                    events.l1d_accesses += 1;
                    if r.level != ServiceLevel::L1 {
                        events.l2_accesses += 1;
                        self.stats.l1d_misses += 1;
                        if r.level == ServiceLevel::Memory {
                            events.mem_accesses += 1;
                            self.stats.l2_misses += 1;
                        }
                    }
                }
            }
            self.stats.committed_by_class[inst.op.index()] += 1;
            committed += 1;
        }
        events.committed = committed;
    }

    /// Advances the core by one cycle under the given controls and returns
    /// the cycle's events.
    pub fn tick(&mut self, controls: PipelineControls) -> CycleEvents {
        let mut events = CycleEvents::default();
        // Back-to-front so a stage does not see same-cycle work from the
        // stage before it.
        self.commit(&mut events);
        self.writeback(&mut events);
        self.issue(&controls, &mut events);
        self.dispatch(&mut events);
        self.fetch(&controls, &mut events);
        self.cycle += 1;
        let events = CycleEvents {
            rob_occupancy: self.window_len() as u32,
            phantom: controls.phantom,
            ..events
        };
        self.stats.absorb(&events);
        events
    }

    /// Runs until `n` total instructions have committed, with free controls.
    /// Returns the cycles elapsed during this call.
    pub fn run_until_committed(&mut self, n: u64) -> u64 {
        let start_cycles = self.cycle;
        let target = self.stats.committed + n;
        while self.stats.committed < target {
            self.tick(PipelineControls::free());
        }
        self.cycle - start_cycles
    }
}

/// What the issue-admission logic decided for one ready candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Issue it this cycle.
    Take,
    /// Structural hazard: skip it, keep scanning younger candidates.
    Skip,
    /// Width or damping-cap limit: stop selecting for this cycle.
    Stop,
}

/// The functional-unit pool each class issues to, by [`OpClass::index`]:
/// 0 integer ALUs (also branches), 1 integer multiply/divide, 2 FP ALUs,
/// 3 FP multiply/divide, 4 memory ports.
const POOL: [usize; 9] = [0, 1, 1, 2, 3, 3, 4, 4, 0];

/// The per-cycle issue-admission state — width, functional-unit pools,
/// memory ports, divider occupancy, and pipeline damping's issue-current
/// cap. Both scan modes feed their candidates (oldest first) through the
/// same `consider`, so their admission decisions are identical by
/// construction.
struct IssuePicker {
    /// Units of each [`POOL`] taken this cycle, and how many there are.
    used: [u32; 5],
    limit: [u32; 5],
    issued: u32,
    issued_current: f64,
    width: u32,
    cap: Option<f64>,
    int_div_free: bool,
    fp_div_free: bool,
}

impl IssuePicker {
    fn consider(&mut self, op: OpClass) -> Verdict {
        if self.issued >= self.width {
            return Verdict::Stop;
        }
        // Structural hazards.
        let pool = POOL[op.index()];
        let available = self.used[pool] < self.limit[pool]
            && match op {
                OpClass::IntDiv => self.int_div_free,
                OpClass::FpDiv => self.fp_div_free,
                _ => true,
            };
        if !available {
            return Verdict::Skip;
        }
        // Pipeline damping's per-cycle issue-current cap, using the
        // a-priori per-class estimates. At least one instruction always
        // issues: current granularity is per-instruction, so a single
        // op above the cap cannot be subdivided (and must not livelock
        // the machine).
        if let Some(cap) = self.cap {
            let est = apriori_issue_current(op);
            if self.issued_current + est > cap && self.issued > 0 {
                return Verdict::Stop; // damping bounds this cycle's current
            }
            self.issued_current += est;
        }
        self.used[pool] += 1;
        self.issued += 1;
        Verdict::Take
    }
}

/// The a-priori per-instruction current estimates of pipeline damping \[14\],
/// in amps per issued instruction. The paper expresses estimates in
/// abstract units and scales each unit to the processor configuration; here
/// the unit is calibrated so that full-width mixed issue estimates the
/// machine's full dynamic current range (≈70 A above idle at 8-wide issue),
/// making δ directly comparable to the resonant current variation
/// threshold.
pub fn apriori_issue_current(op: OpClass) -> f64 {
    const UNIT: f64 = 3.0;
    match op {
        OpClass::IntAlu | OpClass::Branch => 2.0 * UNIT,
        OpClass::IntMul | OpClass::IntDiv => 4.0 * UNIT,
        OpClass::FpAlu => 3.0 * UNIT,
        OpClass::FpMul | OpClass::FpDiv => 5.0 * UNIT,
        OpClass::Load | OpClass::Store => 4.0 * UNIT,
    }
}

impl<S: InstructionStream> Cpu<S> {
    /// One-line internal state summary for debugging and tests.
    pub fn debug_state(&self) -> String {
        format!(
            "rob={} fb={} replay={} lsq={} redirect={} ifetch={} committed={}",
            self.window_len(),
            self.fetch_len(),
            self.replay.len(),
            self.lsq_occupancy,
            self.redirect_stall,
            self.ifetch_stall,
            self.stats.committed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoopStream;

    fn cpu_with(body: Vec<SynthInst>) -> Cpu<LoopStream> {
        Cpu::new(CpuConfig::isca04_table1(), LoopStream::new(body))
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            ipc > 7.0,
            "independent ALU stream should approach width 8, got {ipc}"
        );
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        // Every instruction depends on its predecessor: IPC ≈ 1.
        let mut cpu = cpu_with(vec![SynthInst::int_alu().with_deps(1, 0)]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            (0.8..=1.1).contains(&ipc),
            "serial chain IPC should be ~1, got {ipc}"
        );
    }

    #[test]
    fn issue_width_limit_caps_throughput() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::first_level(4, 1));
        }
        let ipc = cpu.stats().ipc();
        assert!(ipc < 4.2, "issue limited to 4, got IPC {ipc}");
        assert!(ipc > 3.0, "should still sustain near 4, got {ipc}");
    }

    #[test]
    fn full_stall_commits_nothing_after_drain() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..100 {
            cpu.tick(PipelineControls::free());
        }
        // Let in-flight work drain, then verify no commits under stall.
        for _ in 0..20 {
            cpu.tick(PipelineControls::second_level());
        }
        let committed_before = cpu.stats().committed;
        for _ in 0..50 {
            cpu.tick(PipelineControls::second_level());
        }
        assert_eq!(
            cpu.stats().committed,
            committed_before,
            "stalled core must not commit"
        );
    }

    #[test]
    fn mem_port_limit_bounds_load_throughput() {
        let body: Vec<SynthInst> = (0..8).map(|k| SynthInst::load(64 * k, 0)).collect();
        let mut warm = cpu_with(body.clone());
        for _ in 0..3_000 {
            warm.tick(PipelineControls::free());
        }
        let free_ipc = warm.stats().ipc();

        let mut limited = cpu_with(body);
        for _ in 0..3_000 {
            limited.tick(PipelineControls {
                mem_ports_limit: Some(1),
                ..PipelineControls::default()
            });
        }
        let limited_ipc = limited.stats().ipc();
        assert!(
            limited_ipc < free_ipc * 0.7,
            "1 port ({limited_ipc}) should be well below 2 ports ({free_ipc})"
        );
        assert!(
            limited_ipc <= 1.05,
            "1 port caps load IPC at ~1, got {limited_ipc}"
        );
    }

    #[test]
    fn l2_missing_pointer_chase_is_memory_bound() {
        // A dependent load chain over a huge working set: each load misses
        // to memory (94 cycles), IPC ≈ 2/94.
        let mut n = 0u64;
        let stream = move || {
            n += 1;
            // Stride of 1 MiB over a 4 GiB region defeats both caches.
            let inst = SynthInst::load((n * (1 << 20)) % (1 << 32), 2);
            if n.is_multiple_of(2) {
                SynthInst::int_alu().with_deps(1, 0)
            } else {
                inst
            }
        };
        let mut cpu = Cpu::new(CpuConfig::isca04_table1(), stream);
        for _ in 0..20_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(ipc < 0.25, "memory-bound chain should crawl, got IPC {ipc}");
        assert!(cpu.stats().l2_misses > 100, "expected many L2 misses");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let no_mispredict = vec![SynthInst::int_alu(), SynthInst::branch(false)];
        let mut a = cpu_with(no_mispredict);
        for _ in 0..5_000 {
            a.tick(PipelineControls::free());
        }

        // Mispredict roughly every 16 instructions.
        let mut body: Vec<SynthInst> = vec![SynthInst::int_alu(); 15];
        body.push(SynthInst::branch(true));
        let mut b = cpu_with(body);
        for _ in 0..5_000 {
            b.tick(PipelineControls::free());
        }
        assert!(
            b.stats().mispredicts > 50,
            "mispredicts = {}",
            b.stats().mispredicts
        );
        assert!(
            b.stats().ipc() < a.stats().ipc() * 0.8,
            "mispredicting stream IPC {} should trail clean stream {}",
            b.stats().ipc(),
            a.stats().ipc()
        );
    }

    #[test]
    fn squash_replays_correct_path() {
        // After a squash the same (replayed) instructions must eventually
        // commit: total commits advance beyond the branch.
        let mut body: Vec<SynthInst> = vec![SynthInst::int_alu(); 3];
        body.push(SynthInst::branch(true));
        let mut cpu = cpu_with(body);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        assert!(
            cpu.stats().committed > 500,
            "committed = {}",
            cpu.stats().committed
        );
        // Branches commit too.
        assert!(cpu.stats().committed_by_class[OpClass::Branch.index()] > 100);
    }

    #[test]
    fn run_until_committed_reaches_target() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 4]);
        let cycles = cpu.run_until_committed(10_000);
        assert!(cpu.stats().committed >= 10_000);
        assert!(cycles > 0);
    }

    #[test]
    fn rob_occupancy_reported_and_bounded() {
        let mut cpu = cpu_with(vec![SynthInst::load(1 << 30, 1).with_deps(1, 0)]);
        let mut max_occ = 0;
        for _ in 0..2_000 {
            let ev = cpu.tick(PipelineControls::free());
            max_occ = max_occ.max(ev.rob_occupancy);
        }
        assert!(max_occ <= 128);
        assert!(
            max_occ > 32,
            "slow loads should back up the window, got {max_occ}"
        );
    }

    #[test]
    fn phantom_level_is_echoed_in_events() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu()]);
        let ev = cpu.tick(PipelineControls::second_level());
        assert_eq!(ev.phantom, Some(crate::control::PhantomLevel::Medium));
    }

    #[test]
    fn divider_is_unpipelined() {
        // Back-to-back independent divides cannot exceed 1 per 12 cycles
        // per 2 units.
        let body = vec![SynthInst {
            op: OpClass::IntDiv,
            ..SynthInst::int_alu()
        }];
        let mut cpu = cpu_with(body);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            ipc < 0.30,
            "unpipelined divides should throttle IPC, got {ipc}"
        );
    }

    #[test]
    fn window_entry_fits_a_cache_line() {
        assert!(std::mem::size_of::<RobEntry>() <= 64);
    }

    #[test]
    fn event_and_full_scan_schedulers_are_identical() {
        let (committed, overflowed) = schedulers_agree(CpuConfig::isca04_table1());
        assert!(committed > 10_000, "stream must make progress");
        assert!(
            !overflowed,
            "fixed latencies must all fit the completion ring"
        );
    }

    #[test]
    fn event_and_full_scan_agree_under_a_miss_tracker() {
        // Few MSHRs and a slow memory channel stretch miss latencies past
        // the completion ring, onto the overflow list.
        let mut config = CpuConfig::isca04_table1();
        config.memory_system = Some(crate::memsys::MemorySystemConfig {
            mshrs: 2,
            mem_interval: 30,
        });
        let (committed, overflowed) = schedulers_agree(config);
        assert!(committed > 1_000, "stream must make progress");
        assert!(
            overflowed,
            "stretched latencies must exercise the overflow list"
        );
    }

    /// Runs a stream mixing dependences, loads that miss, divides, and
    /// mispredicting branches, under controls that exercise width limits,
    /// port limits, stalls, and the damping cap: both schedulers must agree
    /// cycle-for-cycle. Returns the instructions committed and whether
    /// any completion went through the event scheduler's overflow list.
    fn schedulers_agree(config: CpuConfig) -> (u64, bool) {
        let mut n = 0u64;
        let stream = move || {
            n += 1;
            match n % 11 {
                0 => SynthInst::branch(n.is_multiple_of(33)),
                1 | 2 => SynthInst::load((n * (1 << 14)) % (1 << 28), (n % 5) as u32),
                3 => SynthInst {
                    op: OpClass::IntDiv,
                    ..SynthInst::int_alu()
                },
                4..=6 => SynthInst::int_alu().with_deps((n % 7) as u32, (n % 3) as u32),
                7 => SynthInst::load(64 * n, 1),
                _ => SynthInst::int_alu(),
            }
        };
        let controls = |cycle: u64| match cycle % 97 {
            0..=9 => PipelineControls::first_level(4, 1),
            10..=12 => PipelineControls::second_level(),
            13..=20 => PipelineControls {
                issue_current_cap: Some(14.0),
                ..PipelineControls::default()
            },
            _ => PipelineControls::free(),
        };
        let mut event = Cpu::with_scan_mode(config, stream, ScanMode::Event);
        let mut scan = Cpu::with_scan_mode(config, stream, ScanMode::FullScan);
        let mut overflowed = false;
        for cycle in 0..30_000 {
            let a = event.tick(controls(cycle));
            let b = scan.tick(controls(cycle));
            assert_eq!(a, b, "cycle {cycle} events diverged");
            overflowed |= !event.done_overflow.is_empty();
        }
        assert_eq!(event.stats(), scan.stats());
        assert!(event.stats().mispredicts > 10, "squashes must be exercised");
        (event.stats().committed, overflowed)
    }

    #[test]
    fn damping_current_cap_throttles_issue() {
        let mut free = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            free.tick(PipelineControls::free());
        }
        let mut capped = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            capped.tick(PipelineControls {
                issue_current_cap: Some(2.0), // two ALU ops' worth
                ..PipelineControls::default()
            });
        }
        assert!(
            capped.stats().ipc() < free.stats().ipc() * 0.5,
            "cap {} vs free {}",
            capped.stats().ipc(),
            free.stats().ipc()
        );
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use crate::branch::PredictorKind;
    use crate::isa::LoopStream;
    use crate::memsys::MemorySystemConfig;

    #[test]
    fn predictor_model_learns_biased_branches() {
        // All branches at one PC, always taken: a gshare predictor learns
        // them, so mispredicts stay rare even with mispredict flags unset.
        let mut config = CpuConfig::isca04_table1();
        config.branch_model = BranchModel::Predictor {
            kind: PredictorKind::Gshare { history_bits: 8 },
            entries: 4096,
        };
        let body = vec![
            SynthInst::int_alu().at_pc(0x100),
            SynthInst::branch(false).with_taken(true).at_pc(0x104),
        ];
        let mut cpu = Cpu::new(config, LoopStream::new(body));
        for _ in 0..3_000 {
            cpu.tick(PipelineControls::free());
        }
        let rate = cpu.stats().mispredicts as f64
            / cpu.stats().committed_by_class[OpClass::Branch.index()].max(1) as f64;
        assert!(
            rate < 0.05,
            "biased branch must be learned, mispredict rate {rate}"
        );
    }

    #[test]
    fn predictor_model_squashes_on_hard_branches() {
        // Branch directions alternate pseudo-randomly with a bimodal
        // predictor: mispredicts (and their squashes) must occur.
        let mut config = CpuConfig::isca04_table1();
        config.branch_model = BranchModel::Predictor {
            kind: PredictorKind::Bimodal,
            entries: 64,
        };
        let mut flip = 0u64;
        let stream = move || {
            flip = flip.wrapping_mul(6364136223846793005).wrapping_add(1);
            SynthInst::branch(false)
                .with_taken(flip >> 63 == 1)
                .at_pc(0x200)
        };
        let mut cpu = Cpu::new(config, stream);
        for _ in 0..3_000 {
            cpu.tick(PipelineControls::free());
        }
        assert!(
            cpu.stats().mispredicts > 50,
            "got {} mispredicts",
            cpu.stats().mispredicts
        );
        assert!(
            cpu.stats().committed > 300,
            "machine must keep making progress"
        );
    }

    #[test]
    fn mshr_limit_slows_memory_parallel_loads() {
        // Independent memory-missing loads: unlimited MSHRs overlap them;
        // a single MSHR serializes them.
        let body: Vec<SynthInst> = (0..8).map(|k| SynthInst::load(1 << (28 + k), 0)).collect();
        let run = |memory_system: Option<MemorySystemConfig>| -> f64 {
            let mut config = CpuConfig::isca04_table1();
            config.memory_system = memory_system;
            let mut n = 0u64;
            let stream = move || {
                n += 1;
                // 1 MiB stride over 4 GiB: every load misses to memory.
                SynthInst::load((n * (1 << 20)) % (1 << 32), 0)
            };
            let mut cpu = Cpu::new(config, stream);
            for _ in 0..20_000 {
                cpu.tick(PipelineControls::free());
            }
            cpu.stats().ipc()
        };
        let unlimited = run(None);
        let one_mshr = run(Some(MemorySystemConfig {
            mshrs: 1,
            mem_interval: 1,
        }));
        assert!(
            one_mshr < unlimited * 0.25,
            "1 MSHR ({one_mshr}) must serialize far below unlimited ({unlimited})"
        );
        let _ = body;
    }

    #[test]
    fn bandwidth_limit_throttles_memory_streams() {
        let run = |interval: u32| -> f64 {
            let mut config = CpuConfig::isca04_table1();
            config.memory_system = Some(MemorySystemConfig {
                mshrs: 64,
                mem_interval: interval,
            });
            let mut n = 0u64;
            let stream = move || {
                n += 1;
                SynthInst::load((n * (1 << 20)) % (1 << 32), 0)
            };
            let mut cpu = Cpu::new(config, stream);
            for _ in 0..20_000 {
                cpu.tick(PipelineControls::free());
            }
            cpu.stats().ipc()
        };
        let fast = run(1);
        let slow = run(50);
        assert!(slow < fast * 0.6, "slow channel {slow} vs fast {fast}");
    }

    #[test]
    fn default_config_is_unaffected_by_new_features() {
        // Profile model + no memory system: identical machine as before.
        let config = CpuConfig::isca04_table1();
        assert_eq!(config.branch_model, BranchModel::Profile);
        assert!(config.memory_system.is_none());
    }
}
