//! The streaming-multiprocessor timing model.
//!
//! Follows GPGPU-Sim's structure, which the paper extends with a tensor
//! core unit interfaced to the operand collector (§V-A): each sub-core has
//! one warp scheduler issuing one warp instruction per cycle to its
//! functional units; instructions execute *functionally* at issue and the
//! timing model delays result visibility through the scoreboard. Memory
//! instructions coalesce into sector transactions serviced by the L1/L2/
//! DRAM hierarchy; `wmma.mma` occupies the sub-core's tensor-core pair
//! according to the Fig 9 / Table I schedules.

use crate::config::{SchedPolicy, SmConfig};
use crate::decode::DecodedKernel;
use crate::scoreboard::Scoreboard;
use crate::stats::{unit_index, SmStats, WmmaKind, WmmaSample};
use std::sync::Arc;
use tcsim_core::{trace_mma, TensorCoreModel};
use tcsim_isa::exec::{step_into, ExecEnv, MemAccess, MemOp, StepAction, WarpExec, FULL_MASK};
use tcsim_isa::{
    CtaRequirements, Dim3, Instr, Kernel, LaunchConfig, MemSpace, Op, UnitClass, UopStream,
    WmmaDirective, WARP_SIZE,
};
use tcsim_mem::{
    coalesce_into, conflict_passes_in, tile_conflict_passes, tile_sectors_into, DeviceMemory,
    L1Path, MemSystem, SharedMemory, Transaction,
};
use tcsim_trace::{emit, EventKind, StallReason, TraceEvent, TraceUnit, Tracer};

/// Everything shared by all CTAs of one kernel launch.
#[derive(Clone)]
pub struct LaunchSpec {
    /// The kernel to run.
    pub kernel: Arc<Kernel>,
    /// Parameter buffer contents.
    pub params: Arc<Vec<u8>>,
    /// Grid/block geometry.
    pub launch: LaunchConfig,
    /// The kernel decoded once into μop/timing tables (see
    /// [`DecodedKernel`]), shared by every CTA of the launch. `None`
    /// makes each SM decode on first CTA placement — equivalent, just
    /// without the sharing.
    pub uops: Option<Arc<DecodedKernel>>,
}

impl LaunchSpec {
    /// Static resources one CTA of this launch occupies on an SM.
    pub fn cta_requirements(&self) -> CtaRequirements {
        CtaRequirements::new(
            self.launch.threads_per_cta(),
            self.kernel.num_regs(),
            self.kernel.shared_bytes() + self.launch.shared_bytes,
        )
    }
}

struct CtaSlot {
    cta_id: Dim3,
    shared: SharedMemory,
    warps_total: usize,
    warps_done: usize,
    warp_slots: Vec<usize>,
    requirements: CtaRequirements,
    spec: LaunchSpec,
    decoded: Arc<DecodedKernel>,
}

struct WarpSlot {
    exec: WarpExec,
    scoreboard: Scoreboard,
    cta: usize,
}

#[derive(Clone, Default)]
struct SubCore {
    last_issued: Option<usize>,
    unit_free: [u64; UnitClass::COUNT],
    rr_cursor: usize,
    /// This sub-core's resident warp slots, oldest first: appending on
    /// CTA launch and dropping on CTA retire keeps launch order, so GTO
    /// walks the list as is and never sorts.
    by_age: Vec<usize>,
    /// No warp of this sub-core can issue before this cycle, so a step
    /// before it skips the sub-core (0 = must look): the earliest
    /// `block_until` of its schedulable warps, never earlier than the
    /// cycle after its last walk.
    wake: u64,
}

/// Buffers the issue path refills for every memory instruction. They
/// live here, once per SM, rather than in each warp: a per-warp copy is
/// thousands of small buffers on a full GPU.
#[derive(Default)]
struct Scratch {
    /// Lane accesses of the instruction being issued (none when it
    /// reported a tile footprint instead).
    accesses: Vec<MemAccess>,
    /// Its coalesced global transactions, when it has lane accesses.
    txns: Vec<Transaction>,
    /// The global sectors it requests, ascending.
    sectors: Vec<u64>,
    /// Shared-memory words, when the bank-conflict count has to sort.
    words: Vec<u64>,
}

/// What memory accounting needs to know about the issuing instruction,
/// taken while the kernel is still borrowed from its CTA slot.
#[derive(Clone, Copy)]
struct MemClass {
    /// `shfl`: no memory traffic, but it occupies the MIO path.
    is_shfl: bool,
    /// `wmma.load` / `wmma.store`, for the latency profile.
    wmma: Option<WmmaKind>,
    /// The instruction writes a register (loads, atomics).
    has_dst: bool,
}

impl MemClass {
    fn of(instr: &Instr) -> MemClass {
        MemClass {
            is_shfl: matches!(instr.op, Op::Shfl { .. }),
            wmma: match &instr.op {
                Op::Wmma(WmmaDirective::Load { .. }) => Some(WmmaKind::Load),
                Op::Wmma(WmmaDirective::Store { .. }) => Some(WmmaKind::Store),
                _ => None,
            },
            has_dst: instr.dst.is_some(),
        }
    }
}

/// Warp is resident in its slot.
const WARP_LIVE: u8 = 1;
/// Warp has executed its exit.
const WARP_DONE: u8 = 2;
/// Warp is parked at a barrier.
const WARP_AT_BARRIER: u8 = 4;

/// Scheduling state of every warp slot, in structure-of-arrays form.
///
/// This is the only copy of it: the issue walk and the barrier release
/// touch these two compact arrays (one byte + one word per warp slot)
/// instead of dereferencing the multi-kilobyte [`WarpSlot`] (register
/// file, scoreboard) per slot per cycle.
struct WarpMeta {
    /// `WARP_LIVE | WARP_DONE | WARP_AT_BARRIER` bits; 0 = empty slot.
    /// A warp is schedulable iff its flags are exactly `WARP_LIVE`.
    flags: Vec<u8>,
    /// Earliest cycle the warp could issue, valid while live.
    block_until: Vec<u64>,
}

impl WarpMeta {
    fn new(slots: usize) -> WarpMeta {
        WarpMeta {
            flags: vec![0; slots],
            block_until: vec![0; slots],
        }
    }
}

/// Maps an ISA unit class onto its trace-event counterpart (the trace
/// crate is a leaf and cannot depend on `tcsim-isa`).
fn trace_unit(u: UnitClass) -> TraceUnit {
    match u {
        UnitClass::Sp => TraceUnit::Sp,
        UnitClass::Int => TraceUnit::Int,
        UnitClass::Fp64 => TraceUnit::Fp64,
        UnitClass::Mufu => TraceUnit::Mufu,
        UnitClass::Tensor => TraceUnit::Tensor,
        UnitClass::Mem => TraceUnit::Mem,
        UnitClass::Control => TraceUnit::Control,
    }
}

/// One streaming multiprocessor.
pub struct Sm {
    cfg: SmConfig,
    id: u16,
    /// Built when the SM receives its first CTA: an SM that never holds
    /// one costs no L1 and reports zero L1 statistics.
    l1: Option<L1Path>,
    mio_free: u64,
    ctas: Vec<Option<CtaSlot>>,
    warps: Vec<Option<WarpSlot>>,
    sub: Vec<SubCore>,
    tensor: TensorCoreModel,
    /// What the resident CTAs hold between them.
    held: CtaRequirements,
    stats: SmStats,
    profile_wmma: bool,
    meta: WarpMeta,
    /// Resident CTA count (`ctas` slots that are `Some`).
    live_ctas: usize,
    /// Warps currently parked at a barrier; the release pass is skipped
    /// while this is zero (it would scan every CTA's warp list only to
    /// find nothing arrived).
    barrier_waiters: usize,
    /// A warp exited since the last retire pass, so a CTA may be
    /// complete; cleared when the pass runs.
    retire_check: bool,
    scratch: Scratch,
}

impl Sm {
    /// Builds an idle SM (trace events carry SM id 0).
    pub fn new(cfg: SmConfig) -> Sm {
        Sm::with_id(cfg, 0)
    }

    /// Builds an idle SM whose trace events carry `id`.
    pub fn with_id(cfg: SmConfig, id: u16) -> Sm {
        Sm {
            cfg,
            id,
            l1: None,
            mio_free: 0,
            ctas: Vec::new(),
            warps: (0..cfg.resources.max_warps).map(|_| None).collect(),
            sub: vec![SubCore::default(); cfg.sub_cores],
            tensor: if cfg.volta_tensor {
                TensorCoreModel::volta()
            } else {
                TensorCoreModel::turing()
            },
            held: CtaRequirements::default(),
            stats: SmStats::default(),
            profile_wmma: false,
            meta: WarpMeta::new(cfg.resources.max_warps),
            live_ctas: 0,
            barrier_waiters: 0,
            retire_check: false,
            scratch: Scratch::default(),
        }
    }

    /// Enables recording of per-WMMA-instruction latencies (Fig 15/16).
    pub fn set_profile_wmma(&mut self, on: bool) {
        self.profile_wmma = on;
    }

    /// The SM's configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// L1 cache statistics.
    pub fn l1_stats(&self) -> tcsim_mem::CacheStats {
        self.l1.as_ref().map(L1Path::stats).unwrap_or_default()
    }

    /// Number of resident CTAs.
    pub fn resident_ctas(&self) -> usize {
        self.live_ctas
    }

    /// Whether the SM has no resident work.
    pub fn idle(&self) -> bool {
        self.live_ctas == 0
    }

    /// Whether a CTA with the given requirements can be accepted now.
    pub fn can_accept(&self, req: &CtaRequirements) -> bool {
        self.cfg
            .resources
            .admit(&self.held, self.live_ctas, req)
            .is_ok()
    }

    /// Places one CTA onto the SM.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_accept`] would return false.
    pub fn launch_cta(&mut self, spec: &LaunchSpec, cta_id: Dim3, now: u64) {
        let req = spec.cta_requirements();
        assert!(self.can_accept(&req), "CTA launched onto a full SM");
        let l1_kib = self.cfg.l1_kib;
        self.l1.get_or_insert_with(|| L1Path::new(l1_kib));
        let decoded = spec
            .uops
            .clone()
            .unwrap_or_else(|| Arc::new(DecodedKernel::decode(&spec.kernel, &self.cfg)));
        let threads = spec.launch.threads_per_cta();
        let mut warp_slots = Vec::new();
        let cta_index = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .unwrap_or_else(|| {
                self.ctas.push(None);
                self.ctas.len() - 1
            });
        for w in 0..req.warps {
            let live = threads.saturating_sub((w * WARP_SIZE) as u32).min(32);
            let mask = if live >= 32 {
                FULL_MASK
            } else {
                (1u32 << live) - 1
            };
            let slot = self
                .warps
                .iter()
                .position(|s| s.is_none())
                .expect("warp slot free (checked by can_accept)");
            self.warps[slot] = Some(WarpSlot {
                exec: WarpExec::new(spec.kernel.num_regs(), w as u32, mask),
                scoreboard: Scoreboard::new(spec.kernel.num_regs() as usize),
                cta: cta_index,
            });
            self.meta.flags[slot] = WARP_LIVE;
            self.meta.block_until[slot] = now;
            let sub = &mut self.sub[slot % self.cfg.sub_cores];
            sub.by_age.push(slot);
            sub.wake = 0;
            warp_slots.push(slot);
        }
        self.ctas[cta_index] = Some(CtaSlot {
            cta_id,
            shared: SharedMemory::new(req.shared_bytes.max(1)),
            warps_total: req.warps,
            warps_done: 0,
            warp_slots,
            requirements: req,
            spec: spec.clone(),
            decoded,
        });
        self.held.warps += req.warps;
        self.held.registers += req.registers;
        self.held.shared_bytes += req.shared_bytes;
        self.live_ctas += 1;
    }

    /// Advances the SM by one cycle and returns the next cycle at which
    /// a warp could issue (`u64::MAX` if none can before a new CTA
    /// arrives): stepping the SM any earlier would do nothing, so the GPU
    /// loop skips straight to it.
    ///
    /// Issue attempts run against the decode-once μop tables, warps are
    /// walked lazily in policy order, and neither a blocked attempt nor
    /// an issue allocates.
    pub fn step(
        &mut self,
        now: u64,
        global: &mut DeviceMemory,
        sys: &mut MemSystem,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        if self.issue(now, global, sys, tracer) {
            self.stats.active_cycles += 1;
        }

        // Barrier release: a CTA whose live warps have all arrived. With
        // no warp parked at a barrier the pass cannot release anything,
        // so it is skipped outright.
        if self.barrier_waiters > 0 {
            let sub_cores = self.cfg.sub_cores;
            let meta = &mut self.meta;
            for cta in self.ctas.iter().flatten() {
                let arrived = cta
                    .warp_slots
                    .iter()
                    .filter(|&&wi| meta.flags[wi] & WARP_AT_BARRIER != 0)
                    .count();
                if arrived > 0 && arrived + cta.warps_done == cta.warps_total {
                    for &wi in &cta.warp_slots {
                        if meta.flags[wi] & WARP_AT_BARRIER != 0 {
                            meta.flags[wi] &= !WARP_AT_BARRIER;
                            meta.block_until[wi] = now + 1;
                            let sub = &mut self.sub[wi % sub_cores];
                            sub.wake = sub.wake.min(now + 1);
                            self.barrier_waiters -= 1;
                        }
                    }
                    self.stats.barriers += 1;
                }
            }
        }

        // Retire completed CTAs and free their resources. `warps_done`
        // only advances when a warp issues its exit, which raises
        // `retire_check`; until then no CTA can newly complete and the
        // scan is skipped.
        if self.retire_check {
            let mut retired = false;
            for c in 0..self.ctas.len() {
                let done = self.ctas[c]
                    .as_ref()
                    .is_some_and(|cta| cta.warps_done == cta.warps_total);
                if done {
                    let cta = self.ctas[c].take().expect("checked");
                    for wi in cta.warp_slots {
                        self.warps[wi] = None;
                        self.meta.flags[wi] = 0;
                    }
                    self.held.warps -= cta.requirements.warps;
                    self.held.registers -= cta.requirements.registers;
                    self.held.shared_bytes -= cta.requirements.shared_bytes;
                    self.stats.ctas_completed += 1;
                    self.live_ctas -= 1;
                    retired = true;
                }
            }
            if retired {
                let flags = &self.meta.flags;
                for sub in &mut self.sub {
                    sub.by_age.retain(|&wi| flags[wi] != 0);
                }
            }
            self.retire_check = false;
        }

        self.sub.iter().map(|s| s.wake).min().unwrap_or(u64::MAX)
    }

    /// One issue slot per sub-core. Returns whether anything issued.
    ///
    /// Nothing is collected or sorted: each sub-core is walked lazily in
    /// policy order over the compact [`WarpMeta`] and the walk stops at
    /// the first issue. A sub-core is not walked before its `wake`, the
    /// earliest `block_until` of its schedulable warps: `block_until`
    /// only moves when a warp is tried, issued, launched or released from
    /// a barrier, so the skipped walk would try nothing, emit nothing and
    /// report the same wake cycle.
    fn issue(
        &mut self,
        now: u64,
        global: &mut DeviceMemory,
        sys: &mut MemSystem,
        tracer: &mut dyn Tracer,
    ) -> bool {
        let mut issued_any = false;
        let mut walk = Walk {
            sc: 0,
            now,
            global,
            sys,
            tracer,
        };

        for sc in 0..self.cfg.sub_cores {
            if self.sub[sc].wake > now {
                continue;
            }
            walk.sc = sc;
            let issued = match self.cfg.scheduler {
                SchedPolicy::Gto => self.walk_gto(&mut walk),
                SchedPolicy::RoundRobin => self.walk_round_robin(&mut walk),
            };
            let meta = &self.meta;
            let sub = &mut self.sub[sc];
            if let Some(wi) = issued {
                sub.last_issued = Some(wi);
                issued_any = true;
            }
            // Every schedulable warp's `block_until` is exact, so nothing
            // here can issue before the earliest of them.
            sub.wake = sub
                .by_age
                .iter()
                .filter(|&&w| meta.flags[w] == WARP_LIVE)
                .map(|&w| meta.block_until[w].max(now + 1))
                .min()
                .unwrap_or(u64::MAX);
        }
        issued_any
    }

    /// GTO order: the last-issued warp first, then oldest first.
    fn walk_gto(&mut self, walk: &mut Walk<'_>) -> Option<usize> {
        let last = self.sub[walk.sc].last_issued;
        if let Some(wi) = last {
            if self.attempt(wi, walk) {
                return Some(wi);
            }
        }
        for k in 0..self.sub[walk.sc].by_age.len() {
            let wi = self.sub[walk.sc].by_age[k];
            if Some(wi) != last && self.attempt(wi, walk) {
                return Some(wi);
            }
        }
        None
    }

    /// Round-robin order: the warps ready at the start of the step, in
    /// slot order, rotated by the cursor. The cursor advances only on
    /// steps with a ready warp, so skipped steps cannot desynchronize it.
    fn walk_round_robin(&mut self, walk: &mut Walk<'_>) -> Option<usize> {
        let (sc, now) = (walk.sc, walk.now);
        let ready = (sc..self.meta.flags.len())
            .step_by(self.cfg.sub_cores)
            .filter(|&wi| self.meta.flags[wi] == WARP_LIVE && self.meta.block_until[wi] <= now)
            .count();
        if ready == 0 {
            return None;
        }
        let start = self.sub[sc].rr_cursor % ready;
        self.sub[sc].rr_cursor = self.sub[sc].rr_cursor.wrapping_add(1);
        // Ready warps `start..` first, then `..start`. A warp tried and
        // blocked in the first pass is no longer ready, and all of those
        // sit after the first `start` ready warps in slot order.
        for wrapped in [false, true] {
            let mut nth = 0;
            for wi in (sc..self.meta.flags.len()).step_by(self.cfg.sub_cores) {
                if wrapped && nth == start {
                    break;
                }
                if self.meta.flags[wi] != WARP_LIVE || self.meta.block_until[wi] > now {
                    continue;
                }
                nth += 1;
                if (wrapped || nth > start) && self.attempt(wi, walk) {
                    return Some(wi);
                }
            }
        }
        None
    }

    /// Tries to issue from warp slot `wi` if it holds a schedulable warp
    /// that is not known to be blocked.
    fn attempt(&mut self, wi: usize, walk: &mut Walk<'_>) -> bool {
        if self.meta.flags[wi] != WARP_LIVE || self.meta.block_until[wi] > walk.now {
            return false;
        }
        match self.try_issue(wi, walk) {
            IssueResult::Issued => true,
            IssueResult::Blocked(until) => {
                // What the sub-core wake cache relies on.
                debug_assert!(until > walk.now, "blocked until a past cycle");
                false
            }
        }
    }

    /// Parks warp `wi` from cycle `from` until `until` and reports why:
    /// one `Stall` event per stall episode.
    fn park(
        &mut self,
        wi: usize,
        walk: &mut Walk<'_>,
        from: u64,
        reason: StallReason,
        until: u64,
    ) -> IssueResult {
        self.meta.block_until[wi] = until;
        emit(walk.tracer, || TraceEvent {
            cycle: from,
            sm: self.id,
            kind: EventKind::Stall {
                sub_core: walk.sc as u8,
                warp: wi as u16,
                reason,
                until,
            },
        });
        IssueResult::Blocked(until)
    }

    /// Tries to issue warp `wi`'s next instruction. Only a busy unit can
    /// block it: its scoreboard hazard was resolved when it last issued.
    /// An issue borrows the kernel and parameters from the CTA slot and
    /// refills the SM's [`Scratch`] — no `Arc` clone, no `Vec`, no
    /// hashing — and then resolves the hazard of the warp's next
    /// instruction.
    fn try_issue(&mut self, wi: usize, walk: &mut Walk<'_>) -> IssueResult {
        let (sc, now) = (walk.sc, walk.now);
        let (cta_idx, pc) = {
            let w = self.warps[wi].as_ref().expect("warp exists");
            (w.cta, w.exec.pc)
        };
        let sm_id = self.id;
        let volta = self.cfg.volta_tensor;
        let (uop, timing) = {
            let cta = self.ctas[cta_idx].as_ref().expect("cta exists");
            (cta.decoded.uops().uop(pc), cta.decoded.timing(pc))
        };

        // Functional-unit availability first (cheap). Unit-busy times are
        // monotone, so sleeping the warp until the observed free time is
        // exact, not just a heuristic.
        let unit = uop.unit;
        match unit {
            UnitClass::Mem => {
                if self.mio_free > now {
                    return self.park(wi, walk, now, StallReason::Structural, self.mio_free);
                }
            }
            UnitClass::Control => {}
            u => {
                let free = self.sub[sc].unit_free[unit_index(u)];
                if free > now {
                    return self.park(wi, walk, now, StallReason::Structural, free);
                }
            }
        }

        debug_assert!(
            {
                let cta = self.ctas[cta_idx].as_ref().expect("cta exists");
                let w = self.warps[wi].as_ref().expect("warp exists");
                hazard(&w.scoreboard, cta.decoded.uops(), pc, now).is_none()
            },
            "scoreboard hazard left unresolved at the warp's last issue"
        );

        // --- Issue: execute functionally, then account timing. ---

        // Operand collection: the bank-conflict count was precomputed at
        // decode (zero where the reuse cache absorbs it).
        let collect = self.cfg.operand_collect + timing.bank_conflicts;
        self.stats.reg_bank_stalls += timing.bank_conflicts;

        let (action, mem, class) = {
            let w = self.warps[wi].as_mut().expect("warp exists");
            let cta = self.ctas[cta_idx].as_mut().expect("cta exists");
            let kernel: &Kernel = &cta.spec.kernel;
            let mut env = ExecEnv {
                global: &mut *walk.global,
                shared: &mut cta.shared,
                params: &cta.spec.params,
                block: cta.spec.launch.block,
                grid: cta.spec.launch.grid,
                cta: cta.cta_id,
                clock: now,
            };
            let info = step_into(
                &mut w.exec,
                kernel,
                &mut env,
                &self.tensor,
                &mut self.scratch.accesses,
            );
            let instr = &kernel.instrs()[pc];
            if unit == UnitClass::Tensor {
                let Op::Wmma(dir) = &instr.op else {
                    unreachable!("tensor unit ⇒ wmma.mma")
                };
                trace_mma(
                    walk.tracer,
                    volta,
                    dir,
                    now + collect,
                    sm_id,
                    sc as u8,
                    wi as u16,
                );
            }
            (info.action, info.mem, MemClass::of(instr))
        };

        let ready = match unit {
            UnitClass::Sp | UnitClass::Int | UnitClass::Fp64 | UnitClass::Mufu => {
                self.sub[sc].unit_free[unit_index(unit)] = now + timing.ii;
                now + collect + timing.latency + timing.ii
            }
            UnitClass::Tensor => {
                self.sub[sc].unit_free[unit_index(unit)] = now + timing.ii;
                let ready = now + collect + timing.latency;
                if self.profile_wmma {
                    self.push_sample(WmmaKind::Mma, now, ready - now);
                }
                ready
            }
            UnitClass::Mem => self.account_memory(class, mem, now, collect, walk.sys, walk.tracer),
            UnitClass::Control => now + 1,
        };

        emit(walk.tracer, || TraceEvent {
            cycle: now,
            sm: sm_id,
            kind: EventKind::WarpIssue {
                sub_core: sc as u8,
                warp: wi as u16,
                unit: trace_unit(unit),
            },
        });

        let cta = self.ctas[cta_idx].as_mut().expect("cta exists");
        let w = self.warps[wi].as_mut().expect("warp exists");
        let uops = cta.decoded.uops();
        w.scoreboard
            .issue(uops.defs(pc), ready, unit == UnitClass::Mem);
        let episode = match action {
            StepAction::Exited => {
                self.meta.flags[wi] |= WARP_DONE;
                self.retire_check = true;
                cta.warps_done += 1;
                emit(walk.tracer, || TraceEvent {
                    cycle: now,
                    sm: sm_id,
                    kind: EventKind::WarpRetire {
                        sub_core: sc as u8,
                        warp: wi as u16,
                    },
                });
                None
            }
            // The barrier fenced every pending write, so the release
            // leaves nothing to resolve.
            StepAction::Barrier => {
                self.meta.flags[wi] |= WARP_AT_BARRIER;
                self.barrier_waiters += 1;
                None
            }
            // Only this warp writes its scoreboard, so the hazard its next
            // instruction meets is known now: one stall episode from the
            // next cycle until it clears.
            StepAction::Continue => hazard(&w.scoreboard, uops, w.exec.pc, now + 1),
        };

        self.stats.issued += 1;
        self.stats.issued_by_unit[unit_index(unit)] += 1;
        if let Some((reason, until)) = episode {
            self.park(wi, walk, now + 1, reason, until);
        }
        IssueResult::Issued
    }

    /// Timing of a memory-unit instruction whose tile footprint
    /// [`step_into`] reported in `mem`, or whose lane accesses it left in
    /// the scratch buffer: the cycle its result (or its issue slot, for
    /// plain stores) is ready.
    fn account_memory(
        &mut self,
        class: MemClass,
        mem: Option<MemOp>,
        now: u64,
        collect: u64,
        sys: &mut MemSystem,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        let Some(mem) = mem else {
            if class.is_shfl {
                // Warp shuffles route through the MIO/shared path on Volta.
                self.mio_free = now + self.cfg.mio_cycles_per_txn;
                return now + collect + self.cfg.shared_latency;
            }
            // Parameter-space loads: constant-cache hit.
            return now + collect + self.cfg.alu_latency;
        };
        let ready = match mem.space {
            MemSpace::Shared => {
                let Scratch {
                    accesses, words, ..
                } = &mut self.scratch;
                let passes = match &mem.tile {
                    Some(tile) => tile_conflict_passes(tile, words),
                    None => conflict_passes_in(accesses, words),
                } as u64;
                self.stats.shared_conflict_passes += passes - 1;
                self.mio_free = now + passes * self.cfg.mio_cycles_per_txn;
                now + collect + self.cfg.shared_latency + 2 * (passes - 1)
            }
            MemSpace::Param => now + collect + self.cfg.alu_latency,
            MemSpace::Global | MemSpace::Local => {
                // One sector enters the L1 per MIO slot, from `start` on.
                let (start, spacing) = (now + collect, self.cfg.mio_cycles_per_txn);
                let Scratch {
                    accesses,
                    txns,
                    sectors,
                    ..
                } = &mut self.scratch;
                match &mem.tile {
                    Some(tile) => tile_sectors_into(tile, sectors),
                    None => {
                        coalesce_into(accesses, txns);
                        sectors.clear();
                        sectors.extend(txns.iter().map(|t| t.addr));
                    }
                }
                self.stats.global_txns += sectors.len() as u64;
                self.mio_free = now + sectors.len() as u64 * spacing;
                let l1 = self.l1.as_mut().expect("a resident CTA built the L1");
                let last =
                    l1.access_sectors(sectors, mem.is_store, start, spacing, sys, self.id, tracer);
                let done = last.max(now + collect + self.cfg.shared_latency);
                if mem.is_store {
                    if class.has_dst {
                        // Atomics return the old value: the destination is
                        // not ready until the round trip completes.
                        return done;
                    }
                    // Plain stores retire at issue (no register
                    // writeback); the write-ack time still shows up in the
                    // profile below.
                    if let Some(k) = class.wmma {
                        if self.profile_wmma {
                            self.push_sample(k, now, done - now);
                        }
                    }
                    return now + collect + 1;
                }
                done
            }
        };
        if let Some(k) = class.wmma {
            if self.profile_wmma {
                self.push_sample(k, now, ready - now);
            }
        }
        ready
    }

    fn push_sample(&mut self, kind: WmmaKind, issue: u64, latency: u64) {
        if self.stats.wmma_samples.len() < 1_000_000 {
            self.stats.wmma_samples.push(WmmaSample {
                kind,
                issue,
                latency,
            });
        }
    }

    /// Flushes the L1 (kernel boundary).
    pub fn flush_l1(&mut self) {
        if let Some(l1) = &mut self.l1 {
            l1.flush();
        }
    }

    /// Resets cycle-stamped scheduling state (functional-unit and MIO
    /// ready times, scheduler history) for a new launch whose cycle
    /// counter restarts at 0. Without this, ready-times from a previous
    /// launch sit in the new launch's future and stall its first cycles,
    /// making back-to-back launch timings history-dependent.
    ///
    /// # Panics
    ///
    /// Panics if the SM still has resident work.
    pub fn reset_clock(&mut self) {
        assert!(self.idle(), "clock reset with resident CTAs");
        self.mio_free = 0;
        for sc in &mut self.sub {
            // Idle: `by_age` is empty; keep its allocation.
            sc.last_issued = None;
            sc.unit_free = [0; UnitClass::COUNT];
            sc.rr_cursor = 0;
            sc.wake = 0;
        }
    }

    /// Reads a register of a resident warp (test/debug aid).
    ///
    /// # Panics
    ///
    /// Panics if the warp slot is empty.
    pub fn warp_reg(&self, slot: usize, lane: usize, reg: tcsim_isa::Reg) -> u32 {
        use tcsim_isa::WarpRegisters;
        self.warps[slot]
            .as_ref()
            .expect("warp resident")
            .exec
            .regs
            .read(lane, reg)
    }
}

enum IssueResult {
    Issued,
    Blocked(u64),
}

/// The scoreboard hazard the μop at `pc` meets at cycle `at`: RAW/WAW on
/// its operands or, for a `bar`, any pending write. Between two issues of
/// its warp the scoreboard does not change, so the cycle this returns is
/// the same from any `at` before it.
fn hazard(sb: &Scoreboard, uops: &UopStream, pc: usize, at: u64) -> Option<(StallReason, u64)> {
    match sb.check(uops.uses(pc), uops.defs(pc), at) {
        Err(h) if h.from_mem => Some((StallReason::Memory, h.ready)),
        Err(h) => Some((StallReason::Raw, h.ready)),
        Ok(()) if uops.uop(pc).is_bar => {
            let clear = sb.all_clear_at(at);
            (clear > at).then_some((StallReason::Barrier, clear))
        }
        Ok(()) => None,
    }
}

/// One sub-core's issue slot: where and when, and the machine the issue
/// acts on.
struct Walk<'a> {
    sc: usize,
    now: u64,
    global: &'a mut DeviceMemory,
    sys: &'a mut MemSystem,
    tracer: &'a mut dyn Tracer,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{CmpOp, DataType, KernelBuilder, MemWidth, Operand, SpecialReg};
    use tcsim_mem::MemSystemConfig;

    use tcsim_trace::{NullTracer, RingTracer};

    fn run_to_completion(sm: &mut Sm, global: &mut DeviceMemory, sys: &mut MemSystem) -> u64 {
        run_traced(sm, global, sys, &mut NullTracer).0
    }

    /// Steps `sm` at each wake it returns until it is idle; returns the
    /// final cycle and the number of steps.
    fn run_traced(
        sm: &mut Sm,
        global: &mut DeviceMemory,
        sys: &mut MemSystem,
        tracer: &mut dyn Tracer,
    ) -> (u64, u64) {
        let mut now = 0u64;
        let mut steps = 0u64;
        while !sm.idle() {
            let wake = sm.step(now, global, sys, tracer);
            assert!(wake > now, "the next wake is in the future");
            now = wake.min(now + 100_000);
            steps += 1;
            assert!(steps < 10_000_000, "SM did not finish");
        }
        (now, steps)
    }

    fn spec(kernel: Kernel, launch: LaunchConfig, params: Vec<u8>) -> LaunchSpec {
        LaunchSpec {
            kernel: Arc::new(kernel),
            params: Arc::new(params),
            launch,
            uops: None,
        }
    }

    fn tiny_sys() -> MemSystem {
        MemSystem::new(MemSystemConfig::titan_v())
    }

    #[test]
    fn sm_and_launch_spec_are_send() {
        // The parallel sweep engine moves whole `Sm`s (inside `Gpu`s) and
        // `LaunchSpec`s across worker threads; a compile-time guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<Sm>();
        assert_send::<LaunchSpec>();
        assert_send::<CtaRequirements>();
    }

    #[test]
    fn single_warp_kernel_runs_and_counts_issues() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Special(SpecialReg::TidX));
        b.iadd(r, r, Operand::Imm(5));
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 32u32), vec![]);

        let mut sm = Sm::new(SmConfig::volta());
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        assert_eq!(sm.resident_ctas(), 1);
        run_to_completion(&mut sm, &mut global, &mut sys);
        assert_eq!(sm.stats().issued, 3);
        assert_eq!(sm.stats().ctas_completed, 1);
        assert!(sm.idle());
    }

    #[test]
    fn dependent_alu_chain_respects_latency() {
        // mov r0; then a chain of 4 dependent iadds: each must wait for
        // the previous writeback (≥ alu_latency apart).
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        for _ in 0..4 {
            b.iadd(r, r, Operand::Imm(1));
        }
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 32u32), vec![]);
        let mut sm = Sm::new(SmConfig::volta());
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let end = run_to_completion(&mut sm, &mut global, &mut sys);
        let min_expected = 4 * (SmConfig::volta().alu_latency);
        assert!(end >= min_expected, "end={end} min={min_expected}");
    }

    #[test]
    fn global_roundtrip_through_l1() {
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, 0);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.iadd(v, v, Operand::Imm(7));
        b.st_global(MemWidth::B32, addr, 0, v);
        b.exit();
        let kernel = b.build();

        let mut global = DeviceMemory::new();
        let buf = global.alloc(128);
        for i in 0..32u32 {
            use tcsim_isa::ByteMemory;
            global.write_u32(buf + 4 * i as u64, i);
        }
        let spec = spec(
            kernel,
            LaunchConfig::new(1u32, 32u32),
            buf.to_le_bytes().to_vec(),
        );
        let mut sm = Sm::new(SmConfig::volta());
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        run_to_completion(&mut sm, &mut global, &mut sys);
        use tcsim_isa::ByteMemory;
        for i in 0..32u32 {
            assert_eq!(global.read_u32(buf + 4 * i as u64), i + 7);
        }
        // One coalesced warp load = 4 sector transactions (plus stores).
        assert!(sm.stats().global_txns >= 4);
        assert!(sm.l1_stats().misses >= 1);
    }

    #[test]
    fn barrier_synchronizes_two_warps() {
        // Warp 0 stores, both warps barrier, warp 1 reads warp 0's value.
        let mut b = KernelBuilder::new("t");
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let a = b.reg();
        b.shl(a, tid, Operand::Imm(2));
        b.st_shared(MemWidth::B32, a, 0, tid);
        b.bar();
        // Read partner index (tid ^ 32) × 4.
        let pa = b.reg();
        b.xor(pa, tid, Operand::Imm(32));
        b.shl(pa, pa, Operand::Imm(2));
        let v = b.reg();
        b.ld_shared(MemWidth::B32, v, pa, 0);
        b.shared_alloc(256);
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 64u32), vec![]);
        let mut sm = Sm::new(SmConfig::volta());
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        run_to_completion(&mut sm, &mut global, &mut sys);
        assert_eq!(sm.stats().barriers, 1);
        assert_eq!(sm.stats().ctas_completed, 1);
    }

    #[test]
    fn tracer_observes_issues_stalls_and_retires() {
        // The dependent-ALU-chain kernel: every iadd stalls on the
        // previous writeback, so the trace must show RAW stalls, one
        // WarpIssue per instruction, and a final retire.
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        for _ in 0..4 {
            b.iadd(r, r, Operand::Imm(1));
        }
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 32u32), vec![]);
        let mut sm = Sm::with_id(SmConfig::volta(), 5);
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let mut tr = RingTracer::with_capacity(4096);
        run_traced(&mut sm, &mut global, &mut sys, &mut tr);
        let events = tr.snapshot();
        assert!(events.iter().all(|e| e.sm == 5), "events carry the SM id");
        let issues = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WarpIssue { .. }))
            .count();
        assert_eq!(issues as u64, sm.stats().issued);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::WarpRetire { .. }))
                .count(),
            1
        );
        let raw_stalls: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Stall {
                        reason: StallReason::Raw,
                        ..
                    }
                )
            })
            .collect();
        // One episode per dependent iadd, reported from the cycle after
        // the issue it waits on.
        assert_eq!(raw_stalls.len(), 4, "dependent chain must stall");
        for e in &raw_stalls {
            let EventKind::Stall { until, .. } = e.kind else {
                unreachable!()
            };
            assert!(until > e.cycle, "stalls resolve in the future");
            assert!(
                events.iter().any(
                    |i| i.cycle + 1 == e.cycle && matches!(i.kind, EventKind::WarpIssue { .. })
                ),
                "a stall episode starts the cycle after an issue"
            );
        }
    }

    #[test]
    fn tracer_attributes_load_dependencies_to_memory() {
        // ld.global into r, then consume r immediately: the consumer's
        // scoreboard stall must be attributed to memory, not plain RAW.
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, 0);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, base, 0);
        b.iadd(v, v, Operand::Imm(1));
        b.exit();
        let mut global = DeviceMemory::new();
        let buf = global.alloc(128);
        let spec = spec(
            b.build(),
            LaunchConfig::new(1u32, 32u32),
            buf.to_le_bytes().to_vec(),
        );
        let mut sm = Sm::new(SmConfig::volta());
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let mut tr = RingTracer::with_capacity(4096);
        run_traced(&mut sm, &mut global, &mut sys, &mut tr);
        let events = tr.snapshot();
        // ld.param, ld.global, iadd, exit: the iadd's one stall episode
        // starts the cycle after the ld.global issued.
        let issues: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WarpIssue { .. }))
            .map(|e| e.cycle)
            .collect();
        let stalls: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Stall { .. }))
            .collect();
        assert_eq!(issues.len(), 4);
        assert!(stalls.iter().any(|e| e.cycle == issues[1] + 1
            && matches!(
                e.kind,
                EventKind::Stall {
                    reason: StallReason::Memory,
                    ..
                }
            )));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CacheAccess { .. })));
    }

    #[test]
    fn blocked_warps_are_not_polled() {
        // Two warps per sub-core, each a chain of global loads with a
        // dependent add after every one. A warp's scoreboard hazard is
        // resolved when it issues, so the SM is stepped only at cycles
        // where something can issue, and every RAW, memory or barrier
        // stall is one episode between two issues of its warp.
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, 0);
        let (v, sum) = (b.reg(), b.reg());
        b.mov(sum, Operand::Imm(0));
        for _ in 0..6 {
            b.ld_global(MemWidth::B32, v, base, 0);
            b.iadd(sum, sum, Operand::Reg(v));
        }
        b.exit();
        let mut global = DeviceMemory::new();
        let buf = global.alloc(128);
        let spec = spec(
            b.build(),
            LaunchConfig::new(1u32, 256u32),
            buf.to_le_bytes().to_vec(),
        );
        let mut sm = Sm::new(SmConfig::volta());
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let mut tr = RingTracer::with_capacity(1 << 16);
        let (_, steps) = run_traced(&mut sm, &mut global, &mut sys, &mut tr);
        let issued = sm.stats().issued;
        assert_eq!(issued, 8 * 15);
        assert!(steps <= issued, "{steps} SM steps for {issued} issues");
        let mut open = [false; 8];
        for e in tr.snapshot().iter() {
            match e.kind {
                EventKind::WarpIssue { warp, .. } => open[warp as usize] = false,
                EventKind::Stall {
                    warp,
                    reason: StallReason::Raw | StallReason::Memory | StallReason::Barrier,
                    ..
                } => {
                    let w = warp as usize;
                    assert!(!open[w], "warp {w}: a second stall episode at {}", e.cycle);
                    open[w] = true;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn occupancy_limits_reject_oversized_ctas() {
        let sm = Sm::new(SmConfig::volta());
        assert!(!sm.can_accept(&CtaRequirements {
            warps: 65,
            registers: 0,
            shared_bytes: 0
        }));
        assert!(!sm.can_accept(&CtaRequirements {
            warps: 1,
            registers: 70_000,
            shared_bytes: 0
        }));
        assert!(!sm.can_accept(&CtaRequirements {
            warps: 1,
            registers: 0,
            shared_bytes: 100 * 1024
        }));
        assert!(sm.can_accept(&CtaRequirements {
            warps: 32,
            registers: 32768,
            shared_bytes: 48 * 1024
        }));
    }

    #[test]
    fn the_l1_is_built_by_the_first_cta() {
        let mut sm = Sm::new(SmConfig::volta());
        assert!(sm.l1.is_none(), "a new SM holds no L1");
        sm.flush_l1();
        assert_eq!(sm.l1_stats(), tcsim_mem::CacheStats::default());
        let mut b = KernelBuilder::new("t");
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 32u32), vec![]);
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let l1 = sm.l1.as_ref().expect("built by launch_cta");
        assert_eq!(l1.stats(), tcsim_mem::CacheStats::default());
    }

    #[test]
    fn resources_are_freed_after_completion() {
        let mut b = KernelBuilder::new("t");
        b.exit();
        let spec = spec(
            b.build(),
            LaunchConfig::new(1u32, 1024u32).with_shared_bytes(32 * 1024),
            vec![],
        );
        let mut sm = Sm::new(SmConfig::volta());
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let req = spec.cta_requirements();
        assert_eq!(req.warps, 32);
        // Second identical CTA still fits (64 warps total).
        assert!(sm.can_accept(&req));
        sm.launch_cta(&spec, Dim3::new(1, 0, 0), 0);
        assert!(!sm.can_accept(&req), "shared memory exhausted");
        run_to_completion(&mut sm, &mut global, &mut sys);
        assert!(sm.can_accept(&req));
        assert_eq!(sm.stats().ctas_completed, 2);
    }

    #[test]
    fn uniform_loop_executes_correct_iteration_count() {
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        b.mov(i, Operand::Imm(0));
        let top = b.label();
        b.place(top);
        b.iadd(i, i, Operand::Imm(1));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::S32, i, Operand::Imm(10));
        b.bra_if(p, true, top);
        b.exit();
        let spec = spec(b.build(), LaunchConfig::new(1u32, 32u32), vec![]);
        let mut sm = Sm::new(SmConfig::volta());
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        run_to_completion(&mut sm, &mut global, &mut sys);
        // 1 mov + 10×(iadd+setp+bra) + exit = 32 issues.
        assert_eq!(sm.stats().issued, 32);
    }

    /// One issue read back from a trace.
    struct Issue {
        sub_core: usize,
        warp: usize,
        /// The warp that issued last on the same sub-core.
        prev: Option<usize>,
        /// The sub-core's warps that could issue at that cycle, as far as
        /// the trace tells: not retired and not stalled past it.
        ready: Vec<usize>,
    }

    /// Runs one CTA of eight warps (two per sub-core) to completion and
    /// reads its issues back from the trace, in order.
    fn issue_order(cfg: SmConfig, kernel: Kernel) -> Vec<Issue> {
        let mut sm = Sm::new(cfg);
        let mut global = DeviceMemory::new();
        let mut sys = tiny_sys();
        let spec = spec(kernel, LaunchConfig::new(1u32, 256u32), vec![]);
        sm.launch_cta(&spec, Dim3::new(0, 0, 0), 0);
        let mut tr = RingTracer::with_capacity(1 << 16);
        run_traced(&mut sm, &mut global, &mut sys, &mut tr);
        let (mut until, mut retired, mut last) = ([0u64; 8], [false; 8], [None; 4]);
        let mut issues = Vec::new();
        for e in tr.snapshot().iter() {
            match e.kind {
                EventKind::WarpIssue { sub_core, warp, .. } => {
                    let (sub_core, warp) = (sub_core as usize, warp as usize);
                    let ready = (sub_core..8)
                        .step_by(4)
                        .filter(|&w| !retired[w] && until[w] <= e.cycle)
                        .collect();
                    issues.push(Issue {
                        sub_core,
                        warp,
                        prev: last[sub_core],
                        ready,
                    });
                    last[sub_core] = Some(warp);
                }
                EventKind::Stall { warp, until: u, .. } => until[warp as usize] = u,
                EventKind::WarpRetire { warp, .. } => retired[warp as usize] = true,
                _ => {}
            }
        }
        issues
    }

    #[test]
    fn gto_prefers_last_issued_warp() {
        // Every warp runs a dependent `iadd` chain with two independent
        // moves between its links, so it blocks on its own chain while
        // the other warp of its sub-core could issue.
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(0));
        for _ in 0..4 {
            b.iadd(r, r, Operand::Imm(1));
            for _ in 0..2 {
                let q = b.reg();
                b.mov(q, Operand::Imm(1));
            }
        }
        b.exit();
        let issues = issue_order(SmConfig::volta(), b.build());
        assert_eq!(issues.len(), 8 * 14);
        let mut handovers = 0;
        for i in &issues {
            if let Some(p) = i.prev.filter(|&p| p != i.warp) {
                assert!(
                    !i.ready.contains(&p),
                    "sub-core {}: warp {p} lost the slot to warp {} while it could issue",
                    i.sub_core,
                    i.warp
                );
                handovers += 1;
            }
        }
        assert!(
            issues
                .iter()
                .any(|i| i.prev == Some(i.warp) && i.ready.len() > 1),
            "a warp keeps the slot although the other one is ready"
        );
        // More than the one handover per sub-core at a warp's exit: the
        // chains pass the slot back and forth.
        assert!(handovers > 4, "{handovers} handovers");
    }

    #[test]
    fn round_robin_rotates_among_ready_warps() {
        // Independent moves on a one-cycle integer pipe: no warp ever
        // stalls, so both warps of a sub-core are ready until they exit.
        let mut b = KernelBuilder::new("t");
        for _ in 0..12 {
            let q = b.reg();
            b.mov(q, Operand::Imm(1));
        }
        b.exit();
        let kernel = b.build();
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::Gto] {
            let cfg = SmConfig {
                scheduler: policy,
                int_lanes: 32,
                ..SmConfig::volta()
            };
            let issues = issue_order(cfg, kernel.clone());
            for sc in 0..4 {
                let order: Vec<usize> = issues
                    .iter()
                    .filter(|i| i.sub_core == sc)
                    .map(|i| i.warp)
                    .collect();
                // Round-robin alternates the two warps; GTO runs the older
                // one to its exit first.
                let want: Vec<usize> = match policy {
                    SchedPolicy::RoundRobin => [sc, sc + 4].repeat(13),
                    SchedPolicy::Gto => [[sc; 13], [sc + 4; 13]].concat(),
                };
                assert_eq!(order, want, "{policy:?}, sub-core {sc}");
            }
        }
    }
}
