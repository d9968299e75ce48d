#include "core/simt_core.hh"

#include <algorithm>
#include <bit>

#include "kernel/mem_pattern.hh"
#include "obs/mem_profile.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

SimtCore::SimtCore(const GpuConfig& config, std::uint32_t id)
    : config_(config),
      id_(id),
      name_("core" + std::to_string(id)),
      warps_(config.maxWarpsPerCore()),
      ctas_(config.maxCtasPerCore),
      resources_(config),
      ldst_(config, id),
      warpWake_(config.maxWarpsPerCore(), 0),
      warpOp_(config.maxWarpsPerCore(), Opcode::Exit),
      warpKernel_(config.maxWarpsPerCore(), kInvalidId),
      freeWarpSlots_(config.maxWarpsPerCore()),
      slotStall_(config.numSchedulersPerCore)
{
    const std::size_t slots = config.numSchedulersPerCore;
    const std::size_t per_slot = (warps_.size() + slots - 1) / slots;
    maskWords_ = std::max<std::size_t>(1, (per_slot + 63) / 64);
    liveMask_.assign(slots * maskWords_, 0);
    barrierMask_.assign(slots * maskWords_, 0);
    clearMask_.assign(slots * kNumOpcodes * maskWords_, 0);
    for (std::uint32_t s = 0; s < config.numSchedulersPerCore; ++s) {
        schedulers_.push_back(WarpScheduler::create(
            config.warpSched, config.twoLevelActiveSize));
    }
}

bool
SimtCore::canAccept(const KernelInfo& kernel) const
{
    const CtaFootprint fp = ctaFootprint(kernel);
    if (!resources_.fits(fp))
        return false;
    // Need free warp *slots* too (one per warp).
    return freeWarpSlots_ >= fp.warps;
}

int
SimtCore::launchCta(Cycle now, const KernelInfo& kernel, int kernel_id,
                    std::uint32_t cta_id, std::uint64_t block_seq)
{
    // CTA slot accounting: the scheduler may only place a CTA when the
    // core has capacity (slots, threads, registers, shared memory and
    // free warp contexts) — a launch past capacity is a slot leak in the
    // dispatch policy. Contract first (throwable for injection tests),
    // panic as the Release backstop.
    BSCHED_CHECK(canAccept(kernel), name_,
                 ": CTA slot leak — launch without capacity (resident ",
                 residentCtas(), ")");
    if (!canAccept(kernel))
        panic(name_, ": launchCta without capacity");
    if (kernel_id < 0)
        panic(name_, ": launchCta with invalid kernel id ", kernel_id);
    const CtaFootprint fp = ctaFootprint(kernel);
    int slot = kInvalidId;
    for (std::size_t i = 0; i < ctas_.size(); ++i) {
        if (!ctas_[i].valid) {
            slot = static_cast<int>(i);
            break;
        }
    }
    if (slot == kInvalidId)
        panic(name_, ": no free HW CTA slot");

    HwCta& cta = ctas_[static_cast<std::size_t>(slot)];
    cta = HwCta{};
    cta.valid = true;
    cta.kernelId = kernel_id;
    cta.ctaId = cta_id;
    cta.ctaSeq = ctaSeqCounter_++;
    cta.blockSeq = block_seq;
    cta.warpsTotal = fp.warps;
    cta.footprint = fp;
    cta.kernel = &kernel;
    cta.launchCycle = now;
    resources_.allocate(fp);

    std::uint32_t placed = 0;
    for (std::size_t w = 0; w < warps_.size() && placed < fp.warps; ++w) {
        Warp& warp = warps_[w];
        if (warp.valid)
            continue;
        warp.clear();
        warp.valid = true;
        warp.hwCta = slot;
        warp.kernelId = kernel_id;
        warp.ctaId = cta_id;
        warp.warpInCta = placed;
        warp.ctaSeq = cta.ctaSeq;
        warp.blockSeq = block_seq;
        warp.kernel = &kernel;
        warp.cursor.init(kernel.program, cta_id);
        warp.sb.reset();
        warpKernel_[w] = kernel_id;
        for (std::size_t op = 0; op < kNumOpcodes; ++op)
            clearMask_[clearIndex(w, static_cast<Opcode>(op))] &=
                ~maskBit(w);
        barrierMask_[maskIndex(w)] &= ~maskBit(w);
        --freeWarpSlots_;
        if (warp.cursor.done(kernel.program)) {
            // Degenerate empty program: warp is born finished.
            warp.done = true;
            ++cta.warpsDone;
        } else {
            liveMask_[maskIndex(w)] |= maskBit(w);
            noteCurrentInstr(w);
        }
        ++placed;
    }
    if (placed != fp.warps)
        panic(name_, ": warp slot accounting mismatch");

    if (static_cast<std::size_t>(kernel_id) >= kernels_.size())
        kernels_.resize(static_cast<std::size_t>(kernel_id) + 1);
    KernelTrack& track = kernels_[static_cast<std::size_t>(kernel_id)];
    if (track.firstLaunch == kCycleNever)
        track.firstLaunch = now;
    ++ctasLaunched_;
    // CTA conservation on this core: every launched CTA is either
    // resident or has completed, and residency never exceeds the
    // hardware slot count.
    BSCHED_INVARIANT(ctasLaunched_ == ctasCompleted_ + residentCtas(),
                     name_, ": CTA launch/retire balance broken");
    BSCHED_INVARIANT(residentCtas() <= config_.maxCtasPerCore, name_,
                     ": resident CTAs exceed hardware slots");

    if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = now;
        event.kind = TraceEventKind::CtaDispatch;
        event.kernelId = kernel_id;
        event.arg0 = cta_id;
        tracer_->record(track_, event);
    }

    if (cta.warpsDone == cta.warpsTotal)
        completeCta(slot, now);
    return slot;
}

std::vector<CtaDoneEvent>
SimtCore::drainCompletedCtas()
{
    std::vector<CtaDoneEvent> out;
    out.swap(completed_);
    return out;
}

void
SimtCore::deliverResponse(Cycle now, const MemResponse& response)
{
    ldst_.onFill(now, response.lineAddr, response.reqId);
}

bool
SimtCore::idle() const
{
    return residentCtas() == 0 && ldst_.drained();
}

std::uint32_t
SimtCore::residentCtas(int kernel_id) const
{
    std::uint32_t count = 0;
    for (const HwCta& cta : ctas_) {
        if (cta.valid && cta.kernelId == kernel_id)
            ++count;
    }
    return count;
}

const SimtCore::KernelTrack*
SimtCore::findKernel(int kernel_id) const
{
    if (kernel_id < 0 ||
        static_cast<std::size_t>(kernel_id) >= kernels_.size())
        return nullptr;
    return &kernels_[static_cast<std::size_t>(kernel_id)];
}

std::uint64_t
SimtCore::instrsIssued(int kernel_id) const
{
    const KernelTrack* track = findKernel(kernel_id);
    return track == nullptr ? 0 : track->issued;
}

Cycle
SimtCore::kernelFirstLaunch(int kernel_id) const
{
    const KernelTrack* track = findKernel(kernel_id);
    return track == nullptr ? kCycleNever : track->firstLaunch;
}

std::vector<std::uint64_t>
SimtCore::ctaIssueCounts(int kernel_id) const
{
    std::vector<std::uint64_t> counts;
    if (const KernelTrack* track = findKernel(kernel_id))
        counts = track->completedCtaIssued;
    for (const HwCta& cta : ctas_) {
        if (cta.valid && cta.kernelId == kernel_id)
            counts.push_back(cta.issued);
    }
    return counts;
}

std::array<bool, SimtCore::kNumOpcodes>
SimtCore::structuralGate(Cycle now) const
{
    const bool port = memIssuedThisCycle_ < config_.ldstUnits;
    const bool smem = port && smemBusyUntil_ <= now;
    std::array<bool, kNumOpcodes> gate{};
    gate[static_cast<std::size_t>(Opcode::Alu)] = true;
    gate[static_cast<std::size_t>(Opcode::Sfu)] =
        sfuIssuedThisCycle_ < config_.sfuUnits;
    gate[static_cast<std::size_t>(Opcode::LdGlobal)] =
        port && ldst_.canAdmit(false);
    gate[static_cast<std::size_t>(Opcode::StGlobal)] =
        port && ldst_.canAdmit(true);
    gate[static_cast<std::size_t>(Opcode::LdShared)] = smem;
    gate[static_cast<std::size_t>(Opcode::StShared)] = smem;
    gate[static_cast<std::size_t>(Opcode::Bar)] = true;
    gate[static_cast<std::size_t>(Opcode::Exit)] = true;
    return gate;
}

std::size_t
SimtCore::maskIndex(std::size_t w) const
{
    const std::size_t slots = config_.numSchedulersPerCore;
    return (w % slots) * maskWords_ + (w / slots) / 64;
}

std::size_t
SimtCore::clearIndex(std::size_t w, Opcode op) const
{
    const std::size_t slots = config_.numSchedulersPerCore;
    return ((w % slots) * kNumOpcodes + static_cast<std::size_t>(op)) *
        maskWords_ + (w / slots) / 64;
}

std::uint64_t
SimtCore::maskBit(std::size_t w) const
{
    return 1ULL << ((w / config_.numSchedulersPerCore) % 64);
}

std::size_t
SimtCore::warpAt(std::size_t index, std::uint64_t bits) const
{
    const std::size_t slot = index / maskWords_;
    const std::size_t word = index % maskWords_;
    return slot + (word * 64 + static_cast<std::size_t>(
                                   std::countr_zero(bits))) *
        config_.numSchedulersPerCore;
}

void
SimtCore::noteCurrentInstr(std::size_t w)
{
    const Warp& warp = warps_[w];
    const Instr& instr = warp.cursor.instr(warp.kernel->program);
    warpWake_[w] = warp.sb.nextReadyCycle(instr);
    warpOp_[w] = instr.op;
}

void
SimtCore::issueFrom(int warp_id, Cycle now)
{
    Warp& warp = warps_[static_cast<std::size_t>(warp_id)];
    const WarpProgram& prog = warp.kernel->program;
    const Instr& instr = warp.cursor.instr(prog);

    switch (instr.op) {
      case Opcode::Alu:
        warp.sb.setPending(instr.dst, now + config_.aluLatency);
        ++issuedAlu_;
        break;
      case Opcode::Sfu:
        warp.sb.setPending(instr.dst, now + config_.sfuLatency);
        ++sfuIssuedThisCycle_;
        ++issuedSfu_;
        break;
      case Opcode::LdGlobal: {
        auto lines = coalesce(prog.pattern(instr.patternId),
                              warp.kernel->geom(), warp.ctaId,
                              warp.warpInCta, warp.cursor.iterKey(),
                              instr.activeLanes, config_.l1d.lineBytes);
        warp.sb.setPendingUntilRelease(instr.dst);
        ldst_.pushBatch(now, warp_id, instr.dst, false, std::move(lines),
                        warp.kernelId,
                        makeCtaKey(warp.kernelId, warp.ctaId));
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::StGlobal: {
        auto lines = coalesce(prog.pattern(instr.patternId),
                              warp.kernel->geom(), warp.ctaId,
                              warp.warpInCta, warp.cursor.iterKey(),
                              instr.activeLanes, config_.l1d.lineBytes);
        ldst_.pushBatch(now, warp_id, kNoReg, true, std::move(lines),
                        warp.kernelId,
                        makeCtaKey(warp.kernelId, warp.ctaId));
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::LdShared: {
        const std::uint32_t factor = sharedConflictFactor(
            prog.pattern(instr.patternId), instr.activeLanes);
        warp.sb.setPending(instr.dst,
                           now + config_.smemLatency + factor - 1);
        smemBusyUntil_ = now + factor;
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::StShared: {
        const std::uint32_t factor = sharedConflictFactor(
            prog.pattern(instr.patternId), instr.activeLanes);
        smemBusyUntil_ = now + factor;
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::Bar:
        warp.atBarrier = true;
        ++issuedBar_;
        break;
      case Opcode::Exit:
        break;
    }

    ++warp.instrsIssued;
    ++issuedTotal_;
    HwCta& cta = ctas_[static_cast<std::size_t>(warp.hwCta)];
    ++cta.issued;
    ++kernels_[static_cast<std::size_t>(warp.kernelId)].issued;

    // Issuing ends the warp's scoreboard-clear run (its next
    // instruction is re-checked once its wake time passes).
    const auto w = static_cast<std::size_t>(warp_id);
    clearMask_[clearIndex(w, instr.op)] &= ~maskBit(w);
    const bool was_barrier = instr.op == Opcode::Bar;
    warp.cursor.advance(prog, warp.ctaId);
    if (warp.cursor.done(prog)) {
        finishWarp(warp_id, now);
        return;
    }
    noteCurrentInstr(w);
    if (was_barrier) {
        barrierMask_[maskIndex(w)] |= maskBit(w);
        checkBarrier(warp.hwCta);
    }
}

void
SimtCore::finishWarp(int warp_id, Cycle now)
{
    Warp& warp = warps_[static_cast<std::size_t>(warp_id)];
    warp.done = true;
    liveMask_[maskIndex(static_cast<std::size_t>(warp_id))] &=
        ~maskBit(static_cast<std::size_t>(warp_id));
    HwCta& cta = ctas_[static_cast<std::size_t>(warp.hwCta)];
    ++cta.warpsDone;
    if (cta.warpsDone == cta.warpsTotal)
        completeCta(warp.hwCta, now);
    else
        checkBarrier(warp.hwCta); // a finished warp may unblock a barrier
}

void
SimtCore::completeCta(int hw_cta, Cycle now)
{
    HwCta& cta = ctas_[static_cast<std::size_t>(hw_cta)];
    if (!cta.valid)
        panic(name_, ": completing invalid CTA slot");

    for (Warp& warp : warps_) {
        if (warp.valid && warp.hwCta == hw_cta) {
            warp.clear();
            ++freeWarpSlots_;
        }
    }
    // If this was the block's last resident CTA, let the warp schedulers
    // drop their per-block state (keeps BAWS's rotation map bounded by
    // the number of *live* blocks instead of every block ever seen).
    bool block_live = false;
    for (const HwCta& peer : ctas_) {
        if (peer.valid && &peer != &cta && peer.blockSeq == cta.blockSeq) {
            block_live = true;
            break;
        }
    }
    if (!block_live) {
        for (auto& sched : schedulers_)
            sched->notifyBlockRetired(cta.blockSeq);
    }
    resources_.release(cta.footprint);
    kernels_[static_cast<std::size_t>(cta.kernelId)]
        .completedCtaIssued.push_back(cta.issued);
    completed_.push_back(
        {id_, cta.kernelId, cta.ctaId, cta.issued, now, cta.kernel});
    ++ctasCompleted_;

    if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = now;
        event.duration = now - cta.launchCycle;
        event.kind = TraceEventKind::CtaComplete;
        event.kernelId = cta.kernelId;
        event.arg0 = cta.ctaId;
        event.arg1 = static_cast<std::int64_t>(cta.issued);
        tracer_->record(track_, event);
    }
    cta.valid = false;
    BSCHED_INVARIANT(ctasLaunched_ == ctasCompleted_ + residentCtas(),
                     name_, ": CTA launch/retire balance broken");
}

void
SimtCore::setTracer(Tracer* tracer)
{
    tracer_ = tracer;
    track_ = tracer != nullptr ? tracer->coreTrack(id_) : 0;
    ldst_.setTracer(tracer, track_);
}

void
SimtCore::checkBarrier(int hw_cta)
{
    std::uint32_t live = 0;
    std::uint32_t arrived = 0;
    for (const Warp& warp : warps_) {
        if (!warp.valid || warp.hwCta != hw_cta || warp.done)
            continue;
        ++live;
        if (warp.atBarrier)
            ++arrived;
    }
    if (live > 0 && arrived == live) {
        for (std::size_t w = 0; w < warps_.size(); ++w) {
            Warp& warp = warps_[w];
            if (warp.valid && warp.hwCta == hw_cta) {
                warp.atBarrier = false;
                barrierMask_[maskIndex(w)] &= ~maskBit(w);
            }
        }
    }
}

bool
SimtCore::applyCompletions(Cycle now)
{
    bool applied = false;
    for (const LoadCompletion& done : ldst_.drainCompletions()) {
        Warp& warp = warps_[static_cast<std::size_t>(done.warpId)];
        // The warp slot may have been recycled only if its CTA finished,
        // which is impossible with a load in flight.
        warp.sb.release(done.reg, now);
        if (warp.live())
            noteCurrentInstr(static_cast<std::size_t>(done.warpId));
        applied = true;
    }
    return applied;
}

bool
SimtCore::tick(Cycle now)
{
    bool did_work = applyCompletions(now);
    did_work |= ldst_.tick(now);
    did_work |= applyCompletions(now);

    memIssuedThisCycle_ = 0;
    sfuIssuedThisCycle_ = 0;

    if (residentCtas() > 0)
        ++activeCycles_;
    else
        return did_work;

    bool issued_any = false;
    std::uint32_t issuedThisCycle = 0;
    const bool profiling = profiler_ != nullptr;
    const std::size_t slots = schedulers_.size();
    const std::size_t words = maskWords_;
    std::vector<int>& ready = readyScratch_;
    for (std::size_t s = 0; s < slots; ++s) {
        ready.clear();
        // The ports only change when a slot issues, so one gate serves
        // every warp of this slot; it is derived once a clear warp needs
        // it.
        std::array<bool, kNumOpcodes> gate{};
        bool gated = false;
        // Stall classification is fused into the issue scan: with the
        // profiler attached, the lowest warp of each category (the
        // scan's first-seen order) is kept while the words are walked.
        int barrier_kernel = kInvalidId;
        int mem_kernel = kInvalidId;
        int sb_kernel = kInvalidId;
        int pipe_kernel = kInvalidId;
        // The warp of the lowest set bit in word k of this slot's masks.
        const auto lowest = [&](std::size_t k, std::uint64_t bits) {
            return warpAt(s * words + k, bits);
        };
        const auto first = [&](int& kernel, std::uint64_t bits,
                               std::size_t k) {
            if (kernel == kInvalidId && bits != 0)
                kernel = warpKernel_[lowest(k, bits)];
        };
        for (std::size_t k = 0; k < words; ++k) {
            std::uint64_t* clear = &clearMask_[s * kNumOpcodes * words + k];
            const std::uint64_t live = liveMask_[s * words + k];
            const std::uint64_t barrier = barrierMask_[s * words + k];
            std::uint64_t any_clear = 0;
            for (std::size_t op = 0; op < kNumOpcodes; ++op)
                any_clear |= clear[op * words];
            // Live warps off the barrier that are not yet known clear:
            // the only ones whose wake time the scan reads.
            std::uint64_t on_load = 0; // awaiting a load release
            std::uint64_t on_pipe = 0; // awaiting a fixed-latency result
            for (std::uint64_t m = live & ~barrier & ~any_clear; m != 0;
                 m &= m - 1) {
                const std::uint64_t bit = m & (~m + 1);
                const std::size_t w = lowest(k, m);
                const Cycle wake = warpWake_[w];
                BSCHED_CHECK(
                    (wake <= now) ==
                        warps_[w].sb.canIssue(
                            warps_[w].cursor.instr(
                                warps_[w].kernel->program),
                            now),
                    name_, ": stale warp wake cache for warp ", w,
                    " (cached ", wake, " at cycle ", now, ")");
                if (wake <= now) {
                    clear[static_cast<std::size_t>(warpOp_[w]) * words] |= bit;
                    any_clear |= bit;
                } else if (wake == kCycleNever) {
                    on_load |= bit;
                } else {
                    on_pipe |= bit;
                }
            }
#if BSCHED_CHECKS_ENABLED
            for (std::size_t op = 0; op < kNumOpcodes; ++op) {
                for (std::uint64_t m = clear[op * words]; m != 0;
                     m &= m - 1) {
                    const std::size_t w = lowest(k, m);
                    const Warp& warp = warps_[w];
                    BSCHED_CHECK(
                        warp.live() && !warp.atBarrier &&
                            static_cast<std::size_t>(
                                warp.cursor.instr(warp.kernel->program).op) ==
                                op &&
                            warp.sb.canIssue(
                                warp.cursor.instr(warp.kernel->program),
                                now),
                        name_, ": stale readiness mask for warp ", w,
                        " (opcode ", op, ") at cycle ", now);
                }
            }
#endif
            // The refusal kind follows from the opcode alone: only
            // memory ops (LD/ST port, LD/ST queue, MSHRs, shared memory)
            // and the SFU port can refuse a scoreboard-clear warp.
            std::uint64_t ready_bits = 0;
            std::uint64_t mem_refused = 0;
            if (any_clear != 0) {
                if (!gated) {
                    gate = structuralGate(now);
                    gated = true;
                }
                for (std::size_t op = 0; op < kNumOpcodes; ++op) {
                    const std::uint64_t bits = clear[op * words];
                    if (gate[op])
                        ready_bits |= bits;
                    else if (op == static_cast<std::size_t>(Opcode::Sfu))
                        on_pipe |= bits;
                    else
                        mem_refused |= bits;
                }
            }
            for (std::uint64_t m = ready_bits; m != 0; m &= m - 1)
                ready.push_back(static_cast<int>(lowest(k, m)));
            if (profiling) {
                first(barrier_kernel, barrier, k);
                first(mem_kernel, mem_refused, k);
                first(sb_kernel, on_load, k);
                first(pipe_kernel, on_pipe, k);
            }
        }
        if (ready.empty()) {
            if (profiling) {
                // Exclusive priority mem_structural > scoreboard >
                // pipeline > barrier: the category closest to an
                // actionable resource bottleneck wins the slot. A slot
                // with no live warp at all is `empty`.
                int kernel = kInvalidId;
                SlotCat cat = SlotCat::Empty;
                if (mem_kernel != kInvalidId) {
                    kernel = mem_kernel;
                    cat = SlotCat::MemStructural;
                } else if (sb_kernel != kInvalidId) {
                    kernel = sb_kernel;
                    cat = SlotCat::Scoreboard;
                } else if (pipe_kernel != kInvalidId) {
                    kernel = pipe_kernel;
                    cat = SlotCat::Pipeline;
                } else if (barrier_kernel != kInvalidId) {
                    kernel = barrier_kernel;
                    cat = SlotCat::Barrier;
                }
                slotStall_[s] = {kernel, cat};
                profiler_->recordSlot(id_, kernel, cat);
            }
            continue;
        }
        const int chosen = schedulers_[s]->pick(ready, warps_);
        if (chosen < 0)
            panic(name_, ": scheduler returned no warp from ready set");
        // Notify before issuing: issueFrom can retire the warp's CTA and
        // recycle the slot, after which its metadata is gone.
        schedulers_[s]->notifyIssued(chosen, warps_);
        if (profiler_ != nullptr) {
            // Attribute before issueFrom for the same recycling reason.
            profiler_->recordSlot(
                id_, warps_[static_cast<std::size_t>(chosen)].kernelId,
                SlotCat::Issued);
        }
        issueFrom(chosen, now);
        issued_any = true;
        ++issuedThisCycle;
    }
    // Issue-bandwidth conservation: one instruction per scheduler slot
    // per cycle, and the structural units never exceed their budgets.
    BSCHED_INVARIANT(issuedThisCycle <= schedulers_.size(), name_,
                     ": issued ", issuedThisCycle, " instructions with ",
                     schedulers_.size(), " scheduler slots");
    BSCHED_INVARIANT(memIssuedThisCycle_ <= config_.ldstUnits, name_,
                     ": memory issues exceed LD/ST ports");
    BSCHED_INVARIANT(sfuIssuedThisCycle_ <= config_.sfuUnits, name_,
                     ": SFU issues exceed SFU ports");
    if (issued_any) {
        ++issueCycles_;
    } else if (!ldst_.drained()) {
        ++stallMemCycles_;
    } else {
        ++stallIdleCycles_;
    }
    if (profiler_ != nullptr && !issued_any) {
        profiler_->recordNoIssueCycle(id_);
        slotStallCycle_ = now;
    }
    return did_work || issued_any;
}

Cycle
SimtCore::nextWorkCycle(Cycle now) const
{
    Cycle next = ldst_.nextEventCycle(now);
    if (residentCtas() == 0)
        return next;
    for (std::size_t i = 0; i < liveMask_.size(); ++i) {
        for (std::uint64_t m = liveMask_[i] & ~barrierMask_[i]; m != 0;
             m &= m - 1) {
            const std::size_t w = warpAt(i, m);
            Cycle wake = warpWake_[w];
            switch (warpOp_[w]) {
              case Opcode::LdShared:
              case Opcode::StShared:
                wake = std::max(wake, smemBusyUntil_);
                break;
              case Opcode::LdGlobal:
              case Opcode::StGlobal:
                if (wake < now) {
                    // Scoreboard-clear at the quiet cycle (`now` - 1) yet
                    // not issued, so it was structurally refused then.
                    // Queue/outgoing refusals pin the LD/ST unit's
                    // nextEventCycle at `now` already; an MSHR-full
                    // refusal clears only on a fill, an external event
                    // the GPU's memory-side estimates bound. A warp with
                    // wake == now carries no such evidence — its
                    // scoreboard clears only this cycle and it may issue
                    // right here, so it must pin the estimate (the max()
                    // below yields `now`).
                    continue;
                }
                break;
              default:
                break;
            }
            if (wake == kCycleNever)
                continue; // wakes on a load fill (event, not time)
            next = std::min(next, std::max(wake, now));
        }
    }
    return next;
}

void
SimtCore::accountQuietSpan(Cycle now, std::uint64_t n, MemProfiler* memprof)
{
    if (n == 0)
        return;
    // The LD/ST unit samples its MSHR occupancy every cycle, resident
    // CTAs or not; occupancy is constant across a quiet span.
    if (memprof != nullptr) {
        memprof->recordMshrOccupancySpan(MemLevel::L1,
                                         ldst_.mshr().entriesInUse(), n);
    }
    if (residentCtas() == 0)
        return;
    activeCycles_ += n;
    if (!ldst_.drained())
        stallMemCycles_ += n;
    else
        stallIdleCycles_ += n;
    if (profiler_ != nullptr) {
        // Replay the issue scan's classification of the quiet cycle
        // `now - 1`. The span ends at or before every warp wake, shared-
        // memory release and LD/ST event, so every elided cycle sees
        // the same scoreboard, port and MSHR state that cycle saw.
        BSCHED_CHECK(slotStallCycle_ + 1 == now, name_,
                     ": quiet span from cycle ", now,
                     " would replay a stall classification stored at "
                     "cycle ", slotStallCycle_);
        for (const auto& [kernel, cat] : slotStall_)
            profiler_->recordSlotSpan(id_, kernel, cat, n);
        profiler_->recordNoIssueSpan(id_, n);
    }
}

void
SimtCore::addStats(StatSet& stats) const
{
    ldst_.addStats(stats);
    stats.add(name_ + ".issued", static_cast<double>(issuedTotal_));
    stats.add(name_ + ".issued_alu", static_cast<double>(issuedAlu_));
    stats.add(name_ + ".issued_sfu", static_cast<double>(issuedSfu_));
    stats.add(name_ + ".issued_mem", static_cast<double>(issuedMem_));
    stats.add(name_ + ".issued_bar", static_cast<double>(issuedBar_));
    stats.add(name_ + ".active_cycles", static_cast<double>(activeCycles_));
    stats.add(name_ + ".issue_cycles", static_cast<double>(issueCycles_));
    stats.add(name_ + ".stall_mem", static_cast<double>(stallMemCycles_));
    stats.add(name_ + ".stall_idle", static_cast<double>(stallIdleCycles_));
    stats.add(name_ + ".ctas_launched", static_cast<double>(ctasLaunched_));
    stats.add(name_ + ".ctas_done", static_cast<double>(ctasCompleted_));
}

} // namespace bsched
