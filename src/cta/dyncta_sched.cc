#include "cta/dyncta_sched.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

DynctaScheduler::DynctaScheduler(const GpuConfig& config)
    : CtaScheduler(config), state_(config.numCores)
{
    // Start mid-range, as the original controller does, and search from
    // there.
    const std::uint32_t start =
        std::max<std::uint32_t>(1, config.maxCtasPerCore / 2);
    for (CoreState& cs : state_) {
        cs.target = start;
        cs.nextSample = config.dyncta.samplePeriod;
    }
}

std::uint32_t
DynctaScheduler::target(std::uint32_t core) const
{
    BSCHED_CHECK(core < state_.size(),
                 "dyncta: target() for core ", core, " of ",
                 state_.size());
    return state_.at(core).target;
}

void
DynctaScheduler::sample(Cycle now, std::uint32_t core_id,
                        const SimtCore& core)
{
    CoreState& cs = state_[core_id];
    const std::uint64_t mem = core.memStallCycles() - cs.lastMemStall;
    const std::uint64_t idle = core.idleStallCycles() - cs.lastIdleStall;
    cs.lastMemStall = core.memStallCycles();
    cs.lastIdleStall = core.idleStallCycles();
    cs.nextSample = now + config_.dyncta.samplePeriod;

    const double period =
        static_cast<double>(config_.dyncta.samplePeriod);
    const double mem_frac = 100.0 * static_cast<double>(mem) / period;
    const double idle_frac = 100.0 * static_cast<double>(idle) / period;

    int delta = 0;
    if (mem_frac > config_.dyncta.memHighPct) {
        if (cs.target > 1) {
            --cs.target;
            ++cs.decreases;
            delta = -1;
        }
    } else if (mem_frac < config_.dyncta.memLowPct &&
               idle_frac > config_.dyncta.idleHighPct) {
        if (cs.target < config_.maxCtasPerCore) {
            ++cs.target;
            ++cs.increases;
            delta = 1;
        }
    }

    if (tracer_ != nullptr && delta != 0) {
        TraceEvent event;
        event.cycle = now;
        event.kind = TraceEventKind::DynctaAdjust;
        event.arg0 = cs.target;
        event.arg1 = delta;
        tracer_->record(tracer_->coreTrack(core_id), event);
    }
}

void
DynctaScheduler::tick(Cycle now, std::vector<KernelInstance>& kernels,
                      CoreList& cores)
{
    for (std::uint32_t c = 0; c < cores.size(); ++c) {
        if (now >= state_[c].nextSample)
            sample(now, c, *cores[c]);
    }

    std::vector<KernelInstance*>& order = dispatchOrder(kernels,
                                                        cores.size());
    if (order.empty())
        return;

    for (KernelInstance* kernel : order) {
        for (std::uint32_t c = 0;
             c < cores.size() && !kernel->dispatchDone(); ++c) {
            SimtCore& core = *cores[c];
            if (usedScratch_[c] != 0 || !coreAllowed(*kernel, c))
                continue;
            const std::uint32_t cap =
                std::min(state_[c].target, staticCap(*kernel));
            if (core.residentCtas(kernel->id) >= cap)
                continue;
            if (!core.canAccept(*kernel->info))
                continue;
            dispatch(now, *kernel, core, blockSeqCounter_++);
            usedScratch_[c] = 1;
        }
    }
}

Cycle
DynctaScheduler::nextEventCycle(Cycle now,
                                const std::vector<KernelInstance>& kernels,
                                const CoreList& cores) const
{
    (void)kernels;
    (void)cores;
    Cycle next = kCycleNever;
    for (const CoreState& cs : state_)
        next = std::min(next, std::max(cs.nextSample, now));
    return next;
}

void
DynctaScheduler::addStats(StatSet& stats) const
{
    CtaScheduler::addStats(stats);
    for (std::size_t c = 0; c < state_.size(); ++c) {
        const std::string prefix = "dyncta.core" + std::to_string(c);
        stats.set(prefix + ".target",
                  static_cast<double>(state_[c].target));
        stats.set(prefix + ".inc", static_cast<double>(state_[c].increases));
        stats.set(prefix + ".dec", static_cast<double>(state_[c].decreases));
    }
}

} // namespace bsched
