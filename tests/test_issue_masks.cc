/**
 * @file
 * The issue scan's per-slot readiness masks span several 64-bit words
 * when one scheduler slot owns more than 64 warps (one slot, 128 warps
 * per core here — a configuration GpuConfig::validate accepts). The
 * cycle count, issued totals, legacy stall counters and profiler slot
 * categories are pinned to the values the per-warp scan produced before
 * the masks existed, for every warp scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "harness/runner.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"
#include "obs/observer.hh"
#include "obs/profile.hh"

namespace bsched {
namespace {

/** Two cores of one scheduler slot and 128 warp contexts each. */
GpuConfig
wideSlotConfig(WarpSchedKind warp_sched)
{
    GpuConfig config = makeConfig(warp_sched, CtaSchedKind::RoundRobin);
    config.numCores = 2;
    config.numMemPartitions = 2;
    config.numSchedulersPerCore = 1;
    config.maxThreadsPerCore = 4096;
    config.validate();
    return config;
}

/** 16-warp CTAs, 8 per core: all 128 warp contexts of a core fill, and
 *  every issue-stage category occurs (loads, shared memory, SFU, ALU,
 *  barriers). */
KernelInfo
wideKernel()
{
    KernelInfo k;
    k.name = "wide";
    k.grid = {24, 1, 1};
    k.cta = {512, 1, 1};
    k.regsPerThread = 8;
    k.smemBytesPerCta = 1024;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    MemPattern sh;
    sh.kind = AccessKind::SharedBank;
    sh.space = MemSpace::Shared;
    sh.bankStride = 4;
    const auto i = b.pattern(in);
    const auto s = b.pattern(sh);
    b.loop(3)
        .load(i)
        .storeShared(s)
        .barrier()
        .loadShared(s)
        .sfu(2)
        .alu(2)
        .endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

struct Pinned
{
    WarpSchedKind sched;
    std::uint64_t cycles;
    std::uint64_t instrs;
    std::uint64_t stallMem;
    std::uint64_t stallIdle;
    /** Machine-wide slot counts, in SlotCat order. */
    std::array<std::uint64_t, kNumSlotCats> slots;
};

void
PrintTo(const Pinned& pin, std::ostream* os)
{
    *os << toString(pin.sched);
}

double
sumCores(const StatSet& stats, const GpuConfig& config,
         const std::string& suffix)
{
    double total = 0.0;
    for (std::uint32_t c = 0; c < config.numCores; ++c)
        total += stats.get("core" + std::to_string(c) + "." + suffix);
    return total;
}

class WideSlot : public ::testing::TestWithParam<Pinned>
{};

TEST_P(WideSlot, MultiWordMasksMatchPinnedCounts)
{
    const Pinned& pin = GetParam();
    const GpuConfig config = wideSlotConfig(pin.sched);
    const KernelInfo k = wideKernel();
    ASSERT_GT(maxCtasPerCore(config, k) * k.warpsPerCta(), 64u)
        << "one slot must own more than one mask word of live warps";

    CycleProfiler profiler;
    const RunResult result =
        runKernel(config, k, Observer{nullptr, nullptr, &profiler});

    EXPECT_EQ(result.cycles, pin.cycles);
    EXPECT_EQ(result.instrs, pin.instrs);
    EXPECT_EQ(sumCores(result.stats, config, "stall_mem"),
              static_cast<double>(pin.stallMem));
    EXPECT_EQ(sumCores(result.stats, config, "stall_idle"),
              static_cast<double>(pin.stallIdle));
    const SlotCounts total = profiler.total();
    for (std::size_t c = 0; c < kNumSlotCats; ++c) {
        EXPECT_EQ(total[static_cast<SlotCat>(c)], pin.slots[c])
            << "slot category " << toString(static_cast<SlotCat>(c));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWarpScheds, WideSlot,
    ::testing::Values(
        Pinned{WarpSchedKind::LRR, 10069, 9216, 10477, 79,
               {9216, 0, 1156, 9370, 30, 0}},
        Pinned{WarpSchedKind::GTO, 10120, 9216, 10805, 124,
               {9216, 0, 1122, 9771, 36, 0}},
        Pinned{WarpSchedKind::TwoLevel, 10396, 9216, 11428, 127,
               {9216, 0, 1385, 10132, 38, 0}},
        Pinned{WarpSchedKind::BAWS, 9587, 9216, 9412, 104,
               {9216, 0, 680, 8800, 36, 0}}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
        std::string name = toString(info.param.sched);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace bsched
