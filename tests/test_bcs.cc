/**
 * @file
 * Unit tests for BCS (block CTA scheduling) and the LCS+BCS combination.
 */

#include <gtest/gtest.h>

#include <map>

#include "cta/block_cta_sched.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg(std::uint32_t cores = 2, std::uint32_t block = 2)
{
    GpuConfig c = GpuConfig::gtx480();
    c.numCores = cores;
    c.ctaSched = CtaSchedKind::Block;
    c.bcs.blockSize = block;
    return c;
}

KernelInfo
kernel(std::uint32_t grid, std::uint32_t trips = 50)
{
    KernelInfo k;
    k.name = "k";
    k.grid = {grid, 1, 1};
    k.cta = {256, 1, 1}; // 6 per core
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(trips).alu(1).endLoop();
    k.program = b.build();
    return k;
}

CoreList
makeCores(const GpuConfig& config)
{
    CoreList cores;
    for (std::uint32_t c = 0; c < config.numCores; ++c)
        cores.push_back(std::make_unique<SimtCore>(config, c));
    return cores;
}

std::vector<KernelInstance>
instances(const GpuConfig& config, const KernelInfo& k)
{
    KernelInstance inst;
    inst.info = &k;
    inst.id = 0;
    inst.maxCtas = maxCtasPerCore(config, k);
    return {inst};
}

/** Map each resident CTA id to (core, blockSeq). */
std::map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>>
residency(const CoreList& cores)
{
    std::map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>> map;
    for (std::uint32_t c = 0; c < cores.size(); ++c) {
        for (const Warp& w : cores[c]->warps()) {
            if (w.valid)
                map[w.ctaId] = {c, w.blockSeq};
        }
    }
    return map;
}

TEST(Bcs, ConsecutiveCtasLandOnTheSameCore)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    auto kernels = instances(config, k);
    BlockCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    const auto where = residency(cores);
    // Every even CTA shares core and blockSeq with its successor.
    for (const auto& [cta, loc] : where) {
        if (cta % 2 == 0 && where.count(cta + 1)) {
            EXPECT_EQ(loc.first, where.at(cta + 1).first)
                << "cta " << cta;
            EXPECT_EQ(loc.second, where.at(cta + 1).second)
                << "cta " << cta;
        }
    }
}

TEST(Bcs, DistinctBlocksGetDistinctSeqs)
{
    const GpuConfig config = cfg(1);
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    auto kernels = instances(config, k);
    BlockCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    const auto where = residency(cores);
    EXPECT_NE(where.at(0).second, where.at(2).second);
}

TEST(Bcs, WaitsForFullBlockWorthOfSpace)
{
    // Occupancy is 6; after the initial 3 blocks fill a core, one CTA
    // finishing leaves 1 free slot: no dispatch until 2 are free.
    const GpuConfig config = cfg(1);
    auto cores = makeCores(config);
    // CTA 0 finishes earlier than the rest (trip jitter not used;
    // instead use a tiny grid so we can control completions).
    const KernelInfo k = kernel(100);
    auto kernels = instances(config, k);
    BlockCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    EXPECT_EQ(cores[0]->residentCtas(), 6u);
    EXPECT_EQ(kernels[0].nextCta, 6u);
    // Simulate: no space -> no dispatch even over many ticks.
    for (Cycle t = 10; t < 20; ++t)
        sched.tick(t, kernels, cores);
    EXPECT_EQ(kernels[0].nextCta, 6u);
}

TEST(Bcs, TailSmallerThanBlockStillDispatches)
{
    const GpuConfig config = cfg(1);
    auto cores = makeCores(config);
    const KernelInfo k = kernel(3); // one pair + one tail CTA
    auto kernels = instances(config, k);
    BlockCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    EXPECT_TRUE(kernels[0].dispatchDone());
    EXPECT_EQ(cores[0]->residentCtas(), 3u);
}

TEST(Bcs, BlockSize4GroupsFourCtas)
{
    const GpuConfig config = cfg(1, 4);
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    auto kernels = instances(config, k);
    BlockCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    const auto where = residency(cores);
    EXPECT_EQ(where.at(0).second, where.at(3).second);
    // 6 slots, blocks of 4: only one block fits (4 resident); CTA 4
    // must wait for a full block's worth of space.
    EXPECT_EQ(cores[0]->residentCtas(), 4u);
    EXPECT_EQ(where.count(4), 0u);
}

TEST(LazyBlock, CombinesPairingWithLcsLimit)
{
    GpuConfig config = cfg(1);
    config.ctaSched = CtaSchedKind::LazyBlock;
    auto cores = makeCores(config);
    const KernelInfo k = kernel(200, 400);
    auto kernels = instances(config, k);
    LazyBlockCtaScheduler sched(config);
    Cycle t = 0;
    // Drive cores + scheduler until the first CTA completes.
    while (kernels[0].ctasDone == 0 && t < 1000000) {
        for (auto& core : cores) {
            core->tick(t);
            for (const CtaDoneEvent& ev : core->drainCompletedCtas()) {
                ++kernels[0].ctasDone;
                sched.notifyCtaDone(t, ev, cores);
            }
        }
        sched.tick(t, kernels, cores);
        ++t;
    }
    ASSERT_GT(kernels[0].ctasDone, 0u);
    // Pairing still holds for resident CTAs.
    const auto where = residency(cores);
    for (const auto& [cta, loc] : where) {
        if (cta % 2 == 0 && where.count(cta + 1)) {
            EXPECT_EQ(loc.second, where.at(cta + 1).second);
        }
    }
}

TEST(LazyBlock, ReportsCombinedName)
{
    const GpuConfig config = cfg();
    LazyBlockCtaScheduler sched(config);
    EXPECT_STREQ(sched.name(), "lcs+bcs");
}

} // namespace
} // namespace bsched
