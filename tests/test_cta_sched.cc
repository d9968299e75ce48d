/**
 * @file
 * Unit tests for the baseline round-robin CTA scheduler and the shared
 * scheduler plumbing (core ranges, static caps, dispatch accounting).
 */

#include <gtest/gtest.h>

#include "cta/cta_sched.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg(std::uint32_t cores = 4)
{
    GpuConfig c = GpuConfig::gtx480();
    c.numCores = cores;
    return c;
}

KernelInfo
kernel(std::uint32_t grid, std::uint32_t threads = 256)
{
    KernelInfo k;
    k.name = "k";
    k.grid = {grid, 1, 1};
    k.cta = {threads, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(100).alu(1).endLoop();
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

KernelInstance
instance(const GpuConfig& config, const KernelInfo& info, int id = 0)
{
    KernelInstance inst;
    inst.info = &info;
    inst.id = id;
    inst.maxCtas = maxCtasPerCore(config, info);
    return inst;
}

TEST(RrCtaScheduler, FillsCoresEvenlyToOccupancy)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);

    // 6 CTAs fit per core (thread-limited); 4 cores.
    for (Cycle t = 0; t < 20; ++t)
        sched.tick(t, kernels, cores);
    for (const auto& core : cores)
        EXPECT_EQ(core->residentCtas(), 6u);
    EXPECT_EQ(kernels[0].nextCta, 24u);
}

TEST(RrCtaScheduler, AtMostOneCtaPerCorePerCycle)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);
    sched.tick(0, kernels, cores);
    EXPECT_EQ(kernels[0].nextCta, 4u); // one per core
}

TEST(RrCtaScheduler, SpraysConsecutiveCtasAcrossCores)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);
    sched.tick(0, kernels, cores);
    // CTA 0 and CTA 1 landed on different cores.
    std::vector<std::uint32_t> first_cta(cores.size(), ~0u);
    for (std::size_t c = 0; c < cores.size(); ++c) {
        for (const Warp& w : cores[c]->warps()) {
            if (w.valid) {
                first_cta[c] = w.ctaId;
                break;
            }
        }
    }
    std::sort(first_cta.begin(), first_cta.end());
    EXPECT_EQ(first_cta, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(RrCtaScheduler, RespectsStaticCtaLimit)
{
    GpuConfig config = cfg();
    config.staticCtaLimit = 2;
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);
    for (Cycle t = 0; t < 20; ++t)
        sched.tick(t, kernels, cores);
    for (const auto& core : cores)
        EXPECT_EQ(core->residentCtas(), 2u);
}

TEST(RrCtaScheduler, RespectsCoreRange)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(100);
    KernelInstance inst = instance(config, k);
    inst.coreBegin = 1;
    inst.coreEnd = 3;
    std::vector<KernelInstance> kernels = {inst};
    RoundRobinCtaScheduler sched(config);
    for (Cycle t = 0; t < 20; ++t)
        sched.tick(t, kernels, cores);
    EXPECT_EQ(cores[0]->residentCtas(), 0u);
    EXPECT_GT(cores[1]->residentCtas(), 0u);
    EXPECT_GT(cores[2]->residentCtas(), 0u);
    EXPECT_EQ(cores[3]->residentCtas(), 0u);
}

TEST(RrCtaScheduler, PriorityOrdersKernels)
{
    const GpuConfig config = cfg(1);
    auto cores = makeCores(config);
    const KernelInfo a = kernel(100);
    const KernelInfo b = kernel(100);
    KernelInstance ia = instance(config, a, 0);
    ia.priority = 1;
    KernelInstance ib = instance(config, b, 1);
    ib.priority = 0;
    std::vector<KernelInstance> kernels = {ia, ib};
    RoundRobinCtaScheduler sched(config);
    for (Cycle t = 0; t < 20; ++t)
        sched.tick(t, kernels, cores);
    // Kernel 1 (higher priority) got all the slots.
    EXPECT_EQ(cores[0]->residentCtas(1), 6u);
    EXPECT_EQ(cores[0]->residentCtas(0), 0u);
}

TEST(RrCtaScheduler, StopsWhenGridExhausted)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(3);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    EXPECT_TRUE(kernels[0].dispatchDone());
    std::uint32_t resident = 0;
    for (const auto& core : cores)
        resident += core->residentCtas();
    EXPECT_EQ(resident, 3u);
}

TEST(CtaScheduler, FactoryCreatesConfiguredPolicy)
{
    GpuConfig config = cfg();
    config.ctaSched = CtaSchedKind::RoundRobin;
    EXPECT_STREQ(CtaScheduler::create(config)->name(), "rr");
    config.ctaSched = CtaSchedKind::Lazy;
    EXPECT_STREQ(CtaScheduler::create(config)->name(), "lcs");
    config.ctaSched = CtaSchedKind::Block;
    EXPECT_STREQ(CtaScheduler::create(config)->name(), "bcs");
    config.ctaSched = CtaSchedKind::LazyBlock;
    EXPECT_STREQ(CtaScheduler::create(config)->name(), "lcs+bcs");
}

TEST(CtaScheduler, DispatchStatExported)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = kernel(5);
    std::vector<KernelInstance> kernels = {instance(config, k)};
    RoundRobinCtaScheduler sched(config);
    for (Cycle t = 0; t < 10; ++t)
        sched.tick(t, kernels, cores);
    StatSet stats;
    sched.addStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("ctasched.dispatches"), 5.0);
}

} // namespace
} // namespace bsched
