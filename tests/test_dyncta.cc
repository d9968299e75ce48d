/**
 * @file
 * Unit tests for the DYNCTA-style dynamic CTA controller.
 */

#include <gtest/gtest.h>

#include "cta/dyncta_sched.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::gtx480();
    c.numCores = 1;
    c.ctaSched = CtaSchedKind::Dynamic;
    c.dyncta.samplePeriod = 500;
    return c;
}

KernelInfo
computeKernel(std::uint32_t grid = 400)
{
    KernelInfo k;
    k.name = "compute";
    k.grid = {grid, 1, 1};
    // Tiny CTAs with long-latency SFU chains: at the controller's
    // starting target the core cannot fill its issue slots.
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(120).sfu(2).alu(1).endLoop();
    k.program = b.build();
    return k;
}

KernelInfo
memoryKernel(std::uint32_t grid = 400)
{
    KernelInfo k;
    k.name = "memory";
    k.grid = {grid, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern rnd;
    rnd.kind = AccessKind::Random;
    rnd.base = 0x40000000;
    rnd.footprintBytes = 8 * 1024 * 1024;
    const auto r = b.pattern(rnd);
    b.loop(40).diverge(4).load(r).converge().alu(1).endLoop();
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

void
run(Cycle cycles, DynctaScheduler& sched,
    std::vector<KernelInstance>& kernels, CoreList& cores)
{
    for (Cycle t = 0; t < cycles; ++t) {
        for (auto& core : cores) {
            core->tick(t);
            for (const CtaDoneEvent& ev : core->drainCompletedCtas()) {
                ++kernels[static_cast<std::size_t>(ev.kernelId)].ctasDone;
                sched.notifyCtaDone(t, ev, cores);
            }
        }
        sched.tick(t, kernels, cores);
    }
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

TEST(Dyncta, StartsAtHalfOccupancy)
{
    const GpuConfig config = cfg();
    DynctaScheduler sched(config);
    EXPECT_EQ(sched.target(0), config.maxCtasPerCore / 2);
}

TEST(Dyncta, RaisesTargetOnStarvedComputeKernel)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = computeKernel();
    auto kernels = instances(config, k);
    DynctaScheduler sched(config);
    run(20000, sched, kernels, cores);
    // Dependent ALU chains leave issue slots idle: controller should
    // have walked the target upward.
    EXPECT_GT(sched.target(0), config.maxCtasPerCore / 2);
}

TEST(Dyncta, LowersTargetOnMemoryBoundKernel)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = memoryKernel();
    auto kernels = instances(config, k);
    DynctaScheduler sched(config);
    run(30000, sched, kernels, cores);
    EXPECT_LT(sched.target(0), config.maxCtasPerCore / 2);
}

TEST(Dyncta, TargetStaysWithinBounds)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = memoryKernel();
    auto kernels = instances(config, k);
    DynctaScheduler sched(config);
    for (int epoch = 0; epoch < 10; ++epoch) {
        run(5000, sched, kernels, cores);
        EXPECT_GE(sched.target(0), 1u);
        EXPECT_LE(sched.target(0), config.maxCtasPerCore);
    }
}

TEST(Dyncta, ResidencyDrainsTowardLoweredTarget)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = memoryKernel();
    auto kernels = instances(config, k);
    DynctaScheduler sched(config);
    run(40000, sched, kernels, cores);
    if (!kernels[0].dispatchDone()) {
        // Once the controller lowers its target, residency may drain
        // from above but must never be dispatched beyond it again.
        const std::uint32_t resident = cores[0]->residentCtas();
        run(20000, sched, kernels, cores);
        if (!kernels[0].dispatchDone()) {
            EXPECT_LE(cores[0]->residentCtas(),
                      std::max(resident, sched.target(0)));
        }
    }
}

TEST(Dyncta, ExportsControllerStats)
{
    const GpuConfig config = cfg();
    auto cores = makeCores(config);
    const KernelInfo k = computeKernel();
    auto kernels = instances(config, k);
    DynctaScheduler sched(config);
    run(10000, sched, kernels, cores);
    StatSet stats;
    sched.addStats(stats);
    EXPECT_TRUE(stats.has("dyncta.core0.target"));
    EXPECT_TRUE(stats.has("dyncta.core0.inc"));
}

} // namespace
} // namespace bsched
