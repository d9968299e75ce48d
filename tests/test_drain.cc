/**
 * @file
 * CTA-drain preemption invariants, across every CTA scheduler policy:
 * a draining kernel receives no new CTA dispatches, its in-flight CTAs
 * retire normally (freeing the cores for co-residents), the dispatch
 * cursor freezes exactly where the drain caught it, and undraining
 * resumes from that cursor with nothing skipped or repeated. Also the
 * Gpu::requestDrain plumbing: id validation, drainRequests accounting
 * and the kernelDraining view.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cta/cta_sched.hh"
#include "gpu/gpu.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"
#include "obs/trace.hh"

namespace bsched {
namespace {

const std::vector<CtaSchedKind> kAllCtaScheds = {
    CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
    CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic};

GpuConfig
cfg(CtaSchedKind kind)
{
    GpuConfig c = GpuConfig::gtx480();
    c.numCores = 4;
    c.numMemPartitions = 2;
    c.ctaSched = kind;
    return c;
}

/** Long-ish ALU kernel so a drain catches it mid-grid. */
KernelInfo
kernel(const char* name, std::uint32_t grid = 64, std::uint32_t trips = 60)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(trips).alu(2, false).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/** Step until the predicate holds; fail the test on budget exhaustion. */
template <typename Pred>
void
stepUntil(Gpu& gpu, Pred pred, Cycle budget = 2000000)
{
    const Cycle start = gpu.cycle();
    while (!pred()) {
        ASSERT_TRUE(gpu.stepCycle()) << "simulation finished early";
        ASSERT_LT(gpu.cycle() - start, budget) << "budget exhausted";
    }
}

std::uint32_t
residentOf(const Gpu& gpu, int kernel_id)
{
    std::uint32_t resident = 0;
    for (const auto& core : gpu.cores())
        resident += core->residentCtas(kernel_id);
    return resident;
}

TEST(Drain, FreezesDispatchCursorOnEveryScheduler)
{
    for (const CtaSchedKind kind : kAllCtaScheds) {
        SCOPED_TRACE(toString(kind));
        const KernelInfo k = kernel("victim");
        Gpu gpu(cfg(kind));
        const int id = gpu.launchKernel(k);

        // Let dispatch get going, then drain mid-grid.
        stepUntil(gpu, [&] { return gpu.kernel(id).nextCta >= 8; });
        gpu.requestDrain(id, true);
        EXPECT_TRUE(gpu.kernelDraining(id));
        const std::uint32_t frozen = gpu.kernel(id).nextCta;
        ASSERT_LT(frozen, k.grid.x) << "drain caught the kernel too late";

        // In-flight CTAs retire; the cursor never moves while draining.
        stepUntil(gpu, [&] { return residentOf(gpu, id) == 0; });
        EXPECT_EQ(gpu.kernel(id).nextCta, frozen);
        EXPECT_EQ(gpu.kernel(id).ctasDone, frozen);
        EXPECT_FALSE(gpu.kernel(id).finished());

        // A drained machine is idle but alive: stepping is safe and
        // dispatches nothing.
        for (int i = 0; i < 200; ++i)
            gpu.stepCycle();
        EXPECT_EQ(gpu.kernel(id).nextCta, frozen);

        // Undrain: dispatch resumes from the frozen cursor and the
        // kernel completes the full grid exactly once.
        gpu.requestDrain(id, false);
        EXPECT_FALSE(gpu.kernelDraining(id));
        gpu.run();
        EXPECT_TRUE(gpu.kernel(id).finished());
        EXPECT_EQ(gpu.kernel(id).ctasDone, k.grid.x);
    }
}

TEST(Drain, FreesResourcesForCoResidentKernel)
{
    for (const CtaSchedKind kind : kAllCtaScheds) {
        SCOPED_TRACE(toString(kind));
        const KernelInfo victim = kernel("victim", 64);
        const KernelInfo beneficiary = kernel("beneficiary", 64);
        Gpu gpu(cfg(kind));
        const int vid = gpu.launchKernel(victim);
        const int bid = gpu.launchKernel(beneficiary);

        stepUntil(gpu, [&] { return gpu.kernel(vid).nextCta >= 8; });
        gpu.requestDrain(vid, true);
        const std::uint32_t victim_frozen = gpu.kernel(vid).nextCta;

        // The beneficiary finishes its whole grid while the victim
        // holds still.
        stepUntil(gpu, [&] { return gpu.kernel(bid).finished(); });
        EXPECT_EQ(gpu.kernel(vid).nextCta, victim_frozen);
        EXPECT_FALSE(gpu.kernel(vid).finished());

        // Once the victim's in-flight CTAs retired, the beneficiary
        // had the machine to itself.
        gpu.requestDrain(vid, false);
        gpu.run();
        EXPECT_TRUE(gpu.kernel(vid).finished());
        EXPECT_EQ(gpu.kernel(vid).ctasDone, victim.grid.x);
    }
}

TEST(Drain, RequestsAreCounted)
{
    const KernelInfo k = kernel("victim");
    GpuConfig config = cfg(CtaSchedKind::Lazy);
    Gpu gpu(config);
    const int id = gpu.launchKernel(k);
    gpu.stepCycle();

    // Every drain request (draining = true) is counted; undrains are
    // not.
    gpu.requestDrain(id, true);
    gpu.requestDrain(id, false);
    gpu.requestDrain(id, true);

    EXPECT_DOUBLE_EQ(gpu.stats().get("ctasched.drain_requests"), 2.0);
}

TEST(Drain, DrainingKernelStillRetiresAndFinishesIfGridDispatched)
{
    // Drain after the whole grid is already dispatched: nothing to
    // freeze, the kernel simply runs out.
    const KernelInfo k = kernel("victim", 8, 20);
    Gpu gpu(cfg(CtaSchedKind::RoundRobin));
    const int id = gpu.launchKernel(k);
    stepUntil(gpu, [&] { return gpu.kernel(id).dispatchDone(); });
    gpu.requestDrain(id, true);
    gpu.run();
    EXPECT_TRUE(gpu.kernel(id).finished());
    EXPECT_EQ(gpu.kernel(id).ctasDone, k.grid.x);
}

TEST(Drain, CompletionLatencyIsCounted)
{
    const KernelInfo k = kernel("victim");
    Gpu gpu(cfg(CtaSchedKind::Lazy));
    const int id = gpu.launchKernel(k);

    stepUntil(gpu, [&] { return gpu.kernel(id).nextCta >= 8; });
    EXPECT_EQ(gpu.drainsCompleted(), 0u);
    gpu.requestDrain(id, true);
    stepUntil(gpu, [&] { return residentOf(gpu, id) == 0; });

    // The drain reached zero residency: one completion, with the
    // request -> last-CTA-retired latency accumulated.
    EXPECT_EQ(gpu.drainsCompleted(), 1u);
    EXPECT_GT(gpu.drainLatencyCycles(), 0u);
    EXPECT_EQ(gpu.drainCancels(), 0u);
}

TEST(Drain, CompletionEmitsGpuTrackSpan)
{
    const GpuConfig config = cfg(CtaSchedKind::Lazy);
    Tracer tracer(config.numCores, config.numMemPartitions);
    Observer obs;
    obs.tracer = &tracer;
    const KernelInfo k = kernel("victim");
    Gpu gpu(config, obs);
    const int id = gpu.launchKernel(k);

    stepUntil(gpu, [&] { return gpu.kernel(id).nextCta >= 8; });
    gpu.requestDrain(id, true);
    stepUntil(gpu, [&] { return residentOf(gpu, id) == 0; });

    const auto spans = tracer.eventsOfKind(TraceEventKind::DrainComplete);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].kernelId, id);
    EXPECT_EQ(spans[0].duration, gpu.drainLatencyCycles());
    EXPECT_GT(spans[0].arg0, 0); // undispatched CTAs left behind
}

TEST(Drain, CancelBeforeZeroResidencyCounts)
{
    const KernelInfo k = kernel("victim");
    Gpu gpu(cfg(CtaSchedKind::Lazy));
    const int id = gpu.launchKernel(k);

    stepUntil(gpu, [&] { return residentOf(gpu, id) >= 1; });
    gpu.requestDrain(id, true);
    gpu.requestDrain(id, false); // lifted before residency hit zero

    EXPECT_EQ(gpu.drainCancels(), 1u);
    EXPECT_EQ(gpu.drainsCompleted(), 0u);
    EXPECT_EQ(gpu.drainLatencyCycles(), 0u);

    // Undraining when not draining is idempotent, not another cancel.
    gpu.requestDrain(id, false);
    EXPECT_EQ(gpu.drainCancels(), 1u);

    gpu.run();
    EXPECT_TRUE(gpu.kernel(id).finished());
}

TEST(Drain, DrainWithNothingResidentCompletesImmediately)
{
    const KernelInfo k = kernel("victim");
    Gpu gpu(cfg(CtaSchedKind::Lazy));
    const int id = gpu.launchKernel(k);

    // Before the first dispatch tick nothing is resident: the drain is
    // complete the moment it is requested, at zero latency.
    gpu.requestDrain(id, true);
    EXPECT_EQ(gpu.drainsCompleted(), 1u);
    EXPECT_EQ(gpu.drainLatencyCycles(), 0u);
}

TEST(Drain, BadKernelIdDies)
{
    const KernelInfo k = kernel("victim");
    Gpu gpu(cfg(CtaSchedKind::Lazy));
    const int id = gpu.launchKernel(k);
    (void)id;
    EXPECT_DEATH(gpu.requestDrain(7, true), "kernel id");
    EXPECT_DEATH(gpu.requestDrain(-1, true), "kernel id");
}

TEST(Drain, SchedulerLevelFilterAcrossPolicies)
{
    // Directly at the CtaScheduler interface: a draining kernel gets no
    // slots even with the machine empty.
    for (const CtaSchedKind kind : kAllCtaScheds) {
        SCOPED_TRACE(toString(kind));
        GpuConfig config = cfg(kind);
        auto sched = CtaScheduler::create(config);
        CoreList cores;
        for (std::uint32_t c = 0; c < config.numCores; ++c)
            cores.push_back(std::make_unique<SimtCore>(config, c));
        const KernelInfo k = kernel("k");
        KernelInstance inst;
        inst.info = &k;
        inst.id = 0;
        inst.maxCtas = maxCtasPerCore(config, k);
        std::vector<KernelInstance> kernels = {inst};

        sched->setDraining(0, true);
        EXPECT_TRUE(sched->isDraining(0));
        for (Cycle t = 0; t < 50; ++t)
            sched->tick(t, kernels, cores);
        EXPECT_EQ(kernels[0].nextCta, 0u);
        for (const auto& core : cores)
            EXPECT_EQ(core->residentCtas(), 0u);

        sched->setDraining(0, false);
        for (Cycle t = 50; t < 100; ++t)
            sched->tick(t, kernels, cores);
        EXPECT_GT(kernels[0].nextCta, 0u);
    }
}

} // namespace
} // namespace bsched
