/**
 * @file
 * Idle fast-forward equivalence suite: eliding provably-quiet cycles
 * must be invisible in every serialized artifact. Each test runs the
 * same simulation with fast-forward on and off and compares the
 * concatenated `bsched-run-v1` + `bsched-profile-v1` +
 * `bsched-memprofile-v1` + `bsched-phase-v1` bytes — across all four
 * warp schedulers, the LCS/BCS/DynCTA CTA schedulers, multi-kernel
 * policies and harness job counts. Also holds the regression tests
 * for the launchKernel core-range validation and response-injection
 * fairness fixes that shipped with the fast-forward work.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "gpu/multi_kernel.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"

namespace bsched {
namespace {

/** Small mixed load/ALU kernel with barriers of memory idleness. */
KernelInfo
ffKernel(const std::string& name, std::uint32_t grid_ctas = 12)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid_ctas, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(4).load(i).alu(3).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/**
 * Streaming load/ALU/store kernel (the backprop shape): the store at
 * the loop tail sits behind a fixed-latency ALU chain, so its
 * scoreboard clears at an exact future cycle with no structural
 * refusal in sight — the case a next-event estimate is most tempted
 * to skip. Saturating enough to keep the memory system busy.
 */
KernelInfo
ffStoreKernel(const std::string& name, std::uint32_t grid_ctas = 16)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid_ctas, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    MemPattern out;
    out.kind = AccessKind::Coalesced;
    out.base = 0x1000000 + (1u << 26);
    const auto i = b.pattern(in);
    const auto o = b.pattern(out);
    b.loop(8).load(i).alu(6).store(o).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/**
 * Shared-memory kernel: a global load, a 4-way bank-conflicted shared
 * store, a barrier, a shared load and an SFU chain. Its quiet spans
 * stall on barriers, the busy shared-memory port and SFU results — and
 * on a full L1 MSHR file when the machine is MSHR-starved — so a
 * fast-forward jump has to replay every stall category.
 */
KernelInfo
ffSmemKernel(const std::string& name)
{
    KernelInfo k;
    k.name = name;
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
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
    b.loop(6)
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

/** Shrunk machine: quick runs, still multi-core and multi-partition. */
GpuConfig
smallConfig(WarpSchedKind warp_sched, CtaSchedKind cta_sched)
{
    GpuConfig config = makeConfig(warp_sched, cta_sched);
    config.numCores = 2;
    config.numMemPartitions = 2;
    return config;
}

/**
 * Run @p kernel with the full profiling stack attached and serialize
 * everything observable: the run artifact (stats + sampled series),
 * the cycle-accounting profile, the memory profile and the phase
 * telemetry. The 160-cycle phase window shares every fifth of the
 * sampler's 64-cycle sample points (multiples of 320) and falls
 * between them otherwise, so both periodic observers must land on
 * their own cycles, and in order on the shared ones, across elided
 * spans.
 */
std::string
artifactBytes(GpuConfig config, const KernelInfo& kernel, bool fast_forward)
{
    config.fastForward = fast_forward;
    IntervalSampler sampler(64);
    CycleProfiler profiler;
    MemProfiler mem_profiler;
    PhaseConfig phase_config;
    phase_config.windowCycles = 160;
    PhaseTelemetry phase(phase_config);
    Observer obs;
    obs.sampler = &sampler;
    obs.profiler = &profiler;
    obs.memProfiler = &mem_profiler;
    obs.phase = &phase;
    const RunResult result = runKernel(config, kernel, obs);

    std::ostringstream os;
    writeRunJson(os, result, kernel.name, &sampler);
    writeProfileJson(os, profiler, kernel.name);
    writeMemProfileJson(os, mem_profiler, kernel.name);
    writePhaseJson(os, phase, kernel.name);
    return os.str();
}

TEST(FastForwardEquivalence, AllWarpSchedulers)
{
    const KernelInfo kernel = ffKernel("ff_warp");
    const KernelInfo smem = ffSmemKernel("ff_smem");
    for (WarpSchedKind ws :
         {WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
          WarpSchedKind::BAWS}) {
        GpuConfig config = smallConfig(ws, CtaSchedKind::RoundRobin);
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "warp scheduler " << toString(ws);
        EXPECT_EQ(artifactBytes(config, smem, true),
                  artifactBytes(config, smem, false))
            << "smem kernel, warp scheduler " << toString(ws);
        config.l1d.mshrEntries = 2;
        EXPECT_EQ(artifactBytes(config, smem, true),
                  artifactBytes(config, smem, false))
            << "smem kernel, 2 L1 MSHRs, warp scheduler " << toString(ws);
    }
}

TEST(FastForwardEquivalence, SmemKernelElidesEveryStallCategory)
{
    // Guards the input above: if the shared-memory kernel stopped
    // eliding cycles or stopped stalling in some category, the
    // equivalence test would no longer exercise that replay.
    const KernelInfo kernel = ffSmemKernel("ff_smem_cover");
    for (bool starved : {false, true}) {
        GpuConfig config = smallConfig(WarpSchedKind::GTO,
                                       CtaSchedKind::RoundRobin);
        if (starved)
            config.l1d.mshrEntries = 2;
        const std::uint32_t mshrs = config.l1d.mshrEntries;
        CycleProfiler profiler;
        Observer obs;
        obs.profiler = &profiler;
        Gpu gpu(config, obs);
        gpu.launchKernel(kernel);
        gpu.run();
        EXPECT_GT(gpu.elidedCycles(), 0u) << mshrs << " L1 MSHRs";
        const SlotCounts total = profiler.total();
        for (SlotCat cat :
             {SlotCat::Barrier, SlotCat::Scoreboard, SlotCat::MemStructural,
              SlotCat::Pipeline, SlotCat::Empty}) {
            EXPECT_GT(total[cat], 0u)
                << toString(cat) << ", " << mshrs << " L1 MSHRs";
        }
    }
}

TEST(FastForwardEquivalence, StoreHeavyKernels)
{
    // Regression for the store-path off-by-one: a warp whose scoreboard
    // clears exactly at the first elidable cycle (a store behind an ALU
    // chain) must pin the core's next-event estimate. The bug only
    // surfaced under schedulers whose pick depends on readiness timing,
    // so sweep all of them.
    const KernelInfo kernel = ffStoreKernel("ff_store");
    for (WarpSchedKind ws :
         {WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
          WarpSchedKind::BAWS}) {
        const GpuConfig config = smallConfig(ws, CtaSchedKind::RoundRobin);
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "warp scheduler " << toString(ws);
    }
}

TEST(FastForwardEquivalence, AllCtaSchedulers)
{
    const KernelInfo kernel = ffKernel("ff_cta");
    for (CtaSchedKind cs :
         {CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
          CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic}) {
        const GpuConfig config = smallConfig(WarpSchedKind::GTO, cs);
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "cta scheduler " << toString(cs);
    }
}

TEST(FastForwardEquivalence, LcsFixedWindowDeadlines)
{
    // FixedCycles windows close at exact deadlines that can fall in the
    // middle of an otherwise quiet stretch; the scheduler's next-event
    // estimate must wake the GPU for them.
    const KernelInfo kernel = ffKernel("ff_lcs_window");
    for (CtaSchedKind cs : {CtaSchedKind::Lazy, CtaSchedKind::LazyBlock}) {
        GpuConfig config = smallConfig(WarpSchedKind::GTO, cs);
        config.lcs.windowMode = LcsWindowMode::FixedCycles;
        config.lcs.fixedWindowCycles = 300;
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "cta scheduler " << toString(cs);
    }
}

/** Serialize everything observable about a multi-kernel run. */
std::string
multiKernelBytes(GpuConfig config, const KernelInfo& a, const KernelInfo& b,
                 MultiKernelPolicy policy, bool fast_forward)
{
    config.fastForward = fast_forward;
    const MultiKernelReport report =
        runMultiKernel(config, {&a, &b}, policy);
    std::ostringstream os;
    os << toString(policy) << " total=" << report.totalCycles << "\n";
    for (Cycle c : report.isolatedCycles)
        os << c << ",";
    for (Cycle c : report.sharedCycles)
        os << c << ",";
    os << "\n";
    writeStatsCsv(os, report.stats);
    return os.str();
}

TEST(FastForwardEquivalence, MultiKernelPolicies)
{
    const KernelInfo a = ffKernel("ff_mck_a", 10);
    const KernelInfo b = ffKernel("ff_mck_b", 6);
    const GpuConfig config = smallConfig(WarpSchedKind::GTO,
                                         CtaSchedKind::Lazy);
    for (MultiKernelPolicy policy :
         {MultiKernelPolicy::Sequential, MultiKernelPolicy::Spatial,
          MultiKernelPolicy::Mixed}) {
        EXPECT_EQ(multiKernelBytes(config, a, b, policy, true),
                  multiKernelBytes(config, a, b, policy, false))
            << "policy " << toString(policy);
    }
}

TEST(FastForwardEquivalence, JobCountsAndBenchReports)
{
    // The bsched-bench-v1 report must be byte-identical across
    // fast-forward on/off and across --jobs counts, in any combination.
    const KernelInfo kernel = ffKernel("ff_jobs");
    GpuConfig config = smallConfig(WarpSchedKind::BAWS, CtaSchedKind::Block);

    std::vector<std::string> reports;
    for (bool ff : {true, false}) {
        config.fastForward = ff;
        for (unsigned jobs : {1u, 4u}) {
            const auto sweep = sweepCtaLimit(config, kernel, 4, jobs);
            BenchReport report("ff_jobs");
            for (std::size_t n = 0; n < sweep.size(); ++n)
                report.addRow("limit" + std::to_string(n + 1), sweep[n]);
            reports.push_back(report.toJson());
        }
    }
    for (std::size_t r = 1; r < reports.size(); ++r)
        EXPECT_EQ(reports[0], reports[r]) << "variant " << r;
}

TEST(LaunchKernel, RejectsEmptyOrInvertedCoreRange)
{
    const KernelInfo kernel = ffKernel("ff_range");
    const GpuConfig config = smallConfig(WarpSchedKind::GTO,
                                         CtaSchedKind::RoundRobin);
    // Empty range: end == begin leaves no core.
    EXPECT_DEATH(
        {
            Gpu gpu(config);
            gpu.launchKernel(kernel, 1, 1);
        },
        "empty core range");
    // Inverted range: end < begin.
    EXPECT_DEATH(
        {
            Gpu gpu(config);
            gpu.launchKernel(kernel, 1, 0);
        },
        "empty core range");
    // A negative end still means "all cores" and must keep working.
    Gpu gpu(config);
    gpu.launchKernel(kernel, 1, -1);
    gpu.run();
    EXPECT_TRUE(gpu.finished());
}

TEST(ResponseInjection, RotationBoundsRequestLatencyUnderContention)
{
    // One core fed by four partitions through capacity-limited response
    // channels: with a fixed partition-0-first injection order, a
    // saturated channel lets low-numbered partitions starve the rest,
    // growing the worst-case latency far beyond the mean. The rotating
    // order bounds every request's wait to roughly its fair share.
    GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                  CtaSchedKind::RoundRobin);
    config.numCores = 1;
    config.numMemPartitions = 4;

    KernelInfo k;
    k.name = "hot_core";
    k.grid = {8, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x4000000;
    const auto i = b.pattern(in);
    b.loop(8).load(i).alu(1).endLoop();
    k.program = b.build();
    k.validate();

    MemProfiler profiler;
    Observer obs;
    obs.memProfiler = &profiler;
    const RunResult result = runKernel(config, k, obs);
    ASSERT_GT(result.cycles, 0u);

    const StageProfile total = profiler.total();
    ASSERT_GT(total.completed(), 0u);
    // Worst case stays within a small multiple of the mean — starvation
    // shows up as a max tens of times the mean.
    EXPECT_LT(static_cast<double>(total.endToEnd.max()),
              8.0 * total.endToEnd.mean())
        << "max " << total.endToEnd.max() << " mean "
        << total.endToEnd.mean();
}

} // namespace
} // namespace bsched
