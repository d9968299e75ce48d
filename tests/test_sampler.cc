/**
 * @file
 * Tests for the interval sampler: alignment invariants, the query
 * helpers, and the central property — counter-kind series sampled
 * during a run must end exactly at the final StatSet totals.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/sampler.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "sampled";
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Strided;
    in.strideElems = 8;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(6).load(i).alu(3).endLoop();
    k.program = b.build();
    return k;
}

TEST(IntervalSampler, ZeroPeriodIsFatal)
{
    EXPECT_DEATH(IntervalSampler(0), "period");
}

TEST(IntervalSampler, DueEveryPeriod)
{
    IntervalSampler s(100);
    EXPECT_FALSE(s.cadence().due(99));
    EXPECT_TRUE(s.cadence().due(100));
    s.begin(100);
    s.record("x", 1.0, SeriesKind::Counter);
    EXPECT_FALSE(s.cadence().due(199));
    EXPECT_TRUE(s.cadence().due(200));
}

TEST(IntervalSampler, RecordsAlignedSeries)
{
    IntervalSampler s(10);
    s.begin(10);
    s.record("a", 1.0, SeriesKind::Counter);
    s.record("g", 5.0, SeriesKind::Gauge);
    s.begin(20);
    s.record("a", 4.0, SeriesKind::Counter);
    s.record("g", 2.0, SeriesKind::Gauge);

    EXPECT_EQ(s.samples(), 2u);
    ASSERT_NE(s.find("a"), nullptr);
    EXPECT_EQ(s.find("a")->kind, SeriesKind::Counter);
    EXPECT_DOUBLE_EQ(s.last("a"), 4.0);
    EXPECT_DOUBLE_EQ(s.last("absent", -1.0), -1.0);

    const auto deltas = s.deltas("a");
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_DOUBLE_EQ(deltas[0], 1.0); // first delta is from 0
    EXPECT_DOUBLE_EQ(deltas[1], 3.0);
}

TEST(IntervalSampler, DeltasOfGaugeIsFatal)
{
    IntervalSampler s(10);
    s.begin(10);
    s.record("g", 5.0, SeriesKind::Gauge);
    EXPECT_DEATH(s.deltas("g"), "gauge");
}

TEST(IntervalSampler, MisalignedRecordingDies)
{
    IntervalSampler s(10);
    // record() before any begin().
    EXPECT_DEATH(s.record("a", 1.0, SeriesKind::Counter), "begin");

    s.begin(10);
    s.record("a", 1.0, SeriesKind::Counter);
    // Same series twice in one sample row.
    EXPECT_DEATH(s.record("a", 2.0, SeriesKind::Counter), "twice");

    // A series joining after the first sample would misalign the axis.
    s.begin(20);
    s.record("a", 2.0, SeriesKind::Counter);
    EXPECT_DEATH(s.record("late", 1.0, SeriesKind::Counter), "joined");

    // Non-monotonic cycle axis.
    EXPECT_DEATH(s.begin(20), "not after");
}

TEST(IntervalSampler, CsvHasHeaderAndOneRowPerSample)
{
    IntervalSampler s(10);
    s.begin(10);
    s.record("a", 1.0, SeriesKind::Counter);
    s.begin(20);
    s.record("a", 2.5, SeriesKind::Counter);

    std::ostringstream os;
    s.writeCsv(os);
    EXPECT_EQ(os.str(), "cycle,a\n10,1\n20,2.5\n");
}

/**
 * The property the sampler exists to uphold: for every counter-kind
 * series the last sample equals the corresponding final StatSet total
 * (the run ends with a closing sample), and summed deltas reconstruct
 * the same total.
 */
TEST(IntervalSampler, CounterSeriesEndAtStatSetTotals)
{
    const GpuConfig config = cfg();
    IntervalSampler sampler(128);
    const RunResult r =
        runKernel(config, kernel(), Observer{nullptr, &sampler});

    ASSERT_GT(sampler.samples(), 1u);

    // The closing sample is taken at the final cycle.
    EXPECT_EQ(sampler.cycles().back(), r.cycles);

    // Cycle axis strictly increasing.
    for (std::size_t i = 1; i < sampler.cycles().size(); ++i)
        EXPECT_GT(sampler.cycles()[i], sampler.cycles()[i - 1]);

    const std::map<std::string, std::string> totals = {
        {"gpu.instrs", "gpu.instrs"},
        {"core.issue_cycles", ".issue_cycles"},
        {"core.stall_mem", ".stall_mem"},
        {"core.stall_idle", ".stall_idle"},
        {"l1d.access", ".l1d.access"},
        {"l1d.miss", ".l1d.miss"},
        {"l2.access", ".l2.access"},
        {"l2.miss", ".l2.miss"},
        {"dram.row_hit", ".dram.row_hit"},
        {"dram.row_miss", ".dram.row_miss"},
        {"dram.row_conflict", ".dram.row_conflict"},
    };
    for (const auto& [series, suffix] : totals) {
        const SampleSeries* s = sampler.find(series);
        ASSERT_NE(s, nullptr) << series;
        ASSERT_EQ(s->kind, SeriesKind::Counter) << series;

        const double total = series == "gpu.instrs"
            ? r.stats.get("gpu.instrs")
            : r.stats.sumBySuffix(suffix);
        EXPECT_DOUBLE_EQ(sampler.last(series), total) << series;

        // Counters are cumulative, so the series is monotone and the
        // deltas resum to the total.
        double sum = 0.0;
        double prev = 0.0;
        for (const double v : s->values) {
            EXPECT_GE(v, prev) << series;
            prev = v;
        }
        for (const double d : sampler.deltas(series))
            sum += d;
        EXPECT_DOUBLE_EQ(sum, total) << series;
    }

    // Gauges exist and stay in range.
    const SampleSeries* active = sampler.find("gpu.active_ctas");
    ASSERT_NE(active, nullptr);
    EXPECT_EQ(active->kind, SeriesKind::Gauge);
    for (const double v : active->values) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, config.numCores * config.maxCtasPerCore);
    }
}

} // namespace
} // namespace bsched
