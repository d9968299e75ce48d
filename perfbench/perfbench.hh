/**
 * @file
 * The end-to-end benchmark of blocksched: three workloads that call the
 * library's public functions (workloads, kernel, harness, gpu, serve,
 * obs) from outside and time them. See METRICS.md for what each metric
 * means and which layer it belongs to.
 *
 * A timed run measures with tracing off. A traced run repeats the same
 * simulated work once with spans recorded around every library call and
 * Gpu::stepCycle timings folded into counts and sums, and reports the
 * per-layer metrics.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "obs/mem_profile.hh"
#include "obs/observer.hh"
#include "obs/profile.hh"
#include "sim/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);

/**
 * Correctness ledger: every check is one op, and a failed check is
 * counted instead of stopping the run. Only touched from the main
 * thread.
 */
class Checks
{
  public:
    /** Count one op; record @p what when @p ok is false. */
    bool expect(bool ok, const std::string& what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first few failure descriptions. */
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** FNV-1a over a canonical text rendering of simulated results. */
class Digest
{
  public:
    void add(const std::string& text);
    void add(double value);
    void add(const bsched::StatSet& stats);
    void add(const bsched::RunResult& result);
    std::string hex() const;

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

/** Host-time fold of Gpu::stepCycle calls (no span per cycle). */
struct StepFold
{
    std::uint64_t busySteps = 0; ///< calls that advanced one cycle
    std::uint64_t ffSteps = 0;   ///< calls that fast-forwarded
    double busyNs = 0.0;
    double ffNs = 0.0;
    std::uint64_t cycles = 0;    ///< simulated cycles, elided included
    std::uint64_t elided = 0;    ///< Gpu::elidedCycles() summed
    double statsS = 0.0;         ///< host time in Gpu::stats()

    void merge(const StepFold& other);
};

/** One span: host nanoseconds since the run began, or simulated cycles. */
struct Span
{
    std::string name;
    int id = 0;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    std::int64_t request = -1; ///< serving request seq, -1 = none
    bool simClock = false;
};

/** In-memory span store of the traced run. Thread-safe. */
class Spans
{
  public:
    Spans() : origin_(Clock::now()) {}

    int begin(const std::string& name, int parent);
    void end(int id);
    void addSim(const std::string& name, int parent, std::int64_t request,
                double start_cycle, double end_cycle);
    std::string toJson(const std::string& workload) const;

  private:
    mutable std::mutex mutex_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII host-time span; only the timer runs without a span store. */
class ScopedSpan
{
  public:
    ScopedSpan(Spans* spans, const std::string& name, int parent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }
    double seconds() const { return secondsSince(start_); }

  private:
    Spans* spans_;
    int id_;
    Clock::time_point start_;
};

/** Per-layer metrics of a traced run, by metric name. */
using Layers = std::map<std::string, double>;

/** Host-time components of one set-up, in seconds. */
struct SetupTimes
{
    double buildS = 0.0;     ///< makeWorkload
    double constructS = 0.0; ///< Gpu / engine constructors
    double traceGenS = 0.0;  ///< generateTrace
    Spans* spans = nullptr;  ///< set on the traced run's last set-up
    int parent = -1;
};

/** What one rep of a workload's fixed simulated work passes on. */
struct RunContext
{
    unsigned workers = 2;
    Spans* spans = nullptr;   ///< set on the traced rep and profile()
    Layers* layers = nullptr; ///< set whenever spans is
    Checks* checks = nullptr;
    int parent = -1;          ///< span id of the rep

    bool traced() const { return spans != nullptr; }
};

/** Simulated outcome of one rep. */
struct RepOutcome
{
    double simCycles = 0.0;
    std::string digest;
    std::map<std::string, double> sim; ///< sim_* end-to-end metrics
    std::uint64_t requests = 0;        ///< served requests (serve_burst)
};

/** One benchmark workload: fixed inputs, fixed simulated work. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input a rep needs; called once per set-up sample. */
    virtual void setup(SetupTimes& times) = 0;

    /** Run the fixed simulated work once, checking every output. */
    virtual RepOutcome run(const RunContext& ctx) = 0;

    /** Traced run only: extra passes with profilers attached. */
    virtual void profile(const RunContext& ctx) = 0;
};

/** The benchmark's workloads, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeBenchWorkload(const std::string& name,
                                            std::uint64_t seed);

/** Time one Gpu::stepCycle call into @p fold; returns its result. */
bool timedStep(bsched::Gpu& gpu, StepFold& fold);

/**
 * Run one kernel through the public Gpu API the way runKernel() does,
 * timing every stepCycle call into @p fold. The simulated outcome is
 * identical to runKernel(config, kernel, obs).
 */
bsched::RunResult steppedRun(const bsched::GpuConfig& config,
                             const bsched::KernelInfo& kernel,
                             bsched::Observer obs, StepFold& fold);

/** Set the gpu.* step metrics from @p fold. */
void setStepLayers(Layers& layers, const StepFold& fold);

/** Set the cta.*, core.instrs and mem.* metrics that the simulated
 *  StatSets of a rep carry, summed over @p sets. */
void setStatLayers(Layers& layers,
                   const std::vector<const bsched::StatSet*>& sets);

/** CycleProfiler and MemProfiler totals summed over several runs. */
struct ProfileTotals
{
    bsched::SlotCounts slots;
    bsched::StageProfile mem;
    std::uint64_t crossCtaEvictions = 0;

    /** Add the totals of the profilers attached to @p obs. */
    void add(const bsched::Observer& obs);
};

/** Set the core.* shares and the mem.* profiler metrics. */
void setProfilerLayers(Layers& layers, const ProfileTotals& totals);

/**
 * Host drift probe: time a fixed reference loop (median of three
 * passes). It runs no simulator code, so a slow host shows in it and a
 * slow change does not; timed results are rescaled by it.
 */
double driftProbe(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
