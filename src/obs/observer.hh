/**
 * @file
 * The Observer bundle: the non-owning handles a Gpu needs to feed the
 * observability subsystem. All six pointers default to null, which is
 * the zero-cost-disabled state — no component allocates or records
 * anything unless the caller attached a sink before the run.
 *
 * Also the contract the Gpu keeps with its periodic observers (the
 * IntervalSampler and PhaseTelemetry): each ticks on an
 * ObservationClock, and on every tick the Gpu hands it the same
 * CounterSnapshot.
 */

#ifndef BSCHED_OBS_OBSERVER_HH
#define BSCHED_OBS_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace bsched {

class Tracer;
class IntervalSampler;
class CycleProfiler;
class MemProfiler;
class PhaseTelemetry;

/**
 * Extra per-interval series provider. A layer sitting *above* the Gpu
 * (e.g. the serving engine) implements this to append its own gauges to
 * every sample the Gpu's IntervalSampler takes, so external series land
 * on exactly the same fenced cycles as the built-in ones.
 */
class SampleSource
{
  public:
    virtual ~SampleSource() = default;
    virtual void recordSample(IntervalSampler& sampler, Cycle now) = 0;
};

/** Non-owning observability hooks handed to Gpu at construction. */
struct Observer
{
    Tracer* tracer = nullptr;
    IntervalSampler* sampler = nullptr;
    CycleProfiler* profiler = nullptr;
    MemProfiler* memProfiler = nullptr;
    SampleSource* sampleSource = nullptr;
    PhaseTelemetry* phase = nullptr;
};

/**
 * The period clock of a periodic observer. A tick is owed every
 * `period` cycles after the previous one (the run starts at cycle 0),
 * plus one closing tick when the run ends between them. The Gpu polls
 * every attached clock at one site per cycle and fences idle
 * fast-forward at the earliest nextDue(), so ticks land on the same
 * cycles whether or not quiet spans are elided.
 */
class ObservationClock
{
  public:
    explicit ObservationClock(Cycle period) : period_(period) {}

    Cycle period() const { return period_; }

    /** Earliest cycle at which due() becomes true. */
    Cycle nextDue() const { return last_ + period_; }

    /** True when the periodic tick is owed at @p now. */
    bool due(Cycle now) const { return now >= nextDue(); }

    /** True when a run ending at @p now still owes its closing tick. */
    bool finalPending(Cycle now) const { return now > last_; }

    /** Record a tick at @p now. */
    void tick(Cycle now) { last_ = now; }

  private:
    Cycle period_;
    Cycle last_ = 0;
};

/**
 * Cumulative machine counters (plus a few instantaneous gauges) read
 * at one observation tick. The Gpu sweeps its components once per tick
 * into this, and every periodic observer due on that cycle reads the
 * same snapshot.
 */
struct CounterSnapshot
{
    std::uint64_t instrs = 0;
    std::uint64_t issueCycles = 0;
    std::uint64_t stallMem = 0;
    std::uint64_t stallIdle = 0;
    std::uint64_t l1Access = 0;
    std::uint64_t l1Miss = 0;
    std::uint64_t l2Access = 0;
    std::uint64_t l2Miss = 0;
    std::uint64_t rowHit = 0;
    std::uint64_t rowMiss = 0;
    std::uint64_t rowConflict = 0;

    // Gauges (sampled, never differenced).
    std::uint64_t activeCtas = 0;
    std::uint64_t l1MshrInUse = 0;
    std::uint64_t l2MshrInUse = 0;

    /** Per-core cumulative counters (index = core id); filled only
     *  when phase telemetry is attached, like kernelInstrs. */
    std::vector<std::uint64_t> coreInstrs;
    std::vector<std::uint64_t> coreIssue;
    std::vector<std::uint64_t> coreStallMem;
    std::vector<std::uint64_t> coreStallIdle;

    /** Per-kernel cumulative issued instructions (index = kernel id). */
    std::vector<std::uint64_t> kernelInstrs;

    /** Interference counters, filled only when a MemProfiler rides
     *  along; hasInterference gates the phase artifact section. */
    bool hasInterference = false;
    std::uint64_t l1CrossCta = 0;
    std::uint64_t l2CrossCta = 0;
    std::uint64_t dramQueueCycles = 0; ///< DramQueue stage cycle sum
    std::uint64_t l2MshrOccCycles = 0; ///< time-weighted occupancy sum
};

} // namespace bsched

#endif // BSCHED_OBS_OBSERVER_HH
