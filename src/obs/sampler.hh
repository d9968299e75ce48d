/**
 * @file
 * Interval sampler — the second pillar of the observability subsystem.
 *
 * The GPU top level snapshots a fixed set of counters every `period`
 * cycles (plus one final sample when the run drains), building aligned
 * time series: one shared cycle axis and one value column per counter.
 * Counter-kind series hold cumulative values (their last sample must
 * equal the final StatSet total — a property the tests enforce);
 * gauge-kind series hold instantaneous readings (occupancy, interval
 * IPC).
 *
 * Like the Tracer, the sampler is owned by the caller and attached via
 * Observer; a run without one pays a single untaken branch per cycle.
 */

#ifndef BSCHED_OBS_SAMPLER_HH
#define BSCHED_OBS_SAMPLER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/observer.hh"
#include "sim/types.hh"

namespace bsched {

/** How a sampled series accumulates. */
enum class SeriesKind
{
    Counter, ///< cumulative, monotone; last sample == run total
    Gauge,   ///< instantaneous reading
};

const char* toString(SeriesKind kind);

/** One named time series aligned to the sampler's cycle axis. */
struct SampleSeries
{
    SeriesKind kind = SeriesKind::Counter;
    std::vector<double> values;
};

/** Snapshots named counters every N cycles into aligned time series. */
class IntervalSampler
{
  public:
    /** Sample every @p period cycles (fatal() on 0). */
    explicit IntervalSampler(Cycle period);

    Cycle period() const { return clock_.period(); }

    /** The sample clock: one sample owed every `period` cycles. */
    const ObservationClock& cadence() const { return clock_; }

    /**
     * Open a sample row at @p now. Every series must then be recorded
     * exactly once before the next begin() (enforced by panic()).
     */
    void begin(Cycle now);

    /** Record one series value for the row opened by begin(). */
    void record(const std::string& name, double value, SeriesKind kind);

    // --- queries --------------------------------------------------------

    std::size_t samples() const { return cycles_.size(); }
    const std::vector<Cycle>& cycles() const { return cycles_; }

    /** Names of all recorded series, in name order. */
    std::vector<std::string> names() const;

    /** The named series; nullptr if absent. */
    const SampleSeries* find(const std::string& name) const;

    /** Last sampled value of @p name; @p fallback if absent/empty. */
    double last(const std::string& name, double fallback = 0.0) const;

    /**
     * Per-interval deltas of a counter series (first delta is from 0).
     * fatal() on gauges — deltas of instantaneous readings are noise.
     */
    std::vector<double> deltas(const std::string& name) const;

    /** All series, in name order. */
    const std::map<std::string, SampleSeries>& series() const
    {
        return series_;
    }

    /** Render as CSV: header "cycle,<name>,...", one row per sample. */
    void writeCsv(std::ostream& os) const;

  private:
    ObservationClock clock_;
    std::vector<Cycle> cycles_;
    std::map<std::string, SampleSeries> series_;
};

} // namespace bsched

#endif // BSCHED_OBS_SAMPLER_HH
