/**
 * @file
 * Shared scaffolding for the bench binaries: the common command line
 * (one flag table for the figures, the tables and micro_simspeed), the
 * artifact writers, and the workload × config grid runner every sweep
 * figure uses instead of hand-rolled serial loops.
 *
 * All figures accept `--jobs N` (also `--jobs=N` / `-jN`) or the
 * BSCHED_JOBS environment variable; the default is the hardware
 * concurrency. Per-point results are identical for every job count —
 * only the wall-clock changes (see parallel_runner.hh) — and the
 * --emit-json artifact is byte-identical for any job count.
 */

#ifndef BSCHED_BENCH_BENCH_COMMON_HH
#define BSCHED_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "obs/sink.hh"

namespace bsched::bench {

/** The shared figure/table command line, parsed by parseArgs(). */
struct BenchOptions
{
    /** Resolved worker count (already passed through resolveJobs()). */
    unsigned jobs = 0;

    /** --trace FILE: write a Chrome trace of one representative run. */
    std::string tracePath;

    /** --profile FILE: write a `bsched-profile-v1` cycle-accounting
     *  profile of one representative run. */
    std::string profilePath;

    /** --mem-profile FILE: write a `bsched-memprofile-v1` memory
     *  latency/interference profile of one representative run. */
    std::string memProfilePath;

    /** --emit-json FILE: write the figure's BenchReport as JSON. */
    std::string emitJsonPath;

    /** --serve-trace FILE: write a `bsched-servetrace-v1` decision
     *  audit of the canonical serving run. */
    std::string serveTracePath;

    /** --phase FILE: write a `bsched-phase-v1` windowed phase-telemetry
     *  report of one representative run. */
    std::string phasePath;

    /** --sample-every N: interval-sampler period for the traced run. */
    Cycle sampleEvery = 0;

    /** --progress: stderr heartbeat for long grid sweeps. */
    bool progress = false;
};

/**
 * Which bench flags a binary honours, and what happens to the rest.
 * Each kind honours every flag the one before it does.
 */
enum class Cli
{
    Microbench, ///< --jobs, --emit-json, --serve-trace, --no-fast-forward;
                ///< unknown arguments stay in argv for google-benchmark
    Table,      ///< plus --progress and --log; no simulation, so the
                ///< run-artifact flags are fatal()
    Figure,     ///< every flag; anything else is fatal()
};

/**
 * Parse the shared bench command line from one flag table (which also
 * generates the usage text in every error). Each value flag takes
 * "--flag VALUE" and "--flag=VALUE"; --jobs also takes "-jN". Figures
 * accept --jobs N, --trace FILE, --profile FILE, --mem-profile FILE,
 * --serve-trace FILE, --phase FILE, --emit-json FILE, --sample-every N,
 * --progress (also the BSCHED_PROGRESS environment variable),
 * --no-fast-forward (force plain cycle-by-cycle stepping; results are
 * byte-identical either way) and --log LEVEL (also BSCHED_LOG). A flag
 * the binary does not honour, a missing value and (outside
 * Cli::Microbench) an unknown argument are fatal() so a typo doesn't
 * silently fall back to defaults. @p argc / @p argv keep only the
 * arguments passed through.
 */
BenchOptions parseArgs(int& argc, char** argv, Cli cli = Cli::Figure);

/**
 * Parse @p value as a positive decimal integer with nothing trailing;
 * anything else is fatal(), naming @p flag.
 */
long parsePositive(const char* flag, const char* value);

/** Write one artifact via @p body and report it on stderr as
 *  "wrote PATH (N bytes, DETAIL)". */
void writeArtifact(const std::string& path, const std::string& detail,
                   const std::function<void(std::ostream&)>& body);

/** Write the report to opts.emitJsonPath when --emit-json was given. */
void writeReport(const BenchOptions& opts, const BenchReport& report);

/**
 * Honour --trace, --profile, --mem-profile and --phase: re-run one
 * representative simulation point with the requested observers
 * attached — a Tracer plus an IntervalSampler (period --sample-every,
 * default 512) for --trace, a CycleProfiler for --profile, a
 * MemProfiler for --mem-profile, a PhaseTelemetry (plus a MemProfiler
 * for the interference channels) for --phase — and write the Chrome
 * trace JSON to opts.tracePath, the `bsched-profile-v1` JSON to
 * opts.profilePath, the `bsched-memprofile-v1` JSON to
 * opts.memProfilePath and/or the `bsched-phase-v1` JSON to
 * opts.phasePath. When several are requested the same single re-run
 * feeds all artifacts. No-op when no flag was given; the re-run is
 * serial and separate from the measured grid, so artifacts never
 * perturb the parallel sweep.
 */
void writeRunArtifacts(const BenchOptions& opts, const GpuConfig& config,
                       const KernelInfo& kernel, const std::string& label);

/**
 * Honour --serve-trace: serve the canonical bursty deadline trace
 * (serve_traces.hh) under the reorder+preempt policy on the canonical
 * GTO+LCS machine with the decision audit attached, and write the
 * `bsched-servetrace-v1` JSON to opts.serveTracePath. The run is fixed
 * — same trace, policy and config from every bench binary — so the
 * artifact bytes are identical regardless of which binary wrote it,
 * for any --jobs count, and with fast-forward on or off. No-op when
 * the flag was not given. writeRunArtifacts calls this, so figures
 * already emitting run artifacts get it for free.
 */
void writeServeTraceArtifact(const BenchOptions& opts);

/** Results of a workload × config sweep, workload-major. */
struct GridResults
{
    std::size_t numConfigs = 0;
    std::vector<RunResult> flat;

    const RunResult& at(std::size_t workload, std::size_t config) const
    {
        return flat.at(workload * numConfigs + config);
    }
};

/**
 * The shared grid runner: simulate every (workload, config) pair, fanned
 * out across @p jobs workers (0 = resolveJobs() default).
 */
GridResults runWorkloadGrid(const std::vector<std::string>& names,
                            const std::vector<GpuConfig>& configs,
                            unsigned jobs = 0);

/** As runWorkloadGrid, over prebuilt kernels instead of suite names. */
GridResults runKernelGrid(const std::vector<KernelInfo>& kernels,
                          const std::vector<GpuConfig>& configs,
                          unsigned jobs = 0);

} // namespace bsched::bench

#endif // BSCHED_BENCH_BENCH_COMMON_HH
