#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/traffic.hh"
#include "serve_traces.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace bsched::bench {

namespace {

/** Sampler period used for --trace runs when --sample-every is unset. */
constexpr Cycle kDefaultSamplePeriod = 512;

} // namespace

long
parsePositive(const char* flag, const char* value)
{
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (parsed <= 0 || end == value || *end != '\0')
        fatal(flag, " expects a positive integer, got '", value, "'");
    return parsed;
}

BenchOptions
parseArgs(int argc, char** argv)
{
    setLogLevelFromEnv();

    BenchOptions opts;
    unsigned requested = 0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc)
                fatal(flag, " requires a value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--jobs") == 0) {
            requested = static_cast<unsigned>(
                parsePositive("--jobs", next("--jobs")));
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            requested =
                static_cast<unsigned>(parsePositive("--jobs", arg + 7));
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            requested =
                static_cast<unsigned>(parsePositive("-j", arg + 2));
        } else if (std::strcmp(arg, "--trace") == 0) {
            opts.tracePath = next("--trace");
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            opts.tracePath = arg + 8;
        } else if (std::strcmp(arg, "--profile") == 0) {
            opts.profilePath = next("--profile");
        } else if (std::strncmp(arg, "--profile=", 10) == 0) {
            opts.profilePath = arg + 10;
        } else if (std::strcmp(arg, "--mem-profile") == 0) {
            opts.memProfilePath = next("--mem-profile");
        } else if (std::strncmp(arg, "--mem-profile=", 14) == 0) {
            opts.memProfilePath = arg + 14;
        } else if (std::strcmp(arg, "--serve-trace") == 0) {
            opts.serveTracePath = next("--serve-trace");
        } else if (std::strncmp(arg, "--serve-trace=", 14) == 0) {
            opts.serveTracePath = arg + 14;
        } else if (std::strcmp(arg, "--phase") == 0) {
            opts.phasePath = next("--phase");
        } else if (std::strncmp(arg, "--phase=", 8) == 0) {
            opts.phasePath = arg + 8;
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.progress = true;
        } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
            // Escape hatch: force plain cycle-by-cycle stepping in every
            // simulation this process runs (results are byte-identical
            // either way; this exists to prove exactly that).
            setDefaultFastForward(false);
        } else if (std::strcmp(arg, "--emit-json") == 0) {
            opts.emitJsonPath = next("--emit-json");
        } else if (std::strncmp(arg, "--emit-json=", 12) == 0) {
            opts.emitJsonPath = arg + 12;
        } else if (std::strcmp(arg, "--sample-every") == 0) {
            opts.sampleEvery = static_cast<Cycle>(
                parsePositive("--sample-every", next("--sample-every")));
        } else if (std::strncmp(arg, "--sample-every=", 15) == 0) {
            opts.sampleEvery = static_cast<Cycle>(
                parsePositive("--sample-every", arg + 15));
        } else if (std::strcmp(arg, "--log") == 0) {
            setLogLevel(parseLogLevel(next("--log")));
        } else if (std::strncmp(arg, "--log=", 6) == 0) {
            setLogLevel(parseLogLevel(arg + 6));
        } else {
            fatal("unknown argument '", arg,
                  "' (figures accept --jobs N, --trace FILE, "
                  "--profile FILE, --mem-profile FILE, --serve-trace FILE, "
                  "--phase FILE, --emit-json FILE, --sample-every N, "
                  "--progress, --no-fast-forward, --log LEVEL)");
        }
    }
    opts.jobs = resolveJobs(requested);
    if (!opts.progress) {
        const char* env = std::getenv("BSCHED_PROGRESS");
        opts.progress = env != nullptr && *env != '\0' &&
            std::strcmp(env, "0") != 0;
    }
    setHarnessProgress(opts.progress);
    return opts;
}

void
writeReport(const BenchOptions& opts, const BenchReport& report)
{
    if (opts.emitJsonPath.empty())
        return;
    const std::size_t bytes =
        writeFile(opts.emitJsonPath, [&](std::ostream& os) {
            report.writeJson(os);
        });
    std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                 opts.emitJsonPath.c_str(), bytes);
}

void
writeServeTraceArtifact(const BenchOptions& opts)
{
    if (opts.serveTracePath.empty())
        return;

    // Everything here is pinned — trace, policy, machine — so the
    // artifact bytes never depend on which binary wrote it, on --jobs,
    // or on fast-forward.
    const ServeTraceDef def = canonicalServeTrace();
    const GpuConfig config =
        makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
    ServeConfig serve;
    serve.policy = ServePolicy::ReorderPreempt;

    ServeTrace trace;
    ServingEngine engine(config, serve);
    engine.setTrace(&trace);
    const ServingRunResult result = engine.run(generateTrace(def.spec));

    ServeTraceReport report("serve_trace");
    report.addRun(toString(serve.policy), def.name, result, trace);
    const std::size_t bytes =
        writeFile(opts.serveTracePath, [&](std::ostream& os) {
            report.writeJson(os);
        });
    std::fprintf(stderr,
                 "wrote %s (%zu bytes, %s/%s, %zu decisions)\n",
                 opts.serveTracePath.c_str(), bytes, def.name.c_str(),
                 toString(serve.policy),
                 trace.audit.decisions.size());
}

void
writeRunArtifacts(const BenchOptions& opts, const GpuConfig& config,
                  const KernelInfo& kernel, const std::string& label)
{
    writeServeTraceArtifact(opts);

    const bool want_trace = !opts.tracePath.empty();
    const bool want_profile = !opts.profilePath.empty();
    const bool want_mem = !opts.memProfilePath.empty();
    const bool want_phase = !opts.phasePath.empty();
    if (!want_trace && !want_profile && !want_mem && !want_phase)
        return;

    const Cycle period =
        opts.sampleEvery > 0 ? opts.sampleEvery : kDefaultSamplePeriod;
    Tracer tracer(config.numCores, config.numMemPartitions);
    IntervalSampler sampler(period);
    CycleProfiler profiler;
    MemProfiler mem_profiler;
    PhaseTelemetry phase;
    Observer obs;
    if (want_trace) {
        obs.tracer = &tracer;
        obs.sampler = &sampler;
    }
    if (want_profile)
        obs.profiler = &profiler;
    // --phase rides the memory profiler so the exported windows carry
    // the interference channels; the detectors themselves never read
    // them, so boundaries match a phase-only attachment.
    if (want_mem || want_phase)
        obs.memProfiler = &mem_profiler;
    if (want_phase)
        obs.phase = &phase;
    runKernel(config, kernel, obs);

    if (want_trace) {
        const std::size_t bytes =
            writeFile(opts.tracePath, [&](std::ostream& os) {
                tracer.writeChromeTrace(os, &sampler);
            });
        std::fprintf(stderr, "wrote %s (%zu bytes, %s, %llu events",
                     opts.tracePath.c_str(), bytes, label.c_str(),
                     static_cast<unsigned long long>(tracer.recorded()));
        if (tracer.dropped() > 0) {
            std::fprintf(stderr, ", %llu dropped",
                         static_cast<unsigned long long>(tracer.dropped()));
        }
        std::fprintf(stderr, ")\n");
    }
    if (want_profile) {
        const std::size_t bytes =
            writeFile(opts.profilePath, [&](std::ostream& os) {
                writeProfileJson(os, profiler, label);
            });
        std::fprintf(stderr, "wrote %s (%zu bytes, %s)\n",
                     opts.profilePath.c_str(), bytes, label.c_str());
    }
    if (want_mem) {
        const std::size_t bytes =
            writeFile(opts.memProfilePath, [&](std::ostream& os) {
                writeMemProfileJson(os, mem_profiler, label);
            });
        std::fprintf(stderr, "wrote %s (%zu bytes, %s, %llu requests)\n",
                     opts.memProfilePath.c_str(), bytes, label.c_str(),
                     static_cast<unsigned long long>(
                         mem_profiler.completedRequests()));
    }
    if (want_phase) {
        const std::size_t bytes =
            writeFile(opts.phasePath, [&](std::ostream& os) {
                writePhaseJson(os, phase, label);
            });
        std::fprintf(stderr, "wrote %s (%zu bytes, %s, %zu windows, "
                             "%zu phases)\n",
                     opts.phasePath.c_str(), bytes, label.c_str(),
                     phase.metrics().windows(),
                     phase.machine().phases().size());
    }
}

GridResults
runKernelGrid(const std::vector<KernelInfo>& kernels,
              const std::vector<GpuConfig>& configs, unsigned jobs)
{
    std::vector<SimPoint> points;
    points.reserve(kernels.size() * configs.size());
    for (const KernelInfo& kernel : kernels) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            points.push_back({configs[c], kernel,
                              kernel.name + "/cfg" + std::to_string(c)});
        }
    }
    GridResults results;
    results.numConfigs = configs.size();
    results.flat = runGrid(points, jobs);
    return results;
}

GridResults
runWorkloadGrid(const std::vector<std::string>& names,
                const std::vector<GpuConfig>& configs, unsigned jobs)
{
    std::vector<KernelInfo> kernels;
    kernels.reserve(names.size());
    for (const std::string& name : names)
        kernels.push_back(makeWorkload(name));
    return runKernelGrid(kernels, configs, jobs);
}

} // namespace bsched::bench
