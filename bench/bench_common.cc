#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

/** One bench flag, spelled once for every form it accepts:
 *  `--name VALUE`, `--name=VALUE` and, given a short form, `-sVALUE`. */
struct Flag
{
    const char* name;
    const char* value;     ///< value placeholder; nullptr for a switch
    const char* shortName; ///< attached-value short form, or nullptr
    Cli cli;               ///< the narrowest binary kind honouring it
    void (*apply)(BenchOptions& opts, const char* spelled, const char* value);
};

/** Flag::apply of a FILE flag: store the path in @p Field. */
template <std::string BenchOptions::*Field>
void
setPath(BenchOptions& opts, const char*, const char* value)
{
    opts.*Field = value;
}

/** The bench command line: parsing and usage text both come from here. */
const Flag kFlags[] = {
    {"--jobs", "N", "-j", Cli::Microbench,
     [](BenchOptions& o, const char* f, const char* v) {
         o.jobs = static_cast<unsigned>(parsePositive(f, v));
     }},
    {"--trace", "FILE", nullptr, Cli::Figure,
     setPath<&BenchOptions::tracePath>},
    {"--profile", "FILE", nullptr, Cli::Figure,
     setPath<&BenchOptions::profilePath>},
    {"--mem-profile", "FILE", nullptr, Cli::Figure,
     setPath<&BenchOptions::memProfilePath>},
    {"--serve-trace", "FILE", nullptr, Cli::Microbench,
     setPath<&BenchOptions::serveTracePath>},
    {"--phase", "FILE", nullptr, Cli::Figure,
     setPath<&BenchOptions::phasePath>},
    {"--emit-json", "FILE", nullptr, Cli::Microbench,
     setPath<&BenchOptions::emitJsonPath>},
    {"--sample-every", "N", nullptr, Cli::Figure,
     [](BenchOptions& o, const char* f, const char* v) {
         o.sampleEvery = static_cast<Cycle>(parsePositive(f, v));
     }},
    {"--progress", nullptr, nullptr, Cli::Table,
     [](BenchOptions& o, const char*, const char*) { o.progress = true; }},
    // Escape hatch: force plain cycle-by-cycle stepping in every
    // simulation this process runs (results are byte-identical either
    // way; this exists to prove exactly that).
    {"--no-fast-forward", nullptr, nullptr, Cli::Microbench,
     [](BenchOptions&, const char*, const char*) {
         setDefaultFastForward(false);
     }},
    {"--log", "LEVEL", nullptr, Cli::Table,
     [](BenchOptions&, const char*, const char* v) {
         setLogLevel(parseLogLevel(v));
     }},
};

/** "--jobs N, -jN, --trace FILE, ..." over the flags @p cli honours. */
std::string
usage(Cli cli)
{
    std::string out;
    for (const Flag& f : kFlags) {
        if (f.cli > cli)
            continue;
        out += out.empty() ? "" : ", ";
        out += f.name;
        if (f.value != nullptr)
            out += std::string(" ") + f.value;
        if (f.shortName != nullptr)
            out += std::string(", ") + f.shortName + f.value;
    }
    return out;
}

/** The table entry @p arg spells, with its attached value (if any). */
const Flag*
matchFlag(const char* arg, const char*& value)
{
    for (const Flag& f : kFlags) {
        const std::size_t n = std::strlen(f.name);
        if (std::strncmp(arg, f.name, n) == 0 &&
            (arg[n] == '\0' || (arg[n] == '=' && f.value != nullptr))) {
            value = arg[n] == '=' ? arg + n + 1 : nullptr;
            return &f;
        }
        if (f.shortName != nullptr) {
            const std::size_t k = std::strlen(f.shortName);
            if (std::strncmp(arg, f.shortName, k) == 0 && arg[k] != '\0') {
                value = arg + k;
                return &f;
            }
        }
    }
    return nullptr;
}

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
parseArgs(int& argc, char** argv, Cli cli)
{
    const bool passthrough = cli == Cli::Microbench;
    if (!passthrough)
        setLogLevelFromEnv();

    BenchOptions opts;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const char* value = nullptr;
        const Flag* flag = matchFlag(arg, value);
        if (flag == nullptr && passthrough) {
            argv[kept++] = argv[i]; // google-benchmark's to judge
            continue;
        }
        if (flag == nullptr)
            fatal("unknown argument '", arg, "' (accepted: ", usage(cli),
                  ")");
        if (flag->cli > cli)
            fatal(flag->name, " does not apply to this binary (accepted: ",
                  usage(cli), ")");
        const char* spelled = arg[1] == '-' ? flag->name : flag->shortName;
        if (flag->value != nullptr && value == nullptr) {
            // A separate value never starts with '-': that entry is the
            // next flag, and this one was given no value (a value that
            // does start with '-' can still be attached: --flag=VALUE).
            if (i + 1 >= argc || argv[i + 1][0] == '-')
                fatal(flag->name, " requires a value");
            value = argv[++i];
        }
        flag->apply(opts, spelled, value);
    }
    argc = kept;

    opts.jobs = resolveJobs(opts.jobs);
    if (!passthrough) {
        const char* env = std::getenv("BSCHED_PROGRESS");
        opts.progress = opts.progress ||
            (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0);
        setHarnessProgress(opts.progress);
    }
    return opts;
}

void
writeArtifact(const std::string& path, const std::string& detail,
              const std::function<void(std::ostream&)>& body)
{
    const std::size_t bytes = writeFile(path, body);
    std::fprintf(stderr, "wrote %s (%zu bytes%s%s)\n", path.c_str(), bytes,
                 detail.empty() ? "" : ", ", detail.c_str());
}

void
writeReport(const BenchOptions& opts, const BenchReport& report)
{
    if (!opts.emitJsonPath.empty()) {
        writeArtifact(opts.emitJsonPath, "",
                      [&](std::ostream& os) { report.writeJson(os); });
    }
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
    writeArtifact(opts.serveTracePath,
                  def.name + "/" + toString(serve.policy) + ", " +
                      std::to_string(trace.audit.decisions.size()) +
                      " decisions",
                  [&](std::ostream& os) { report.writeJson(os); });
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
        std::string detail =
            label + ", " + std::to_string(tracer.recorded()) + " events";
        if (tracer.dropped() > 0)
            detail += ", " + std::to_string(tracer.dropped()) + " dropped";
        writeArtifact(opts.tracePath, detail, [&](std::ostream& os) {
            tracer.writeChromeTrace(os, &sampler);
        });
    }
    if (want_profile) {
        writeArtifact(opts.profilePath, label, [&](std::ostream& os) {
            writeProfileJson(os, profiler, label);
        });
    }
    if (want_mem) {
        writeArtifact(opts.memProfilePath,
                      label + ", " +
                          std::to_string(mem_profiler.completedRequests()) +
                          " requests",
                      [&](std::ostream& os) {
                          writeMemProfileJson(os, mem_profiler, label);
                      });
    }
    if (want_phase) {
        writeArtifact(opts.phasePath,
                      label + ", " +
                          std::to_string(phase.metrics().windows()) +
                          " windows, " +
                          std::to_string(phase.machine().phases().size()) +
                          " phases",
                      [&](std::ostream& os) {
                          writePhaseJson(os, phase, label);
                      });
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
