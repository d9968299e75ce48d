/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--workers N] [--spans-out FILE]
 *
 * --trace 0 times reps of the workload's fixed simulated work for about
 * S seconds, rescales the host times by the drift probe and prints the
 * end-to-end metrics; --trace 1 runs one plain rep, one traced rep and
 * the profiled passes, writes the spans to --spans-out and prints the
 * per-layer metrics. The last line of standard output is one JSON
 * object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hh"
#include "perfbench.hh"

namespace {

using namespace perfbench;

struct MetricDef
{
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    {"sim_lcs_speedup", "ratio"},
    {"sim_mck_stp", "ratio"},
    {"sim_p50_latency_kcycles", "kcycles"},
    {"sim_p90_latency_kcycles", "kcycles"},
    {"sim_deadline_miss_rate", "fraction"},
};

const std::vector<MetricDef> kPerLayer = {
    {"gpu.busy_step_ns", "ns"},
    {"gpu.ff_jump_ns", "ns"},
    {"gpu.elided_frac", "fraction"},
    {"gpu.stats_s", "s"},
    {"gpu.construct_s", "s"},
    {"cta.dispatches", "count"},
    {"cta.lcs_nopt_mean", "ctas"},
    {"cta.drain_requests", "count"},
    {"core.instrs", "count"},
    {"core.issued_share", "fraction"},
    {"core.scoreboard_share", "fraction"},
    {"core.mem_structural_share", "fraction"},
    {"core.barrier_share", "fraction"},
    {"core.pipeline_share", "fraction"},
    {"core.empty_share", "fraction"},
    {"mem.l1d_miss_rate", "fraction"},
    {"mem.l2_miss_rate", "fraction"},
    {"mem.dram_row_hit_rate", "fraction"},
    {"mem.mshr_stalls", "count"},
    {"mem.req_latency_p50_cycles", "cycles"},
    {"mem.dram_queue_share", "fraction"},
    {"mem.cross_cta_evictions", "count"},
    {"harness.points", "count"},
    {"harness.point_s_sum", "s"},
    {"harness.parallel_eff", "fraction"},
    {"harness.straggler_s", "s"},
    {"serve.requests", "count"},
    {"serve.completed", "count"},
    {"serve.decisions", "count"},
    {"serve.defers", "count"},
    {"serve.preemptions", "count"},
    {"serve.reorders", "count"},
    {"serve.queue_wait_p50_cycles", "cycles"},
    {"serve.predictor_err_p50_cycles", "cycles"},
    {"serve.drain_latency_cycles", "cycles"},
    {"serve.run_s", "s"},
    {"serve.trace_gen_s", "s"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "bytes"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.parse_s", "s"},
    {"workloads.build_s", "s"},
    {"bench.trace_overhead_ratio", "ratio"},
};

/** Set-up samples per run; setup_s is their median. */
constexpr int kSetupReps = 21;

/**
 * Host times are rescaled to a host on which one drift probe takes this
 * long: a rep's seconds x kNominalProbeS / the probes around it. The
 * host's speed drifts by tens of percent over minutes; the probe runs no
 * simulator code, so the rescaling removes most of that drift and none
 * of a change to the program.
 */
constexpr double kNominalProbeS = 0.1;

/**
 * A sim_* metric a workload does not simulate still has to appear in
 * the result line and may not read 0; it reads this placeholder, and
 * the info line lists it.
 */
constexpr double kPlaceholder = 1.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    unsigned workers = 2;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload figure_sweep|serve_burst|"
                 "trace_export --seed N --seconds S --trace 0|1 "
                 "[--workers N] [--spans-out FILE]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0')
        usage(flag + " needs a whole number, got '" + text + "'");
    return value;
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parseUnsigned(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            const std::uint64_t trace = parseUnsigned(flag, value);
            if (trace > 1)
                usage("--trace takes 0 or 1");
            args.trace = trace == 1;
            have_trace = true;
        } else if (flag == "--workers") {
            const std::uint64_t workers = parseUnsigned(flag, value);
            if (workers < 1 || workers > 64)
                usage("--workers takes 1 to 64");
            args.workers = static_cast<unsigned>(workers);
        } else if (flag == "--spans-out") {
            args.spansOut = value;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (args.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (args.seconds < 1.0)
        usage("--seconds must be at least 1");
    return args;
}

double
peakRssMb()
{
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    return static_cast<double>(usage_now.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** A JSON number with every digit the double holds. */
std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
numList(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i == 0 ? "" : ",") + num(values[i]);
    return out + "]";
}

std::string
strList(const std::vector<std::string>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i == 0 ? "\"" : ",\"") + bsched::jsonEscape(values[i]) + "\"";
    return out + "]";
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload =
        makeBenchWorkload(args.workload, args.seed);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    Checks checks;
    const double probe_before = driftProbe(args.seed);

    // Set-up: build every input a rep needs, several times; the last
    // build is the one the reps use, and the traced run records its spans.
    Spans spans;
    std::vector<double> setup_s, build_s, construct_s, trace_gen_s;
    for (int i = 0; i < kSetupReps; ++i) {
        SetupTimes times;
        if (args.trace && i + 1 == kSetupReps) {
            times.spans = &spans;
            times.parent = spans.begin("bench.setup", -1);
        }
        const Clock::time_point start = Clock::now();
        workload->setup(times);
        setup_s.push_back(secondsSince(start));
        if (times.spans != nullptr)
            spans.end(times.parent);
        build_s.push_back(times.buildS);
        construct_s.push_back(times.constructS);
        trace_gen_s.push_back(times.traceGenS);
    }

    RunContext ctx;
    ctx.workers = args.workers;
    ctx.checks = &checks;

    std::vector<std::pair<std::string, double>> metrics;
    std::vector<double> walls;
    std::vector<double> probes = {probe_before};
    std::vector<std::string> placeholders;
    RepOutcome first;
    double trace_overhead = 0.0;

    if (!args.trace) {
        // Reps of the fixed work until the window is spent; a rep starts
        // only while at least half of it fits. A drift probe follows each
        // rep, so every rep is bracketed by two.
        std::vector<double> scaled;
        const Clock::time_point window = Clock::now();
        for (int rep = 1;; ++rep) {
            const Clock::time_point start = Clock::now();
            const RepOutcome out = workload->run(ctx);
            const double wall = secondsSince(start);
            probes.push_back(driftProbe(args.seed));
            walls.push_back(wall);
            scaled.push_back(wall * kNominalProbeS /
                             (0.5 * (probes[probes.size() - 2] +
                                     probes.back())));
            if (rep == 1) {
                first = out;
            } else {
                checks.expect(out.digest == first.digest &&
                                  out.sim == first.sim,
                              "rep " + std::to_string(rep) +
                                  ": simulated results differ");
            }
            if (secondsSince(window) + 0.5 * wall > args.seconds)
                break;
        }
        const double wall_s = median(scaled);
        metrics.emplace_back("wall_s", wall_s);
        metrics.emplace_back("sim_cycles_per_s",
                             wall_s > 0.0 ? first.simCycles / wall_s : 0.0);
        metrics.emplace_back("peak_rss_mb", peakRssMb());
        metrics.emplace_back("setup_s",
                             median(setup_s) * kNominalProbeS / probe_before);
        for (const MetricDef& def : kEndToEnd) {
            const std::string name = def.name;
            if (name.rfind("sim_", 0) != 0 || name == "sim_cycles_per_s")
                continue;
            const auto it = first.sim.find(name);
            if (it != first.sim.end()) {
                checks.expect(it->second > 0.0 && std::isfinite(it->second),
                              name + " is not a positive number");
                metrics.emplace_back(name, it->second);
            } else {
                placeholders.push_back(name);
                metrics.emplace_back(name, kPlaceholder);
            }
        }
    } else {
        Layers layers;
        // A plain rep for the overhead baseline, then the traced rep.
        const Clock::time_point plain_start = Clock::now();
        first = workload->run(ctx);
        const double plain_s = secondsSince(plain_start);

        RunContext traced = ctx;
        traced.spans = &spans;
        traced.layers = &layers;
        traced.parent = spans.begin("bench.tracedRep", -1);
        const Clock::time_point traced_start = Clock::now();
        const RepOutcome out = workload->run(traced);
        const double traced_s = secondsSince(traced_start);
        spans.end(traced.parent);
        walls = {plain_s, traced_s};
        checks.expect(out.digest == first.digest && out.sim == first.sim,
                      "traced rep: simulated results differ from the plain "
                      "rep");
        trace_overhead = plain_s > 0.0 ? traced_s / plain_s : 0.0;

        traced.parent = spans.begin("bench.profile", -1);
        workload->profile(traced);
        spans.end(traced.parent);

        layers["bench.trace_overhead_ratio"] = trace_overhead;
        layers["workloads.build_s"] = median(build_s);
        layers["gpu.construct_s"] = median(construct_s);
        layers["serve.trace_gen_s"] = median(trace_gen_s);
        for (const MetricDef& def : kPerLayer) {
            const auto it = layers.find(def.name);
            metrics.emplace_back(def.name,
                                 it != layers.end() ? it->second : 0.0);
        }
        for (const auto& [name, value] : layers) {
            bool known = false;
            for (const MetricDef& def : kPerLayer)
                known = known || name == def.name;
            checks.expect(known, "unlisted per-layer metric " + name);
        }
        if (!args.spansOut.empty()) {
            std::ofstream os(args.spansOut);
            os << spans.toJson(args.workload);
            checks.expect(static_cast<bool>(os),
                          "cannot write " + args.spansOut);
        }
        probes.push_back(driftProbe(args.seed));
    }

    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"workers\":%u,\"trace\":%d,"
        "\"sim_digest\":\"%s\",\"requests\":%llu,\"rep_wall_s\":%s,"
        "\"drift_probe_s\":%s,\"trace_overhead_ratio\":%s,"
        "\"placeholder_metrics\":%s,\"failures\":%s}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.workers, args.trace ? 1 : 0, first.digest.c_str(),
        static_cast<unsigned long long>(first.requests),
        numList(walls).c_str(), numList(probes).c_str(),
        num(trace_overhead).c_str(),
        strList(placeholders).c_str(), strList(checks.failures()).c_str());

    std::string out = "{\"correct\":";
    out += checks.failed() == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(checks.attempted());
    out += ",\"failed\":" + std::to_string(checks.failed());
    out += ",\"metrics\":{";
    const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const char* unit = "";
        for (const MetricDef& def : defs) {
            if (metrics[i].first == def.name)
                unit = def.unit;
        }
        const double value =
            std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
        out += (i == 0 ? "\"" : ",\"") + metrics[i].first +
            "\":{\"value\":" + num(value) + ",\"unit\":\"" + unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
