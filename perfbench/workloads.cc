/**
 * @file
 * The benchmark's three workloads. Every simulated input is fixed: the
 * seed never reaches a kernel, a sweep point, a config or the serving
 * trace, so every seed simulates the same work and gives the same
 * sim_* metrics and sim_digest. Every simulated run starts from a
 * freshly constructed Gpu, so caches start cold, as in the figure
 * binaries.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <sstream>

#include "gpu/multi_kernel.hh"
#include "harness/parallel_runner.hh"
#include "obs/json.hh"
#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "perfbench.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/traffic.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace bsched;

namespace {

/** Span names are "layer.call:subject". */
std::string
spanName(const std::string& call, const std::string& subject)
{
    return call + ":" + subject;
}

/** Build suite kernels by name, timing makeWorkload. */
std::map<std::string, KernelInfo>
buildKernels(const std::vector<std::string>& names, SetupTimes& times)
{
    std::map<std::string, KernelInfo> kernels;
    for (const std::string& name : names) {
        const ScopedSpan span(times.spans,
                              spanName("workloads.makeWorkload", name),
                              times.parent);
        kernels.emplace(name, makeWorkload(name));
        times.buildS += span.seconds();
    }
    return kernels;
}

/** Construct (and drop) one launched Gpu, timing the constructor. */
void
constructGpu(const GpuConfig& config,
             const std::vector<const KernelInfo*>& kernels,
             SetupTimes& times, Observer obs = {})
{
    std::string subject;
    for (const KernelInfo* kernel : kernels)
        subject += (subject.empty() ? "" : "+") + kernel->name;
    if (subject.empty())
        subject = "no-kernel";
    const ScopedSpan span(times.spans, spanName("gpu.Gpu", subject),
                          times.parent);
    Gpu gpu(config, obs);
    for (const KernelInfo* kernel : kernels)
        gpu.launchKernel(*kernel);
    times.constructS += span.seconds();
}

bool
instrsMatch(double issued, std::uint64_t expected)
{
    return issued == static_cast<double>(expected);
}

// ---------------------------------------------------------------------------
// Host-time accounting of the parallel harness (traced run only).

/** Fan-out bookkeeping: per-point host times and fan-out walls. */
struct HarnessFold
{
    std::uint64_t points = 0;
    double pointSum = 0.0;
    double wallSum = 0.0;
    double straggler = 0.0;
    unsigned workers = 1;

    void
    addFanOut(const std::vector<double>& point_s, double wall)
    {
        double sum = 0.0;
        for (const double s : point_s)
            sum += s;
        points += point_s.size();
        pointSum += sum;
        wallSum += wall;
        // Tail time a perfectly balanced split would not have spent.
        straggler += std::max(0.0, wall - sum / workers);
    }

    void
    report(Layers& layers) const
    {
        layers["harness.points"] = static_cast<double>(points);
        layers["harness.point_s_sum"] = pointSum;
        layers["harness.parallel_eff"] =
            wallSum > 0.0 ? pointSum / (wallSum * workers) : 0.0;
        layers["harness.straggler_s"] = straggler;
    }
};

/** One single-kernel simulation point. */
struct Point
{
    const GpuConfig* config = nullptr;
    const KernelInfo* kernel = nullptr;
    std::string label;
};

// ---------------------------------------------------------------------------
// figure_sweep: the paper-figure path (oracle sweeps, LCS, BCS, MCK).

class FigureSweep final : public Workload
{
  public:
    void
    setup(SetupTimes& times) override
    {
        kernels_ = buildKernels(
            {"hs", "kmeans", "pf", "gemm", "srad", "lavamd"}, times);
        rr_ = makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
        lcs_ = makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
        bcs_ = makeConfig(WarpSchedKind::GTO, CtaSchedKind::Block);
        // One Gpu per simulation a rep runs.
        for (const std::string& name : kSweep) {
            const KernelInfo& k = kernels_.at(name);
            GpuConfig limited = rr_;
            for (std::uint32_t limit = 1;
                 limit <= maxCtasPerCore(rr_, k); ++limit) {
                limited.staticCtaLimit = limit;
                constructGpu(limited, {&k}, times);
            }
            constructGpu(lcs_, {&k}, times);
            constructGpu(bcs_, {&k}, times);
        }
        for (const std::string& name : mckKernels())
            constructGpu(rr_, {&kernels_.at(name)}, times);
        for (const auto& [a, b] : kPairs) {
            for (int policy = 0; policy < 3; ++policy) {
                constructGpu(policy == 2 ? lcs_ : rr_,
                             {&kernels_.at(a), &kernels_.at(b)}, times);
            }
        }
    }

    RepOutcome
    run(const RunContext& ctx) override
    {
        Checks& checks = *ctx.checks;
        const ParallelRunner runner(ctx.workers);
        HarnessFold harness;
        harness.workers = runner.jobs();
        StepFold steps;
        std::vector<const StatSet*> stat_sets;
        Digest digest;
        RepOutcome out;

        // 1. The round-robin static CTA-limit sweep of each kernel, one
        //    fan-out per kernel as fig_lcs_speedup runs them.
        std::vector<OracleResult> oracles;
        oracles.reserve(kSweep.size()); // stat_sets points into it
        for (const std::string& name : kSweep) {
            const KernelInfo& k = kernels_.at(name);
            ScopedSpan span(ctx.spans,
                            spanName("harness.oracleStaticBest", name),
                            ctx.parent);
            if (ctx.traced()) {
                oracles.push_back(steppedOracle(runner, k, ctx.spans, span.id(),
                                            harness, steps));
            } else {
                oracles.push_back(oracleStaticBest(rr_, k, ctx.workers));
            }
            const OracleResult& oracle = oracles.back();
            for (std::size_t i = 0; i < oracle.byLimit.size(); ++i) {
                const RunResult& r = oracle.byLimit[i];
                checks.expect(instrsMatch(static_cast<double>(r.instrs),
                                          k.totalDynamicInstrs()),
                              name + "/limit" + std::to_string(i + 1) +
                                  ": issued instructions != grid total");
                digest.add(r);
                out.simCycles += static_cast<double>(r.cycles);
                stat_sets.push_back(&r.stats);
            }
            digest.add(static_cast<double>(oracle.bestLimit));
        }

        // 2. One fan-out: the LCS and BCS point of each kernel plus the
        //    isolated baselines the MCK runs share through the cache.
        std::vector<Point> points;
        for (const std::string& name : kSweep) {
            points.push_back({&lcs_, &kernels_.at(name), name + "/lcs"});
            points.push_back({&bcs_, &kernels_.at(name), name + "/bcs"});
        }
        const std::size_t n_policy_points = points.size();
        for (const std::string& name : mckKernels())
            points.push_back({&rr_, &kernels_.at(name), name + "/isolated"});
        const std::vector<RunResult> results =
            fanOut(runner, points, ctx.spans, ctx.parent, harness, steps);
        IsolatedCycleCache cache;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunResult& r = results[i];
            checks.expect(instrsMatch(static_cast<double>(r.instrs),
                                      points[i].kernel->totalDynamicInstrs()),
                          points[i].label +
                              ": issued instructions != grid total");
            digest.add(r);
            out.simCycles += static_cast<double>(r.cycles);
            stat_sets.push_back(&r.stats);
            if (i >= n_policy_points) {
                cache.insert(IsolatedCycleCache::key(rr_, *points[i].kernel),
                             static_cast<Cycle>(
                                 r.stats.get("kernel0.cycles")));
            }
        }

        // 3. MCK: each pair under Sequential, Spatial and Mixed, sharing
        //    the warmed isolated-baseline cache.
        const std::array<MultiKernelPolicy, 3> policies = {
            MultiKernelPolicy::Sequential, MultiKernelPolicy::Spatial,
            MultiKernelPolicy::Mixed};
        const std::size_t n_mck = kPairs.size() * policies.size();
        std::vector<double> point_s(n_mck, 0.0);
        const Clock::time_point fan_start = Clock::now();
        const std::vector<MultiKernelReport> reports =
            runner.map<MultiKernelReport>(n_mck, [&](std::size_t i) {
                const auto& [a, b] = kPairs[i / policies.size()];
                const MultiKernelPolicy policy = policies[i % policies.size()];
                ScopedSpan span(ctx.spans,
                                spanName("gpu.runMultiKernel",
                                         a + "+" + b + "/" +
                                             toString(policy)),
                                ctx.parent);
                const std::vector<const KernelInfo*> pair = {
                    &kernels_.at(a), &kernels_.at(b)};
                MultiKernelReport report =
                    runMultiKernel(rr_, pair, policy, {}, nullptr, &cache);
                point_s[i] = span.seconds();
                return report;
            });
        harness.addFanOut(point_s, secondsSince(fan_start));

        std::vector<double> stps;
        for (std::size_t i = 0; i < n_mck; ++i) {
            const auto& [a, b] = kPairs[i / policies.size()];
            const MultiKernelReport& rep = reports[i];
            const std::string label =
                a + "+" + b + "/" + toString(rep.policy);
            const KernelInfo& ka = kernels_.at(a);
            const KernelInfo& kb = kernels_.at(b);
            bool ok = instrsMatch(rep.stats.get("gpu.instrs"),
                                  ka.totalDynamicInstrs() +
                                      kb.totalDynamicInstrs());
            ok = ok && rep.sharedCycles.size() == 2 &&
                rep.isolatedCycles.size() == 2 &&
                rep.sharedCycles[0] > 0 && rep.sharedCycles[1] > 0 &&
                rep.isolatedCycles[0] ==
                    static_cast<Cycle>(
                        results[n_policy_points + mckIndex(a)].stats.get(
                            "kernel0.cycles")) &&
                rep.isolatedCycles[1] ==
                    static_cast<Cycle>(
                        results[n_policy_points + mckIndex(b)].stats.get(
                            "kernel0.cycles"));
            checks.expect(ok, label + ": instructions or cycles inconsistent");
            digest.add(label);
            digest.add(static_cast<double>(rep.totalCycles));
            for (std::size_t k = 0; k < rep.sharedCycles.size(); ++k) {
                digest.add(static_cast<double>(rep.sharedCycles[k]));
                digest.add(static_cast<double>(rep.isolatedCycles[k]));
            }
            digest.add(rep.stats);
            out.simCycles += static_cast<double>(rep.totalCycles);
            stat_sets.push_back(&rep.stats);
            if (rep.policy == MultiKernelPolicy::Mixed && rep.stp() > 0.0)
                stps.push_back(rep.stp());
        }

        // The paper's LCS headline: LCS IPC over round-robin IPC at the
        // maximum CTA count, geomean over the sweep kernels.
        std::vector<double> lcs_ratios;
        for (std::size_t k = 0; k < kSweep.size(); ++k) {
            const OracleResult& oracle = oracles[k];
            const double rr_ipc = oracle.byLimit.back().ipc;
            const double lcs_ipc = results[2 * k].ipc;
            if (rr_ipc > 0.0 && lcs_ipc > 0.0)
                lcs_ratios.push_back(lcs_ipc / rr_ipc);
        }
        checks.expect(lcs_ratios.size() == kSweep.size() &&
                          stps.size() == kPairs.size(),
                      "figure_sweep: missing IPC or STP");
        out.sim["sim_lcs_speedup"] =
            lcs_ratios.empty() ? 0.0 : geomean(lcs_ratios);
        out.sim["sim_mck_stp"] = stps.empty() ? 0.0 : geomean(stps);
        out.digest = digest.hex();

        if (ctx.traced()) {
            Layers& layers = *ctx.layers;
            setStepLayers(layers, steps);
            harness.report(layers);
            setStatLayers(layers, stat_sets);
        }
        return out;
    }

    void
    profile(const RunContext& ctx) override
    {
        // Core and memory stall attribution of the LCS point of each
        // sweep kernel, merged over the kernels.
        ProfileTotals totals;
        for (const std::string& name : kSweep) {
            ScopedSpan span(ctx.spans, spanName("obs.profiledRun", name),
                            ctx.parent);
            const KernelInfo& k = kernels_.at(name);
            CycleProfiler profiler;
            MemProfiler mem_profiler;
            Observer obs;
            obs.profiler = &profiler;
            obs.memProfiler = &mem_profiler;
            const RunResult r = runKernel(lcs_, k, obs);
            totals.add(obs);
            ctx.checks->expect(
                instrsMatch(static_cast<double>(r.instrs),
                            k.totalDynamicInstrs()),
                name + "/lcs profiled: issued instructions != grid total");
        }
        setProfilerLayers(*ctx.layers, totals);
    }

  private:
    /** One sweep kernel per IPC-vs-CTA class: hs (BCS locality) rises
     *  with CTAs, kmeans thrashes L1 and peaks, pf saturates. */
    inline static const std::vector<std::string> kSweep = {"hs", "kmeans",
                                                           "pf"};
    /** Memory-bound + compute-bound MCK pairs. */
    inline static const std::vector<std::pair<std::string, std::string>>
        kPairs = {{"kmeans", "gemm"}, {"srad", "lavamd"}};

    static std::vector<std::string>
    mckKernels()
    {
        return {"kmeans", "gemm", "srad", "lavamd"};
    }

    static std::size_t
    mckIndex(const std::string& name)
    {
        const std::vector<std::string> names = mckKernels();
        return static_cast<std::size_t>(
            std::find(names.begin(), names.end(), name) - names.begin());
    }

    /**
     * Fan @p points out on @p runner. Untraced, each point is a plain
     * runKernel call; traced, each is stepped through the public Gpu
     * API with its stepCycle timings folded into @p steps.
     */
    static std::vector<RunResult>
    fanOut(const ParallelRunner& runner, const std::vector<Point>& points,
           Spans* spans, int parent, HarnessFold& harness, StepFold& steps)
    {
        std::vector<double> point_s(points.size(), 0.0);
        std::vector<StepFold> folds(points.size());
        const Clock::time_point start = Clock::now();
        std::vector<RunResult> results = runner.map<RunResult>(
            points.size(), [&](std::size_t i) {
                const Point& p = points[i];
                ScopedSpan span(spans, spanName("harness.point", p.label),
                                parent);
                RunResult r = spans != nullptr
                    ? steppedRun(*p.config, *p.kernel, Observer{}, folds[i])
                    : runKernel(*p.config, *p.kernel);
                point_s[i] = span.seconds();
                return r;
            });
        harness.addFanOut(point_s, secondsSince(start));
        for (const StepFold& fold : folds)
            steps.merge(fold);
        return results;
    }

    /** oracleStaticBest's sweep and pick, with every point stepped. */
    OracleResult
    steppedOracle(const ParallelRunner& runner, const KernelInfo& kernel,
                  Spans* spans, int parent, HarnessFold& harness,
                  StepFold& steps) const
    {
        OracleResult oracle;
        oracle.maxLimit = maxCtasPerCore(rr_, kernel);
        std::vector<GpuConfig> configs(oracle.maxLimit, rr_);
        std::vector<Point> points;
        for (std::uint32_t limit = 1; limit <= oracle.maxLimit; ++limit) {
            configs[limit - 1].staticCtaLimit = limit;
            points.push_back({&configs[limit - 1], &kernel,
                              kernel.name + "/limit" +
                                  std::to_string(limit)});
        }
        oracle.byLimit = fanOut(runner, points, spans, parent, harness, steps);
        oracle.bestLimit = 1;
        for (std::uint32_t limit = 2; limit <= oracle.maxLimit; ++limit) {
            if (oracle.byLimit[limit - 1].ipc >
                oracle.byLimit[oracle.bestLimit - 1].ipc) {
                oracle.bestLimit = limit;
            }
        }
        return oracle;
    }

    std::map<std::string, KernelInfo> kernels_;
    GpuConfig rr_;
    GpuConfig lcs_;
    GpuConfig bcs_;
};

// ---------------------------------------------------------------------------
// serve_burst: a multi-tenant trace served under reorder+preempt.

/**
 * The shape of bench/serve_traces.hh's bursty_mix, scaled to 102
 * requests so that p90 latency has more than ten requests beyond it:
 * 25 deadline-bound bursts of four short kernels against two long
 * batch kernels. The spec seed is fixed; the benchmark seed never
 * reaches it.
 */
TrafficSpec
burstSpec()
{
    TrafficSpec spec;
    spec.seed = 23;
    TenantSpec latency;
    latency.process = ArrivalProcess::Bursty;
    latency.mix = {"lud", "nw", "lavamd"};
    latency.requests = 100;
    latency.burstLen = 4;
    latency.meanGapCycles = 60000;
    latency.intraBurstGapCycles = 1000;
    latency.deadlineSlack = 150000;
    TenantSpec batch;
    batch.process = ArrivalProcess::Poisson;
    batch.mix = {"bp", "bfs"};
    batch.requests = 2;
    batch.meanGapCycles = 300000;
    spec.tenants = {latency, batch};
    return spec;
}

/** A sampler period no run reaches: only the closing sample is taken,
 *  which carries the cumulative machine counters, and no fast-forward
 *  fence is added. */
constexpr Cycle kClosingSampleOnly = Cycle{1} << 50;

class ServeBurst final : public Workload
{
  public:
    void
    setup(SetupTimes& times) override
    {
        {
            const ScopedSpan span(times.spans,
                                  spanName("serve.generateTrace", "burst"),
                                  times.parent);
            trace_ = generateTrace(burstSpec());
            times.traceGenS += span.seconds();
        }
        std::vector<std::string> names;
        for (const LaunchRequest& req : trace_)
            names.push_back(req.workload);
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
        kernels_ = buildKernels(names, times);
        config_ = makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
        serve_ = ServeConfig{};
        serve_.policy = ServePolicy::ReorderPreempt;
        expectedInstrs_ = 0;
        for (const LaunchRequest& req : trace_)
            expectedInstrs_ += kernels_.at(req.workload).totalDynamicInstrs();
        {
            const ScopedSpan span(times.spans,
                                  spanName("serve.ServingEngine", "burst"),
                                  times.parent);
            const ServingEngine engine(config_, serve_);
            times.constructS += span.seconds();
        }
        constructGpu(config_, {}, times);
    }

    RepOutcome
    run(const RunContext& ctx) override
    {
        Checks& checks = *ctx.checks;
        ServingEngine engine(config_, serve_);
        ServeTrace audit;
        if (ctx.traced())
            engine.setTrace(&audit);
        ServingRunResult result;
        double run_s = 0.0;
        int run_span = ctx.parent;
        {
            ScopedSpan span(ctx.spans, spanName("serve.run", "burst"),
                            ctx.parent);
            result = engine.run(trace_);
            run_s = span.seconds();
            run_span = span.id();
        }

        // Every request finishes exactly once, and its lifecycle is
        // ordered: release == arrival <= admit <= first dispatch <=
        // finish.
        std::map<std::uint64_t, int> seen;
        for (const RequestOutcome& o : result.outcomes)
            ++seen[o.req.seq];
        std::vector<double> latencies;
        std::vector<double> waits;
        std::vector<double> pred_errs;
        std::uint64_t misses = 0;
        std::uint64_t completed = 0;
        Digest digest;
        for (const LaunchRequest& req : trace_) {
            const auto it = std::find_if(
                result.outcomes.begin(), result.outcomes.end(),
                [&](const RequestOutcome& o) { return o.req.seq == req.seq; });
            const std::string what = "request " + std::to_string(req.seq);
            if (seen[req.seq] != 1 || it == result.outcomes.end()) {
                checks.expect(false, what + ": not served exactly once");
                ++misses;
                continue;
            }
            const RequestOutcome& o = *it;
            const bool finished = o.finish != kCycleNever;
            checks.expect(finished && o.release == req.arrival &&
                              o.release <= o.admit &&
                              o.admit <= o.firstDispatch &&
                              o.firstDispatch <= o.finish,
                          what + ": unfinished or lifecycle out of order");
            if (!finished || o.missedDeadline())
                ++misses;
            if (!finished)
                continue;
            ++completed;
            latencies.push_back(static_cast<double>(o.latency()));
            waits.push_back(static_cast<double>(o.admit - o.release));
            pred_errs.push_back(std::fabs(
                static_cast<double>(o.predictedTotal) -
                static_cast<double>(o.finish - o.admit)));
            for (const Cycle c : {o.release, o.admit, o.firstDispatch,
                                  o.finish, o.predictedTotal}) {
                digest.add(static_cast<double>(c));
            }
            digest.add(static_cast<double>(o.kernelId));
            if (ctx.traced()) {
                // Simulated-time lifecycle spans sharing the request id,
                // under the host span of the call that simulated them.
                const auto seq = static_cast<std::int64_t>(req.seq);
                const auto c = [](Cycle v) { return static_cast<double>(v); };
                ctx.spans->addSim("request", run_span, seq, c(o.release),
                                  c(o.finish));
                ctx.spans->addSim("queued", run_span, seq, c(o.release),
                                  c(o.admit));
                ctx.spans->addSim("dispatching", run_span, seq, c(o.admit),
                                  c(o.firstDispatch));
                ctx.spans->addSim("running", run_span, seq,
                                  c(o.firstDispatch), c(o.finish));
            }
        }
        digest.add(static_cast<double>(result.totalCycles));
        digest.add(result.stats);

        RepOutcome out;
        out.simCycles = static_cast<double>(result.totalCycles);
        out.requests = trace_.size();
        const auto kcycles = [&](double p) {
            return latencies.empty() ? 0.0 : percentile(latencies, p) / 1e3;
        };
        out.sim["sim_p50_latency_kcycles"] = kcycles(50);
        out.sim["sim_p90_latency_kcycles"] = kcycles(90);
        out.sim["sim_deadline_miss_rate"] = trace_.empty()
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(trace_.size());
        out.digest = digest.hex();

        if (ctx.traced()) {
            Layers& layers = *ctx.layers;
            layers["serve.requests"] = static_cast<double>(trace_.size());
            layers["serve.completed"] = static_cast<double>(completed);
            layers["serve.decisions"] =
                static_cast<double>(audit.audit.decisions.size());
            layers["serve.defers"] = static_cast<double>(audit.audit.defers);
            layers["serve.preemptions"] =
                static_cast<double>(result.preemptions);
            layers["serve.reorders"] = static_cast<double>(result.reorders);
            layers["serve.queue_wait_p50_cycles"] =
                waits.empty() ? 0.0 : percentile(waits, 50);
            layers["serve.predictor_err_p50_cycles"] =
                pred_errs.empty() ? 0.0 : percentile(pred_errs, 50);
            layers["serve.drain_latency_cycles"] =
                static_cast<double>(result.drainLatencyCycles);
            layers["serve.run_s"] = run_s;
            layers["cta.drain_requests"] =
                static_cast<double>(result.drainRequests);
            // Every CTA of a served kernel is dispatched exactly once
            // (a drain pauses dispatch, it never re-dispatches).
            double dispatches = 0.0;
            for (const LaunchRequest& req : trace_)
                dispatches += kernels_.at(req.workload).gridCtas();
            layers["cta.dispatches"] = dispatches;
        }
        return out;
    }

    void
    profile(const RunContext& ctx) override
    {
        Layers& layers = *ctx.layers;
        {
            IntervalSampler sampler(kClosingSampleOnly);
            CycleProfiler profiler;
            MemProfiler mem_profiler;
            Observer obs;
            obs.sampler = &sampler;
            obs.profiler = &profiler;
            obs.memProfiler = &mem_profiler;
            ServingEngine engine(config_, serve_);
            engine.setObserver(obs);
            {
                ScopedSpan span(ctx.spans,
                                spanName("serve.run", "profiled"),
                                ctx.parent);
                engine.run(trace_);
            }
            ctx.checks->expect(
                instrsMatch(sampler.last("gpu.instrs", -1.0),
                            expectedInstrs_),
                "serve profiled: issued instructions != trace total");
            ProfileTotals totals;
            totals.add(obs);
            setProfilerLayers(layers, totals);
            const auto rate = [&](const char* num, const char* den) {
                const double d = sampler.last(den);
                return d > 0.0 ? sampler.last(num) / d : 0.0;
            };
            layers["mem.l1d_miss_rate"] = rate("l1d.miss", "l1d.access");
            layers["mem.l2_miss_rate"] = rate("l2.miss", "l2.access");
            const double hit = sampler.last("dram.row_hit");
            const double miss = sampler.last("dram.row_miss");
            layers["mem.dram_row_hit_rate"] =
                hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
            layers["core.instrs"] = sampler.last("gpu.instrs");
        }

        // The engine drives its Gpu internally, so per-step host time is
        // taken on a stepped replay of the trace on the same machine:
        // arrivals launched first come first served under the engine's
        // concurrency cap (no reordering, no preemption), idle gaps
        // fast-forwarded up to the next arrival, for a fixed cycle budget.
        StepFold fold;
        {
            ScopedSpan span(ctx.spans,
                            spanName("gpu.stepCycle", "fcfs_replay"),
                            ctx.parent);
            Gpu gpu(config_);
            std::vector<int> running;
            std::size_t launched = 0; // trace_ is sorted by arrival
            while (gpu.cycle() < kReplayCycles) {
                const Cycle now = gpu.cycle();
                std::erase_if(running, [&](int id) {
                    return gpu.kernel(id).finished();
                });
                while (running.size() < serve_.maxConcurrent &&
                       launched < trace_.size() &&
                       trace_[launched].arrival <= now) {
                    running.push_back(gpu.launchKernel(
                        kernels_.at(trace_[launched].workload), 0, -1,
                        static_cast<int>(launched)));
                    ++launched;
                }
                std::size_t pending = launched;
                while (pending < trace_.size() &&
                       trace_[pending].arrival <= now)
                    ++pending;
                gpu.setExternalEventCycle(pending < trace_.size()
                                              ? trace_[pending].arrival
                                              : kCycleNever);
                timedStep(gpu, fold);
            }
            const Clock::time_point t_stats = Clock::now();
            const StatSet stats = gpu.stats();
            fold.statsS += secondsSince(t_stats);
            fold.cycles = gpu.cycle();
            fold.elided = gpu.elidedCycles();
            Layers replay;
            setStatLayers(replay, {&stats});
            layers["cta.lcs_nopt_mean"] = replay["cta.lcs_nopt_mean"];
            layers["mem.mshr_stalls"] = replay["mem.mshr_stalls"];
        }
        setStepLayers(layers, fold);
    }

  private:
    /** Simulated cycles of the stepped replay: past both batch
     *  arrivals and several bursts. */
    static constexpr Cycle kReplayCycles = 400000;

    std::vector<LaunchRequest> trace_;
    std::map<std::string, KernelInfo> kernels_;
    GpuConfig config_;
    ServeConfig serve_;
    std::uint64_t expectedInstrs_ = 0;
};

// ---------------------------------------------------------------------------
// trace_export: single kernels with every observer, exported to memory.

/** Light structural check before parseJson, which exits on bad input:
 *  a malformed export then counts as one failed op. */
bool
looksLikeJsonObject(const std::string& text)
{
    const auto first = text.find_first_not_of(" \t\r\n");
    const auto last = text.find_last_not_of(" \t\r\n");
    if (first == std::string::npos || text[first] != '{' ||
        text[last] != '}')
        return false;
    long depth = 0;
    bool in_string = false;
    for (std::size_t i = first; i <= last; ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

/** The schema tag an export carries (top level or Chrome otherData). */
std::string
schemaOf(const JsonValue& doc)
{
    if (!doc.isObject())
        return "";
    const JsonValue* holder = &doc;
    if (!doc.has("schema") && doc.has("otherData"))
        holder = &doc.at("otherData");
    if (!holder->isObject() || !holder->has("schema") ||
        holder->at("schema").type() != JsonValue::Type::String)
        return "";
    return holder->at("schema").asString();
}

class TraceExport final : public Workload
{
  public:
    explicit TraceExport(std::uint64_t seed) : seed_(seed) {}

    void
    setup(SetupTimes& times) override
    {
        // The seed only rotates the visiting order; each kernel's run
        // and exports are independent of it.
        std::vector<std::string> names = {"kmeans", "srad", "phased"};
        std::rotate(names.begin(),
                    names.begin() + static_cast<long>(seed_ % names.size()),
                    names.end());
        order_ = names;
        kernels_ = buildKernels(names, times);
        config_ = makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
        for (const std::string& name : order_) {
            Observers o(config_);
            constructGpu(config_, {&kernels_.at(name)}, times, o.obs);
        }
    }

    RepOutcome
    run(const RunContext& ctx) override
    {
        Checks& checks = *ctx.checks;
        RepOutcome out;
        // Digest in canonical kernel order, whatever order ran.
        std::map<std::string, std::string> digests;
        StepFold steps;
        std::vector<StatSet> stats;
        double export_s = 0.0, parse_s = 0.0, bytes = 0.0;
        double events = 0.0, dropped = 0.0;
        ProfileTotals totals;
        for (const std::string& name : order_) {
            const KernelInfo& k = kernels_.at(name);
            Observers o(config_);
            RunResult r;
            {
                ScopedSpan span(ctx.spans, spanName("obs.observedRun", name),
                                ctx.parent);
                r = ctx.traced() ? steppedRun(config_, k, o.obs, steps)
                                 : runKernel(config_, k, o.obs);
            }
            checks.expect(instrsMatch(static_cast<double>(r.instrs),
                                      k.totalDynamicInstrs()),
                          name + " observed: issued instructions != grid "
                                 "total");
            Digest digest;
            digest.add(r);
            digests[name] = digest.hex();
            out.simCycles += static_cast<double>(r.cycles);
            events += static_cast<double>(o.tracer.recorded());
            dropped += static_cast<double>(o.tracer.dropped());

            struct Export
            {
                const char* kind;
                const char* schema;
                std::function<void(std::ostream&)> write;
            };
            const std::array<Export, 4> exports = {{
                {"chrome_trace", "bsched-trace-v1",
                 [&](std::ostream& os) {
                     o.tracer.writeChromeTrace(os, &o.sampler);
                 }},
                {"profile", "bsched-profile-v1",
                 [&](std::ostream& os) {
                     writeProfileJson(os, o.profiler, name);
                 }},
                {"mem_profile", "bsched-memprofile-v1",
                 [&](std::ostream& os) {
                     writeMemProfileJson(os, o.memProfiler, name);
                 }},
                {"phase", "bsched-phase-v1",
                 [&](std::ostream& os) { writePhaseJson(os, o.phase, name); }},
            }};
            for (const Export& e : exports) {
                const std::string kind = e.kind;
                std::string text;
                {
                    ScopedSpan span(ctx.spans,
                                    spanName("obs.write_" + kind, name),
                                    ctx.parent);
                    std::ostringstream os;
                    e.write(os);
                    text = os.str();
                    export_s += span.seconds();
                }
                bytes += static_cast<double>(text.size());
                bool ok = looksLikeJsonObject(text);
                if (ok) {
                    ScopedSpan span(ctx.spans,
                                    spanName("obs.parseJson", kind),
                                    ctx.parent);
                    ok = schemaOf(parseJson(text)) == e.schema;
                    parse_s += span.seconds();
                }
                checks.expect(ok, name + "/" + kind +
                                      ": export does not parse");
            }
            if (ctx.traced()) {
                stats.push_back(r.stats);
                totals.add(o.obs);
            }
        }
        Digest digest;
        for (const auto& [name, hex] : digests) {
            digest.add(name);
            digest.add(hex);
        }
        out.digest = digest.hex();

        if (ctx.traced()) {
            Layers& layers = *ctx.layers;
            setStepLayers(layers, steps);
            std::vector<const StatSet*> sets;
            for (const StatSet& s : stats)
                sets.push_back(&s);
            setStatLayers(layers, sets);
            setProfilerLayers(layers, totals);
            layers["obs.export_s"] = export_s;
            layers["obs.export_bytes"] = bytes;
            layers["obs.trace_events"] = events;
            layers["obs.trace_dropped"] = dropped;
            layers["obs.parse_s"] = parse_s;
        }
        return out;
    }

    void
    profile(const RunContext& ctx) override
    {
        // Observer overhead: each kernel run plain and observed, back
        // to back in this process, plain first.
        double plain_s = 0.0;
        double observed_s = 0.0;
        for (const std::string& name : order_) {
            const KernelInfo& k = kernels_.at(name);
            {
                ScopedSpan span(ctx.spans, spanName("gpu.plainRun", name),
                                ctx.parent);
                runKernel(config_, k);
                plain_s += span.seconds();
            }
            {
                Observers o(config_);
                ScopedSpan span(ctx.spans, spanName("obs.observedRun", name),
                                ctx.parent);
                runKernel(config_, k, o.obs);
                observed_s += span.seconds();
            }
        }
        (*ctx.layers)["obs.overhead_ratio"] =
            plain_s > 0.0 ? observed_s / plain_s : 0.0;
    }

  private:
    /** Every observer, attached the way the bench binaries' artifact
     *  flags attach them, with a 512-cycle sampler. */
    struct Observers
    {
        explicit Observers(const GpuConfig& config)
            : tracer(config.numCores, config.numMemPartitions), sampler(512)
        {
            obs.tracer = &tracer;
            obs.sampler = &sampler;
            obs.profiler = &profiler;
            obs.memProfiler = &memProfiler;
            obs.phase = &phase;
        }
        Observers(const Observers&) = delete;
        Observers& operator=(const Observers&) = delete;

        Tracer tracer;
        IntervalSampler sampler;
        CycleProfiler profiler;
        MemProfiler memProfiler;
        PhaseTelemetry phase;
        Observer obs;
    };

    std::uint64_t seed_;
    std::vector<std::string> order_;
    std::map<std::string, KernelInfo> kernels_;
    GpuConfig config_;
};

} // namespace

std::unique_ptr<Workload>
makeBenchWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "figure_sweep")
        return std::make_unique<FigureSweep>();
    if (name == "serve_burst")
        return std::make_unique<ServeBurst>();
    if (name == "trace_export")
        return std::make_unique<TraceExport>(seed);
    return nullptr;
}

} // namespace perfbench
