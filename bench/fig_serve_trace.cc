/**
 * @file
 * E19 — serving-layer observability: the decision audit and predictor
 * accuracy behind every (trace, policy) point of E18. Each of the 15
 * runs carries a ServeTrace bundle, and the figure reports the decision
 * breakdown (admissions, deferrals, preemptions, drain cancels), the
 * CTA-drain cost counters, and the runtime predictor's absolute error
 * per point. `--emit-json` writes the full `bsched-servetrace-v1`
 * artifact — every decision with its inputs, every request lifecycle,
 * every predictor error histogram — and bench/BENCH_servetrace.json is
 * the committed baseline CI byte-gates against (the audit is pure
 * observation, so the bytes are identical for any --jobs and with
 * fast-forward on or off).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/traffic.hh"
#include "serve_traces.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

using namespace bsched;

/** One audited (trace, policy) point. */
struct AuditedRun
{
    ServingRunResult result;
    ServeTrace trace;
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace bsched;
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const unsigned jobs = opts.jobs;
    const GpuConfig config =
        makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);

    const std::vector<bench::ServeTraceDef> traces =
        bench::makeServeTraces();
    const std::vector<ServePolicy> policies = allServePolicies();

    std::printf("E19: serving decision audit and predictor accuracy\n"
                "(per-policy decision breakdown; %u jobs)\n\n",
                jobs);

    const ParallelRunner runner(jobs);
    const std::size_t points = traces.size() * policies.size();
    const auto results =
        runner.map<AuditedRun>(points, [&](std::size_t i) {
            const bench::ServeTraceDef& def =
                traces[i / policies.size()];
            ServeConfig serve;
            serve.policy = policies[i % policies.size()];
            AuditedRun run;
            ServingEngine engine(config, serve);
            engine.setTrace(&run.trace);
            run.result = engine.run(generateTrace(def.spec));
            return run;
        });

    ServeTraceReport report("fig_serve_trace");
    Table table("serving decisions");
    table.setHeader({"trace", "policy", "admits", "defers", "preempts",
                     "cancels", "drains", "drain-lat", "pred-err",
                     "samples"});
    for (std::size_t i = 0; i < points; ++i) {
        const bench::ServeTraceDef& def = traces[i / policies.size()];
        const ServePolicy policy = policies[i % policies.size()];
        const AuditedRun& run = results[i];
        report.addRun(toString(policy), def.name, run.result, run.trace);
        const ServeAudit& audit = run.trace.audit;
        const PredictorAccuracy& acc = run.trace.accuracy;
        table.addRow({def.name, toString(policy),
                      std::to_string(audit.admits),
                      std::to_string(audit.defers),
                      std::to_string(audit.preempts),
                      std::to_string(audit.drainCancels),
                      std::to_string(run.result.drainsCompleted),
                      std::to_string(run.result.drainLatencyCycles),
                      fmt(acc.meanAbsError(), 0),
                      std::to_string(acc.samples())});
    }
    std::printf("%s\n", table.toText().c_str());

    std::printf("Reading: every admission the engine grants and every\n"
                "one it defers is in the audit with the inputs that\n"
                "drove it — queue depth, LCS headroom, predicted\n"
                "runtime, deadline slack. The preempt rows name the\n"
                "drained victim and its predicted remainder; pred-err\n"
                "is the predictor's mean |predicted - actual| in\n"
                "cycles, which converges as the per-workload EWMA\n"
                "absorbs completed launches.\n");

    if (!opts.emitJsonPath.empty()) {
        bench::writeArtifact(opts.emitJsonPath, "",
                             [&](std::ostream& os) { report.writeJson(os); });
    }
    bench::writeRunArtifacts(opts, config, makeWorkload("lud"),
                             "lud/serve_trace");
    return 0;
}
