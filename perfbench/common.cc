#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/sink.hh"
#include "perfbench.hh"

namespace perfbench {

using namespace bsched;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool
Checks::expect(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 16)
            failures_.push_back(what);
    }
    return ok;
}

void
Digest::add(const std::string& text)
{
    for (const char c : text) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 1099511628211ull;
    }
    // Field separator, so "ab"+"c" and "a"+"bc" differ.
    hash_ ^= 0xff;
    hash_ *= 1099511628211ull;
}

void
Digest::add(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    add(std::string(buf));
}

void
Digest::add(const StatSet& stats)
{
    for (const auto& [name, value] : stats.entries()) {
        add(name);
        add(value);
    }
}

void
Digest::add(const RunResult& result)
{
    add(static_cast<double>(result.cycles));
    add(static_cast<double>(result.instrs));
    add(result.ipc);
    add(result.stats);
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
}

void
StepFold::merge(const StepFold& other)
{
    busySteps += other.busySteps;
    ffSteps += other.ffSteps;
    busyNs += other.busyNs;
    ffNs += other.ffNs;
    cycles += other.cycles;
    elided += other.elided;
    statsS += other.statsS;
}

int
Spans::begin(const std::string& name, int parent)
{
    const double now = std::chrono::duration<double, std::nano>(
                           Clock::now() - origin_).count();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.start = now;
    spans_.push_back(span);
    return span.id;
}

void
Spans::end(int id)
{
    const double now = std::chrono::duration<double, std::nano>(
                           Clock::now() - origin_).count();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
}

void
Spans::addSim(const std::string& name, int parent, std::int64_t request,
              double start_cycle, double end_cycle)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.start = start_cycle;
    span.end = end_cycle;
    span.request = request;
    span.simClock = true;
    spans_.push_back(span);
}

std::string
Spans::toJson(const std::string& workload) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"schema\":\"perfbench-spans-v1\",\"workload\":\""
       << jsonEscape(workload) << "\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"name\":\""
           << jsonEscape(s.name) << "\",\"clock\":\""
           << (s.simClock ? "sim_cycles" : "host_ns")
           << "\",\"start\":" << jsonNumber(s.start)
           << ",\"end\":" << jsonNumber(s.end);
        if (s.request >= 0)
            os << ",\"request\":" << s.request;
        os << "}";
    }
    os << "\n]}\n";
    return os.str();
}

ScopedSpan::ScopedSpan(Spans* spans, const std::string& name, int parent)
    : spans_(spans),
      id_(spans != nullptr ? spans->begin(name, parent) : parent),
      start_(Clock::now())
{}

ScopedSpan::~ScopedSpan()
{
    if (spans_ != nullptr)
        spans_->end(id_);
}

bool
timedStep(Gpu& gpu, StepFold& fold)
{
    const Cycle before = gpu.cycle();
    const Clock::time_point start = Clock::now();
    const bool more = gpu.stepCycle();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (gpu.cycle() - before > 1) {
        ++fold.ffSteps;
        fold.ffNs += ns;
    } else {
        ++fold.busySteps;
        fold.busyNs += ns;
    }
    return more;
}

RunResult
steppedRun(const GpuConfig& config, const KernelInfo& kernel, Observer obs,
           StepFold& fold)
{
    Gpu gpu(config, obs);
    gpu.launchKernel(kernel);
    // The same sequence as Gpu::run(): step to completion, drain
    // in-flight traffic, take the closing sample.
    while (timedStep(gpu, fold)) {
    }
    while (!gpu.drained())
        timedStep(gpu, fold);
    gpu.finalizeSample();

    RunResult result;
    result.cycles = gpu.cycle();
    result.instrs = gpu.totalInstrsIssued();
    result.ipc = gpu.ipc();
    const Clock::time_point t_stats = Clock::now();
    result.stats = gpu.stats();
    fold.statsS += secondsSince(t_stats);
    fold.cycles += gpu.cycle();
    fold.elided += gpu.elidedCycles();
    return result;
}

void
setStepLayers(Layers& layers, const StepFold& fold)
{
    layers["gpu.busy_step_ns"] = fold.busySteps > 0
        ? fold.busyNs / static_cast<double>(fold.busySteps) : 0.0;
    layers["gpu.ff_jump_ns"] = fold.ffSteps > 0
        ? fold.ffNs / static_cast<double>(fold.ffSteps) : 0.0;
    layers["gpu.elided_frac"] = fold.cycles > 0
        ? static_cast<double>(fold.elided) / static_cast<double>(fold.cycles)
        : 0.0;
    layers["gpu.stats_s"] = fold.statsS;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
setStatLayers(Layers& layers, const std::vector<const StatSet*>& sets)
{
    double dispatches = 0.0, drains = 0.0, instrs = 0.0;
    double nopt_sum = 0.0, nopt_count = 0.0;
    double l1_miss = 0.0, l1_access = 0.0, l2_miss = 0.0, l2_access = 0.0;
    double row_hit = 0.0, row_miss = 0.0, mshr_stalls = 0.0;
    for (const StatSet* stats : sets) {
        dispatches += stats->get("ctasched.dispatches");
        drains += stats->get("ctasched.drain_requests");
        instrs += stats->get("gpu.instrs");
        for (const std::string& name : stats->namesBySuffix(".n_opt")) {
            nopt_sum += stats->get(name);
            nopt_count += 1.0;
        }
        l1_miss += stats->sumBySuffix(".l1d.miss");
        l1_access += stats->sumBySuffix(".l1d.access");
        l2_miss += stats->sumBySuffix(".l2.miss");
        l2_access += stats->sumBySuffix(".l2.access");
        row_hit += stats->sumBySuffix(".dram.row_hit");
        row_miss += stats->sumBySuffix(".dram.row_miss");
        // Lookups retried because an MSHR file or an entry's merge list
        // was full (L1: or the core queue; L2: or the DRAM queue), plus
        // refusals counted by the MSHR files themselves.
        mshr_stalls += stats->sumBySuffix(".ldst.retry") +
            stats->sumBySuffix(".l2.stall") +
            stats->sumBySuffix(".stall_entry") +
            stats->sumBySuffix(".stall_file");
    }
    layers["cta.dispatches"] = dispatches;
    layers["cta.drain_requests"] = drains;
    layers["cta.lcs_nopt_mean"] = ratio(nopt_sum, nopt_count);
    layers["core.instrs"] = instrs;
    layers["mem.l1d_miss_rate"] = ratio(l1_miss, l1_access);
    layers["mem.l2_miss_rate"] = ratio(l2_miss, l2_access);
    layers["mem.dram_row_hit_rate"] = ratio(row_hit, row_hit + row_miss);
    layers["mem.mshr_stalls"] = mshr_stalls;
}

namespace {

/** Upper bound of the bucket holding the median sample. */
double
histogramMedian(const LatencyHistogram& hist)
{
    const std::uint64_t total = hist.total();
    if (total == 0)
        return 0.0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        seen += hist.bucket(i);
        if (2 * seen >= total) {
            return i < LatencyHistogram::kFiniteBuckets
                ? static_cast<double>(LatencyHistogram::bound(i))
                : static_cast<double>(hist.max());
        }
    }
    return static_cast<double>(hist.max());
}

} // namespace

void
ProfileTotals::add(const Observer& obs)
{
    if (obs.profiler != nullptr)
        slots.accumulate(obs.profiler->total());
    if (obs.memProfiler != nullptr) {
        mem.accumulate(obs.memProfiler->total());
        crossCtaEvictions +=
            obs.memProfiler->interference(MemLevel::L1).crossCtaEvictions +
            obs.memProfiler->interference(MemLevel::L2).crossCtaEvictions;
    }
}

void
setProfilerLayers(Layers& layers, const ProfileTotals& totals)
{
    const double slots = static_cast<double>(totals.slots.total());
    const auto share = [&](SlotCat cat) {
        return ratio(static_cast<double>(
                         totals.slots.counts[static_cast<std::size_t>(cat)]),
                     slots);
    };
    layers["core.issued_share"] = share(SlotCat::Issued);
    layers["core.scoreboard_share"] = share(SlotCat::Scoreboard);
    layers["core.mem_structural_share"] = share(SlotCat::MemStructural);
    layers["core.barrier_share"] = share(SlotCat::Barrier);
    layers["core.pipeline_share"] = share(SlotCat::Pipeline);
    layers["core.empty_share"] = share(SlotCat::Empty);
    layers["mem.req_latency_p50_cycles"] =
        histogramMedian(totals.mem.endToEnd);
    layers["mem.dram_queue_share"] = ratio(
        static_cast<double>(
            totals.mem.stages[static_cast<std::size_t>(MemStage::DramQueue)]
                .sum()),
        static_cast<double>(totals.mem.endToEnd.sum()));
    layers["mem.cross_cta_evictions"] =
        static_cast<double>(totals.crossCtaEvictions);
}

namespace {

/** Keeps the probe loop's result observable so it is not elided. */
volatile std::uint64_t probeSink = 0;

double
probeOnce(std::uint64_t seed)
{
    // A fixed integer workload over a table that fits in L2: it moves
    // only with host speed, never with the simulator's code.
    std::vector<std::uint32_t> table(1u << 16);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (std::uint32_t& entry : table) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        entry = static_cast<std::uint32_t>(x >> 32);
    }
    const Clock::time_point start = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 60'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        acc += table[(x >> 40) & 0xffff] ^ static_cast<std::uint32_t>(acc);
    }
    const double seconds = secondsSince(start);
    probeSink = acc;
    return seconds;
}

} // namespace

double
driftProbe(std::uint64_t seed)
{
    // The median of three, so the first pass's warm-up does not count.
    return median({probeOnce(seed), probeOnce(seed), probeOnce(seed)});
}

} // namespace perfbench
