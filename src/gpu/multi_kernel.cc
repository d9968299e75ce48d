#include "gpu/multi_kernel.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace bsched {

const char*
toString(MultiKernelPolicy policy)
{
    switch (policy) {
      case MultiKernelPolicy::Sequential: return "sequential";
      case MultiKernelPolicy::Spatial: return "spatial";
      case MultiKernelPolicy::Mixed: return "mixed";
    }
    return "?";
}

double
MultiKernelReport::stp() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        sum += static_cast<double>(isolatedCycles[i]) /
            static_cast<double>(sharedCycles[i]);
    }
    return sum;
}

double
MultiKernelReport::antt() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        sum += static_cast<double>(sharedCycles[i]) /
            static_cast<double>(isolatedCycles[i]);
    }
    return sum / static_cast<double>(sharedCycles.size());
}

double
MultiKernelReport::maxSlowdown() const
{
    double worst = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        worst = std::max(worst, static_cast<double>(sharedCycles[i]) /
                                    static_cast<double>(isolatedCycles[i]));
    }
    return worst;
}

double
MultiKernelReport::fairness() const
{
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        const double speedup = static_cast<double>(isolatedCycles[i]) /
            static_cast<double>(sharedCycles[i]);
        if (i == 0) {
            lo = hi = speedup;
        } else {
            lo = std::min(lo, speedup);
            hi = std::max(hi, speedup);
        }
    }
    if (hi <= 0.0)
        fatal("MultiKernelReport::fairness: non-positive speedups");
    return lo / hi;
}

namespace {

std::uint64_t
hashString(const std::string& s)
{
    std::uint64_t h = mix64(s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

} // namespace

std::uint64_t
IsolatedCycleCache::key(const GpuConfig& config, const KernelInfo& kernel)
{
    // The machine side is hashed through its printable description
    // (every behaviour-relevant knob is part of toString); the kernel
    // side through its launch geometry plus content proxies strong
    // enough to separate same-name variants (total dynamic work and
    // program shape). fastForward is deliberately behaviour-neutral by
    // contract, so either setting hits the same entry.
    std::uint64_t h = hashString(config.toString());
    h = hashCombine(h, hashString(kernel.name));
    h = hashCombine(h, kernel.grid.x);
    h = hashCombine(h, kernel.grid.y);
    h = hashCombine(h, kernel.grid.z);
    h = hashCombine(h, kernel.cta.x);
    h = hashCombine(h, kernel.cta.y);
    h = hashCombine(h, kernel.cta.z);
    h = hashCombine(h, kernel.regsPerThread);
    h = hashCombine(h, kernel.smemBytesPerCta);
    h = hashCombine(h, kernel.totalDynamicInstrs());
    h = hashCombine(h, kernel.program.segments().size());
    h = hashCombine(h, kernel.program.patterns().size());
    h = hashCombine(h, static_cast<std::uint64_t>(kernel.program.regCount()));
    return h;
}

bool
IsolatedCycleCache::lookup(std::uint64_t key, Cycle* out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return false;
    ++hits_;
    if (out)
        *out = it->second;
    return true;
}

void
IsolatedCycleCache::insert(std::uint64_t key, Cycle cycles)
{
    // An isolated runtime of zero means the caller cached a run that
    // never executed; lookups would then divide by it (ANTT, slowdown).
    BSCHED_CHECK(cycles > 0,
                 "isolated cache: zero-cycle runtime for key ", key);
    std::lock_guard<std::mutex> lock(mutex_);
    map_[key] = cycles;
}

std::size_t
IsolatedCycleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

std::uint64_t
IsolatedCycleCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

namespace {

Cycle
isolatedRun(const GpuConfig& config, const KernelInfo& kernel)
{
    Gpu gpu(config);
    const int id = gpu.launchKernel(kernel);
    gpu.run();
    return gpu.kernelCycles(id);
}

/** Isolated runtime via the cache when one is supplied. */
Cycle
cachedIsolatedRun(const GpuConfig& config, const KernelInfo& kernel,
                  IsolatedCycleCache* cache)
{
    if (!cache)
        return isolatedRun(config, kernel);
    const std::uint64_t key = IsolatedCycleCache::key(config, kernel);
    Cycle cycles = 0;
    if (cache->lookup(key, &cycles))
        return cycles;
    cycles = isolatedRun(config, kernel);
    cache->insert(key, cycles);
    return cycles;
}

} // namespace

MultiKernelReport
runMultiKernel(const GpuConfig& config,
               const std::vector<const KernelInfo*>& kernels,
               MultiKernelPolicy policy, std::vector<int> spatial_split,
               const std::vector<Cycle>* isolated_cycles,
               IsolatedCycleCache* cache)
{
    if (kernels.empty())
        fatal("runMultiKernel: no kernels");

    MultiKernelReport report;
    report.policy = policy;
    if (isolated_cycles) {
        if (isolated_cycles->size() != kernels.size())
            fatal("runMultiKernel: isolated_cycles size mismatch");
        report.isolatedCycles = *isolated_cycles;
    } else {
        for (const KernelInfo* kernel : kernels) {
            report.isolatedCycles.push_back(
                cachedIsolatedRun(config, *kernel, cache));
        }
    }

    switch (policy) {
      case MultiKernelPolicy::Sequential: {
        Gpu gpu(config);
        std::vector<int> ids;
        for (const KernelInfo* kernel : kernels) {
            ids.push_back(gpu.launchKernel(*kernel));
            gpu.run();
        }
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
      case MultiKernelPolicy::Spatial: {
        const int cores = static_cast<int>(config.numCores);
        const int n = static_cast<int>(kernels.size());
        if (spatial_split.empty()) {
            for (int i = 1; i < n; ++i)
                spatial_split.push_back(cores * i / n);
        }
        if (static_cast<int>(spatial_split.size()) != n - 1)
            fatal("runMultiKernel: need ", n - 1, " split points");
        Gpu gpu(config);
        std::vector<int> ids;
        for (int i = 0; i < n; ++i) {
            const int begin = i == 0 ? 0 : spatial_split[i - 1];
            const int end = i == n - 1 ? cores : spatial_split[i];
            if (begin >= end)
                fatal("runMultiKernel: empty core range for kernel ", i);
            ids.push_back(gpu.launchKernel(*kernels[i], begin, end));
        }
        gpu.run();
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
      case MultiKernelPolicy::Mixed: {
        // MCK relies on LCS per-core limits to carve out space for the
        // partner kernel on every core.
        GpuConfig mixed = config;
        mixed.ctaSched = withLcsLimits(mixed.ctaSched);
        Gpu gpu(mixed);
        std::vector<int> ids;
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            ids.push_back(gpu.launchKernel(*kernels[i], 0, -1,
                                           static_cast<int>(i)));
        }
        gpu.run();
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
    }
    return report;
}

} // namespace bsched
