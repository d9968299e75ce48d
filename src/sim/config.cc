#include "sim/config.hh"

#include <sstream>

#include "sim/log.hh"

namespace bsched {

const char*
toString(WarpSchedKind kind)
{
    switch (kind) {
      case WarpSchedKind::LRR: return "lrr";
      case WarpSchedKind::GTO: return "gto";
      case WarpSchedKind::TwoLevel: return "two-level";
      case WarpSchedKind::BAWS: return "baws";
    }
    return "?";
}

const char*
toString(CtaSchedKind kind)
{
    switch (kind) {
      case CtaSchedKind::RoundRobin: return "rr";
      case CtaSchedKind::Lazy: return "lcs";
      case CtaSchedKind::Block: return "bcs";
      case CtaSchedKind::LazyBlock: return "lcs+bcs";
      case CtaSchedKind::Dynamic: return "dyncta";
    }
    return "?";
}

CtaSchedKind
withLcsLimits(CtaSchedKind kind)
{
    switch (kind) {
      case CtaSchedKind::RoundRobin: return CtaSchedKind::Lazy;
      case CtaSchedKind::Block: return CtaSchedKind::LazyBlock;
      case CtaSchedKind::Lazy:
      case CtaSchedKind::LazyBlock:
      case CtaSchedKind::Dynamic: return kind;
    }
    return kind;
}

const char*
toString(LcsEstimator estimator)
{
    switch (estimator) {
      case LcsEstimator::IssueRatio: return "issue-ratio";
      case LcsEstimator::Threshold: return "threshold";
    }
    return "?";
}

const char*
toString(LcsWindowMode mode)
{
    switch (mode) {
      case LcsWindowMode::FirstCtaDone: return "first-cta-done";
      case LcsWindowMode::FixedCycles: return "fixed-cycles";
    }
    return "?";
}

namespace {
bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

bool defaultFastForward_ = true;
} // namespace

void
setDefaultFastForward(bool enabled)
{
    defaultFastForward_ = enabled;
}

bool
defaultFastForward()
{
    return defaultFastForward_;
}

void
GpuConfig::validate() const
{
    if (numCores == 0)
        fatal("config: numCores must be > 0");
    if (maxCtasPerCore == 0)
        fatal("config: maxCtasPerCore must be > 0");
    if (maxThreadsPerCore % kWarpSize != 0)
        fatal("config: maxThreadsPerCore must be a multiple of warp size");
    if (numSchedulersPerCore == 0)
        fatal("config: numSchedulersPerCore must be > 0");
    if (numMemPartitions == 0)
        fatal("config: numMemPartitions must be > 0");
    auto check_cache = [](const char* name, const CacheConfig& c) {
        if (c.lineBytes == 0 || !isPow2(c.lineBytes))
            fatal("config: ", name, " line size must be a power of two");
        if (c.sizeBytes % (c.lineBytes * c.assoc) != 0)
            fatal("config: ", name, " size not divisible by line*assoc");
        if (!isPow2(c.numSets()))
            fatal("config: ", name, " set count must be a power of two");
        if (c.mshrEntries == 0 || c.mshrMaxMerged == 0)
            fatal("config: ", name, " MSHR geometry must be nonzero");
        if (c.missQueueSize == 0)
            fatal("config: ", name, " miss queue must be nonzero");
    };
    check_cache("l1d", l1d);
    check_cache("l2", l2);
    if (l1d.lineBytes != l2.lineBytes)
        fatal("config: L1/L2 line sizes must match");
    if (dram.rowBytes % l2.lineBytes != 0)
        fatal("config: DRAM row size must be a multiple of the line size");
    if (dram.banksPerChannel == 0 || !isPow2(dram.banksPerChannel))
        fatal("config: banksPerChannel must be a power of two");
    if (dram.queueCapacity == 0)
        fatal("config: DRAM queue capacity must be nonzero");
    if (staticCtaLimit > maxCtasPerCore)
        fatal("config: staticCtaLimit exceeds maxCtasPerCore");
    if (bcs.blockSize == 0)
        fatal("config: BCS block size must be > 0");
    if (bcs.blockSize > maxCtasPerCore)
        fatal("config: BCS block size exceeds maxCtasPerCore");
    if (maxCycles == 0)
        fatal("config: maxCycles must be > 0");
}

GpuConfig
GpuConfig::gtx480()
{
    return GpuConfig{};
}

std::string
GpuConfig::toString() const
{
    std::ostringstream os;
    os << "SIMT cores            : " << numCores << "\n"
       << "Max CTAs / core       : " << maxCtasPerCore << "\n"
       << "Max threads / core    : " << maxThreadsPerCore
       << " (" << maxWarpsPerCore() << " warps)\n"
       << "Register file / core  : " << regFileSizePerCore << " regs\n"
       << "Shared memory / core  : " << smemBytesPerCore / 1024 << " KB\n"
       << "Warp schedulers / core: " << numSchedulersPerCore << "\n"
       << "Warp scheduler        : " << bsched::toString(warpSched) << "\n"
       << "CTA scheduler         : " << bsched::toString(ctaSched) << "\n"
       << "L1D                   : " << l1d.sizeBytes / 1024 << " KB, "
       << l1d.assoc << "-way, " << l1d.lineBytes << "B lines, "
       << l1d.mshrEntries << " MSHRs\n"
       << "L2 (per partition)    : " << l2.sizeBytes / 1024 << " KB, "
       << l2.assoc << "-way (" << numMemPartitions << " partitions, "
       << l2.sizeBytes / 1024 * numMemPartitions << " KB total)\n"
       << "Memory partitions     : " << numMemPartitions << "\n"
       << "Interconnect          : " << icntLatency << " cyc one-way, "
       << icntFlitsPerCycle << " req/cycle/partition\n"
       << "DRAM                  : " << dram.banksPerChannel
       << " banks/channel, row " << dram.rowBytes << "B, hit "
       << dram.rowHitLatency << " / miss " << dram.rowMissLatency
       << " cyc, burst " << dram.dataBusCycles << " cyc\n"
       << "ALU/SFU/SMEM latency  : " << aluLatency << "/" << sfuLatency
       << "/" << smemLatency << " cyc\n";
    return os.str();
}

} // namespace bsched
