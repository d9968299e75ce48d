/**
 * @file
 * Machine configuration for the simulated GPU. Defaults model a Fermi
 * GTX480-class part (the configuration class used by the paper's
 * GPGPU-Sim setup): 15 SIMT cores, 48 warps / 1536 threads / 8 CTAs per
 * core, 16KB L1D, 768KB L2 over 6 memory partitions.
 */

#ifndef BSCHED_SIM_CONFIG_HH
#define BSCHED_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace bsched {

/** Warp scheduler selection policies implemented by the SIMT core. */
enum class WarpSchedKind
{
    LRR,      ///< loose round-robin
    GTO,      ///< greedy-then-oldest (paper's baseline, the LCS sensor)
    TwoLevel, ///< two-level RR: small active set, swap on long stalls
    BAWS,     ///< block-aware warp scheduling (paper section on BCS)
};

/** CTA (thread block) scheduler policies. */
enum class CtaSchedKind
{
    RoundRobin, ///< baseline GigaThread-like greedy round-robin
    Lazy,       ///< LCS: lazy CTA scheduling with issue-ratio monitoring
    Block,      ///< BCS: paired dispatch of consecutive CTAs
    LazyBlock,  ///< LCS + BCS combined
    Dynamic,    ///< DYNCTA-style periodic up/down controller (comparator)
};

/** How the LCS monitoring window ends. */
enum class LcsWindowMode
{
    FirstCtaDone, ///< window ends when the first CTA on the core finishes
    FixedCycles,  ///< window ends after a fixed cycle count
};

const char* toString(WarpSchedKind kind);
const char* toString(CtaSchedKind kind);
const char* toString(LcsWindowMode mode);

/**
 * The CTA scheduler that adds LCS per-core limits to @p kind, which
 * co-resident kernels need to carve out space for each other on every
 * core: RoundRobin -> Lazy, Block -> LazyBlock; every other kind is
 * returned unchanged.
 */
CtaSchedKind withLcsLimits(CtaSchedKind kind);

/**
 * Process-wide default for GpuConfig::fastForward, consulted when a
 * config is constructed. Lets a bench binary's `--no-fast-forward`
 * flag reach every config it builds (including GpuConfig::gtx480())
 * without threading a parameter through each call site. Defaults to
 * true; tests that want a specific mode set config.fastForward
 * directly instead.
 */
void setDefaultFastForward(bool enabled);
bool defaultFastForward();

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t assoc = 4;
    std::uint32_t mshrEntries = 32;   ///< distinct outstanding miss lines
    std::uint32_t mshrMaxMerged = 8;  ///< requests merged per miss line
    std::uint32_t missQueueSize = 8;  ///< buffered misses toward next level
    Cycle hitLatency = 1;
    bool writeAllocate = false;       ///< false: write-through no-allocate

    std::uint32_t numSets() const { return sizeBytes / (lineBytes * assoc); }
};

/** DRAM channel timing (core-clock cycles) and geometry. */
struct DramConfig
{
    std::uint32_t banksPerChannel = 8;
    std::uint32_t rowBytes = 2048;       ///< row-buffer size per bank
    Cycle rowHitLatency = 40;            ///< CAS-only access
    Cycle rowMissLatency = 110;          ///< precharge + activate + CAS
    Cycle dataBusCycles = 4;             ///< bus occupancy per 128B burst
    std::uint32_t queueCapacity = 32;    ///< per-channel request queue
    /**
     * FR-FCFS starvation guard: once the oldest request has waited this
     * long, row-hit reordering is suspended until it is served. Without
     * this, a steady row-hit stream can starve an unlucky request
     * indefinitely.
     */
    Cycle maxStarveCycles = 400;
};

/** How LCS turns the monitored per-CTA issue counts into N_opt. */
enum class LcsEstimator
{
    /** Paper formula: N_opt = ceil(I_total / I_greedy). */
    IssueRatio,
    /**
     * Robust variant: count CTAs whose issued instructions reach
     * thresholdPct% of the greedy CTA's. Coincides with IssueRatio for
     * ideal skew (dominated CTAs near zero) but discounts long tails.
     */
    Threshold,
};

const char* toString(LcsEstimator estimator);

/** Parameters of the LCS (lazy CTA scheduling) mechanism. */
struct LcsConfig
{
    LcsWindowMode windowMode = LcsWindowMode::FirstCtaDone;
    Cycle fixedWindowCycles = 10000; ///< used when windowMode==FixedCycles
    /**
     * Safety margin added to the estimate:
     * N_opt = ceil(I_total / I_greedy) + slack. One spare CTA absorbs
     * estimator false-positives on kernels whose greedy skew does not
     * come with a throttle-friendly cache footprint (ablated in E8).
     */
    std::uint32_t slackCtas = 1;
    LcsEstimator estimator = LcsEstimator::IssueRatio;
    /** Contribution cut-off for the Threshold estimator (percent). */
    std::uint32_t thresholdPct = 40;
};

/** Parameters of the DYNCTA-style dynamic controller (comparator). */
struct DynctaConfig
{
    Cycle samplePeriod = 2048;
    /** Fraction of the period spent memory-stalled to trigger a
     *  decrease (percent). */
    std::uint32_t memHighPct = 60;
    /** Below this memory-stall fraction an idle-starved core may
     *  increase its CTA target (percent). */
    std::uint32_t memLowPct = 20;
    /** Idle-stall fraction that signals too little TLP (percent). */
    std::uint32_t idleHighPct = 10;
};

/** Parameters of the BCS (block CTA scheduling) mechanism. */
struct BcsConfig
{
    std::uint32_t blockSize = 2; ///< consecutive CTAs dispatched together
};

/** Complete machine + policy configuration. */
struct GpuConfig
{
    // --- SIMT core geometry -------------------------------------------
    std::uint32_t numCores = 15;
    std::uint32_t maxCtasPerCore = 8;
    std::uint32_t maxThreadsPerCore = 1536;
    std::uint32_t regFileSizePerCore = 32768; ///< 32-bit registers
    std::uint32_t smemBytesPerCore = 48 * 1024;
    std::uint32_t numSchedulersPerCore = 2;   ///< issue slots per cycle
    /** Active-set size (fetch group) for the two-level scheduler. */
    std::uint32_t twoLevelActiveSize = 8;

    // --- execution latencies ------------------------------------------
    Cycle aluLatency = 4;
    Cycle sfuLatency = 16;
    Cycle smemLatency = 24;      ///< shared-memory load-to-use
    std::uint32_t sfuUnits = 1;  ///< SFU issue ports (ALU assumed matched)
    std::uint32_t ldstUnits = 1; ///< memory instructions issued per cycle
    /**
     * Memory instructions buffered in the LD/ST pipeline. Keep shallow:
     * when the pipeline is blocked, admission is re-arbitrated by the
     * warp scheduler each cycle, which is how GTO's greediness reaches
     * the memory system (the effect LCS's monitor measures).
     */
    std::uint32_t ldstQueueDepth = 1;

    // --- memory system -------------------------------------------------
    CacheConfig l1d{};
    CacheConfig l2{128 * 1024, 128, 8, 64, 16, 16, 8, true};
    std::uint32_t numMemPartitions = 6;
    Cycle icntLatency = 12;           ///< one-way core<->partition
    std::uint32_t icntFlitsPerCycle = 2; ///< per-partition accept rate
    std::uint32_t coreMemQueue = 16;  ///< per-core outgoing request buffer
    DramConfig dram{};

    // --- scheduling policies --------------------------------------------
    WarpSchedKind warpSched = WarpSchedKind::GTO;
    CtaSchedKind ctaSched = CtaSchedKind::RoundRobin;
    /** Static per-core CTA cap for oracle sweeps; 0 = no extra cap. */
    std::uint32_t staticCtaLimit = 0;
    LcsConfig lcs{};
    BcsConfig bcs{};
    DynctaConfig dyncta{};

    // --- simulation control ---------------------------------------------
    Cycle maxCycles = 200'000'000; ///< hard stop (deadlock guard)
    /**
     * Skip quiet cycles by jumping to the machine's next event instead
     * of ticking every component. Purely a simulation-speed knob: all
     * observable behaviour (stats, traces, samples, artifacts) is
     * byte-identical either way, which the fast-forward equivalence
     * tests pin. The member initializer reads the process-wide default
     * so bench binaries can disable it via `--no-fast-forward`.
     */
    bool fastForward = defaultFastForward();

    /** Warps per core implied by the thread budget. */
    std::uint32_t maxWarpsPerCore() const
    {
        return maxThreadsPerCore / kWarpSize;
    }

    /** Abort with fatal() on inconsistent parameters. */
    void validate() const;

    /** The default Fermi-class configuration (Table "config"). */
    static GpuConfig gtx480();

    /** Human-readable multi-line description (bench/tab_config). */
    std::string toString() const;
};

} // namespace bsched

#endif // BSCHED_SIM_CONFIG_HH
