#include "serve/engine.hh"

#include <algorithm>

#include "cta/block_cta_sched.hh"
#include "cta/lazy_cta_sched.hh"
#include "gpu/gpu.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "serve/serve_trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace bsched {

namespace {

/** Priority band separating preemptors (win) from normal admissions. */
constexpr int kNormalPriorityBase = 100000;

} // namespace

const char*
toString(ServePolicy policy)
{
    switch (policy) {
      case ServePolicy::Sequential: return "sequential";
      case ServePolicy::Spatial: return "spatial";
      case ServePolicy::Fcfs: return "fcfs";
      case ServePolicy::Reorder: return "reorder";
      case ServePolicy::ReorderPreempt: return "reorder+preempt";
    }
    return "?";
}

std::vector<ServePolicy>
allServePolicies()
{
    return {ServePolicy::Sequential, ServePolicy::Spatial,
            ServePolicy::Fcfs, ServePolicy::Reorder,
            ServePolicy::ReorderPreempt};
}

ServingEngine::ServingEngine(const GpuConfig& gpu_config,
                             const ServeConfig& serve)
    : gpuConfig_(gpu_config), cfg_(serve),
      predictor_(serve.fallbackIpc)
{
    if (cfg_.maxConcurrent == 0)
        fatal("serve: maxConcurrent must be > 0");
    if (cfg_.riskDen == 0)
        fatal("serve: riskDen must be > 0");
    if (cfg_.policy == ServePolicy::Sequential)
        cfg_.maxConcurrent = 1;
    if (cfg_.policy == ServePolicy::Spatial) {
        if (cfg_.spatialWays == 0 ||
            cfg_.spatialWays > gpuConfig_.numCores) {
            fatal("serve: spatialWays must be in [1, numCores]");
        }
        wayBusy_.assign(cfg_.spatialWays, 0);
    }
    // The shared-core policies need the per-core LCS limits that carve
    // out space for a co-resident kernel — same promotion Mixed MCK
    // applies in runMultiKernel.
    if (cfg_.policy == ServePolicy::Fcfs ||
        cfg_.policy == ServePolicy::Reorder ||
        cfg_.policy == ServePolicy::ReorderPreempt) {
        gpuConfig_.ctaSched = withLcsLimits(gpuConfig_.ctaSched);
    }
}

void
ServingEngine::ingest(const std::vector<LaunchRequest>& trace)
{
    outcomes_.reserve(trace.size());
    for (const LaunchRequest& req : trace) {
        RequestOutcome outcome;
        outcome.req = req;
        const std::size_t idx = outcomes_.size();
        if (req.arrival == kCycleNever) {
            // Closed-loop tail: released by a tenant completion.
            outcomes_.push_back(outcome);
            closed_[req.tenant].push_back(idx);
        } else {
            outcome.release = req.arrival;
            if (req.deadlineSlack > 0)
                outcome.deadline = req.arrival + req.deadlineSlack;
            outcomes_.push_back(outcome);
            pending_.push_back(idx);
        }
    }
    // generateTrace emits open-loop requests sorted by (arrival, seq)
    // already; pin the invariant rather than trusting the caller.
    const bool sorted = std::is_sorted(
        pending_.begin(), pending_.end(),
        [this](std::size_t a, std::size_t b) {
            return outcomes_[a].release < outcomes_[b].release;
        });
    if (!sorted)
        fatal("serve: trace arrivals not sorted");
}

bool
ServingEngine::releaseArrivals(Cycle now)
{
    bool any = false;
    while (!pending_.empty() &&
           outcomes_[pending_.front()].release <= now) {
        const std::size_t idx = pending_.front();
        ready_.push_back(idx);
        pending_.erase(pending_.begin());
        const RequestOutcome& outcome = outcomes_[idx];
        // The lifecycle lane stamps the *release* cycle, not the cycle
        // the engine observed it — identical with fast-forward on/off.
        emitServeEvent(outcome.req.tenant, TraceEventKind::ServeArrival,
                       outcome.release, 0,
                       static_cast<std::int64_t>(outcome.req.seq), 0,
                       kInvalidId);
        any = true;
    }
    return any;
}

bool
ServingEngine::collectCompletions(Gpu& gpu, Cycle now)
{
    bool any = false;
    for (std::size_t i = 0; i < active_.size();) {
        const Active active = active_[i];
        const KernelInstance& kernel = gpu.kernel(active.kernelId);
        if (!kernel.finished()) {
            ++i;
            continue;
        }
        any = true;
        RequestOutcome& outcome = outcomes_[active.outcome];
        outcome.finish = kernel.doneCycle;
        outcome.firstDispatch = kernel.firstDispatchCycle;
        BSCHED_CHECK(outcome.finish >= outcome.admit,
                     "serve: kernel ", active.kernelId,
                     " finished before it was admitted");
        const Cycle actual = outcome.finish - outcome.admit;
        predictor_.recordCompletion(outcome.req.workload, actual);
        if (trace_ != nullptr) {
            trace_->accuracy.record(outcome.req.workload,
                                    outcome.predictedTotal, actual);
        }
        if (outcome.firstDispatch != kCycleNever) {
            emitServeEvent(outcome.req.tenant,
                           TraceEventKind::ServeDispatching,
                           outcome.firstDispatch,
                           outcome.firstDispatch - outcome.admit,
                           static_cast<std::int64_t>(outcome.req.seq), 0,
                           outcome.kernelId);
            emitServeEvent(outcome.req.tenant,
                           TraceEventKind::ServeRunning, outcome.finish,
                           outcome.finish - outcome.firstDispatch,
                           static_cast<std::int64_t>(outcome.req.seq), 0,
                           outcome.kernelId);
        }

        // A finished preemptor gives the machine back: lift the drain
        // on every victim still running.
        for (const int victim : active.victims) {
            if (!gpu.kernel(victim).finished() &&
                gpu.kernelDraining(victim)) {
                // Audit only true cancels — drains lifted while the
                // victim still holds CTAs. A drain that already hit
                // zero residency completed; lifting the flag then is
                // bookkeeping, not a decision.
                if (trace_ != nullptr &&
                    gpu.kernelResidentCtas(victim) > 0) {
                    ServeDecision decision;
                    decision.cycle = now;
                    decision.kind = ServeDecisionKind::DrainCancel;
                    decision.queueDepth = ready_.size();
                    decision.running = active_.size();
                    decision.victim = victim;
                    decision.reason = "preemptor_finished";
                    for (const Active& other : active_) {
                        if (other.kernelId != victim)
                            continue;
                        const RequestOutcome& vout =
                            outcomes_[other.outcome];
                        decision.seq = vout.req.seq;
                        decision.tenant = vout.req.tenant;
                        decision.workload = vout.req.workload;
                        break;
                    }
                    trace_->audit.record(decision);
                }
                gpu.requestDrain(victim, false);
            }
        }

        if (cfg_.policy == ServePolicy::Spatial) {
            const auto it = wayOf_.find(active.kernelId);
            if (it != wayOf_.end()) {
                wayBusy_[it->second] = 0;
                wayOf_.erase(it);
            }
        }

        // Closed loop: this completion releases the tenant's next
        // queued request after its think time. Timed off the exact
        // completion cycle, not the loop's observation cycle, so the
        // schedule is independent of when the engine looked.
        auto closed_it = closed_.find(outcome.req.tenant);
        if (closed_it != closed_.end() && !closed_it->second.empty()) {
            const std::size_t next_idx = closed_it->second.front();
            closed_it->second.erase(closed_it->second.begin());
            RequestOutcome& next = outcomes_[next_idx];
            next.release = outcome.finish + next.req.thinkCycles;
            if (next.req.deadlineSlack > 0)
                next.deadline = next.release + next.req.deadlineSlack;
            const auto pos = std::upper_bound(
                pending_.begin(), pending_.end(), next_idx,
                [this](std::size_t a, std::size_t b) {
                    if (outcomes_[a].release != outcomes_[b].release)
                        return outcomes_[a].release < outcomes_[b].release;
                    return outcomes_[a].req.seq < outcomes_[b].req.seq;
                });
            pending_.insert(pos, next_idx);
        }

        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    (void)now;
    return any;
}

Cycle
ServingEngine::nextArrivalCycle() const
{
    return pending_.empty() ? kCycleNever
                            : outcomes_[pending_.front()].release;
}

Cycle
ServingEngine::predictTotalFor(const RequestOutcome& outcome) const
{
    const KernelInfo& info = pool_.at(outcome.req.workload);
    return predictor_.predictTotal(outcome.req.workload,
                                   info.totalDynamicInstrs());
}

Cycle
ServingEngine::predictRemainingFor(const Gpu& gpu, const Active& active,
                                   Cycle now) const
{
    const KernelInstance& kernel = gpu.kernel(active.kernelId);
    const RequestOutcome& outcome = outcomes_[active.outcome];
    const Cycle elapsed = now - kernel.launchCycle;
    return predictor_.predictRemaining(
        outcome.req.workload, kernel.info->totalDynamicInstrs(),
        gpu.kernelInstrsIssued(active.kernelId), elapsed,
        cfg_.monitorCycles);
}

bool
ServingEngine::urgent(std::size_t ready_pos, Cycle now) const
{
    const RequestOutcome& outcome = outcomes_[ready_[ready_pos]];
    if (outcome.deadline == kCycleNever)
        return false;
    const Cycle predicted = predictTotalFor(outcome);
    const Cycle risk = (predicted * cfg_.riskNum) / cfg_.riskDen;
    return now + risk >= outcome.deadline;
}

std::uint64_t
ServingEngine::headroomSlots(const Gpu& gpu) const
{
    // Resolve the LCS monitor when the active CTA scheduler carries
    // one (Lazy directly, LazyBlock via its embedded LCS).
    const LazyCtaScheduler* lazy =
        dynamic_cast<const LazyCtaScheduler*>(&gpu.ctaScheduler());
    if (lazy == nullptr) {
        const auto* lazy_block = dynamic_cast<const LazyBlockCtaScheduler*>(
            &gpu.ctaScheduler());
        if (lazy_block != nullptr)
            lazy = &lazy_block->lazy();
    }

    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < gpuConfig_.numCores; ++c) {
        std::uint64_t claimed = 0;
        for (const Active& active : active_) {
            const KernelInstance& kernel = gpu.kernel(active.kernelId);
            if (kernel.finished())
                continue;
            std::uint32_t cap;
            if (gpu.kernelDraining(active.kernelId)) {
                // A draining kernel's claim shrinks with every retiring
                // CTA: exactly its current residency.
                cap = gpu.cores()[c]->residentCtas(active.kernelId);
            } else {
                const std::uint32_t occ = kernel.maxCtas;
                std::uint32_t limit = occ;
                if (lazy != nullptr) {
                    const std::uint32_t decided =
                        lazy->decidedLimit(c, active.kernelId);
                    // 0 = still monitoring: the kernel fills the core.
                    if (decided != 0)
                        limit = std::min(decided, occ);
                }
                cap = limit;
            }
            claimed += cap;
        }
        const std::uint64_t slots = gpuConfig_.maxCtasPerCore;
        if (claimed < slots)
            total += slots - claimed;
    }
    return total;
}

std::size_t
ServingEngine::pickNext(const Gpu& gpu, Cycle now) const
{
    (void)gpu;
    BSCHED_CHECK(!ready_.empty(), "serve: pickNext on an empty queue");
    if (cfg_.policy != ServePolicy::Reorder &&
        cfg_.policy != ServePolicy::ReorderPreempt) {
        return 0; // arrival order
    }
    // Deadline-at-risk requests first, earliest deadline wins;
    // otherwise shortest predicted job. Ties break on seq (arrival
    // order), keeping the schedule total-ordered and deterministic.
    std::size_t best = 0;
    bool best_urgent = urgent(0, now);
    Cycle best_key = best_urgent ? outcomes_[ready_[0]].deadline
                                 : predictTotalFor(outcomes_[ready_[0]]);
    for (std::size_t pos = 1; pos < ready_.size(); ++pos) {
        const bool is_urgent = urgent(pos, now);
        if (best_urgent && !is_urgent)
            continue;
        const Cycle key = is_urgent
            ? outcomes_[ready_[pos]].deadline
            : predictTotalFor(outcomes_[ready_[pos]]);
        const bool wins = (is_urgent && !best_urgent) || key < best_key ||
            (key == best_key &&
             outcomes_[ready_[pos]].req.seq < outcomes_[ready_[best]].req.seq);
        if (wins) {
            best = pos;
            best_urgent = is_urgent;
            best_key = key;
        }
    }
    return best;
}

void
ServingEngine::launch(Gpu& gpu, Cycle now, std::size_t ready_pos,
                      bool preemptor, std::vector<int> victims)
{
    const std::size_t idx = ready_[ready_pos];
    RequestOutcome& outcome = outcomes_[idx];
    const KernelInfo& info = pool_.at(outcome.req.workload);

    // Snapshot the prediction the admission decision was based on; the
    // accuracy tracker compares it against the realized runtime.
    outcome.predictedTotal = predictTotalFor(outcome);

    // Audit before the queue mutates: the decision inputs index ready_.
    // The preemptor path is audited as one Preempt decision by
    // tryPreempt, which also knows the victim.
    if (trace_ != nullptr && !preemptor) {
        ServeDecision decision;
        fillDecisionInputs(gpu, now, ready_pos, decision);
        decision.kind = ServeDecisionKind::Admit;
        decision.reordered = ready_pos != 0;
        decision.reason = decision.urgent ? "deadline_urgent"
                                          : "admitted";
        trace_->audit.record(decision);
    }

    int core_begin = 0;
    int core_end = -1;
    if (cfg_.policy == ServePolicy::Spatial) {
        std::uint32_t way = cfg_.spatialWays;
        for (std::uint32_t w = 0; w < cfg_.spatialWays; ++w) {
            if (!wayBusy_[w]) {
                way = w;
                break;
            }
        }
        BSCHED_CHECK(way < cfg_.spatialWays,
                     "serve: spatial launch without a free way");
        if (way >= cfg_.spatialWays)
            fatal("serve: spatial launch without a free way");
        const auto cores = static_cast<int>(gpuConfig_.numCores);
        const auto ways = static_cast<int>(cfg_.spatialWays);
        core_begin = cores * static_cast<int>(way) / ways;
        core_end = cores * (static_cast<int>(way) + 1) / ways;
        wayBusy_[way] = 1;
        const int id = gpu.launchKernel(
            info, core_begin, core_end,
            kNormalPriorityBase + static_cast<int>(admitSeq_));
        wayOf_[id] = way;
        outcome.kernelId = id;
    } else {
        const int priority = preemptor
            ? static_cast<int>(admitSeq_)
            : kNormalPriorityBase + static_cast<int>(admitSeq_);
        outcome.kernelId =
            gpu.launchKernel(info, core_begin, core_end, priority);
    }
    ++admitSeq_;
    outcome.admit = now;
    // The queued phase of the lifecycle closes at admission.
    emitServeEvent(outcome.req.tenant, TraceEventKind::ServeQueued, now,
                   now - outcome.release,
                   static_cast<std::int64_t>(outcome.req.seq), 0,
                   outcome.kernelId);

    Active active;
    active.outcome = idx;
    active.kernelId = outcome.kernelId;
    active.preemptor = preemptor;
    active.victims = std::move(victims);
    active_.push_back(std::move(active));

    if (ready_pos != 0)
        ++reorders_;
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos));
}

bool
ServingEngine::tryAdmit(Gpu& gpu, Cycle now)
{
    if (ready_.empty())
        return false;

    switch (cfg_.policy) {
      case ServePolicy::Sequential:
        if (!active_.empty()) {
            auditDefer(gpu, now, "previous_running");
            return false;
        }
        break;
      case ServePolicy::Spatial: {
        const bool free_way = std::any_of(
            wayBusy_.begin(), wayBusy_.end(), [](char b) { return !b; });
        if (!free_way) {
            auditDefer(gpu, now, "no_free_way");
            return false;
        }
        break;
      }
      case ServePolicy::Fcfs:
      case ServePolicy::Reorder:
      case ServePolicy::ReorderPreempt:
        if (active_.size() >= cfg_.maxConcurrent) {
            auditDefer(gpu, now, "concurrency_cap");
            return false;
        }
        // LCS-headroom admission: only co-schedule when the residents'
        // decided limits leave enough CTA slots for a newcomer. While
        // a resident is still in its monitoring phase it claims its
        // whole occupancy, so admission naturally waits for N_opt.
        if (!active_.empty() &&
            headroomSlots(gpu) < cfg_.admitHeadroomSlots) {
            ++headroomDenials_;
            auditDefer(gpu, now, "headroom");
            return false;
        }
        break;
    }

    launch(gpu, now, pickNext(gpu, now), false, {});
    return true;
}

void
ServingEngine::tryPreempt(Gpu& gpu, Cycle now)
{
    if (ready_.empty())
        return;
    // One preemption in flight at a time: a second drain would stack
    // machine-wide slowdowns with no freed slots to show for it yet.
    const bool preempting = std::any_of(
        active_.begin(), active_.end(),
        [](const Active& a) { return a.preemptor; });
    if (preempting)
        return;

    // The most urgent stuck request, if any.
    std::size_t best = ready_.size();
    for (std::size_t pos = 0; pos < ready_.size(); ++pos) {
        if (!urgent(pos, now))
            continue;
        if (best == ready_.size() ||
            outcomes_[ready_[pos]].deadline <
                outcomes_[ready_[best]].deadline) {
            best = pos;
        }
    }
    if (best == ready_.size())
        return;

    // Victim: the running kernel with the most predicted work left.
    // It must still have undispatched CTAs — draining a fully
    // dispatched kernel frees nothing — and must not already drain.
    int victim = kInvalidId;
    Cycle victim_remaining = 0;
    for (const Active& active : active_) {
        if (active.preemptor)
            continue;
        const KernelInstance& kernel = gpu.kernel(active.kernelId);
        if (kernel.finished() || kernel.dispatchDone())
            continue;
        if (gpu.kernelDraining(active.kernelId))
            continue;
        const Cycle remaining = predictRemainingFor(gpu, active, now);
        if (victim == kInvalidId || remaining > victim_remaining ||
            (remaining == victim_remaining &&
             active.kernelId < victim)) {
            victim = active.kernelId;
            victim_remaining = remaining;
        }
    }
    if (victim == kInvalidId)
        return;
    // Only worth the machine-wide disturbance when the victim would
    // otherwise outlast the urgent request's whole run.
    if (victim_remaining <= predictTotalFor(outcomes_[ready_[best]]))
        return;

    if (trace_ != nullptr) {
        ServeDecision decision;
        fillDecisionInputs(gpu, now, best, decision);
        decision.kind = ServeDecisionKind::Preempt;
        decision.reason = "deadline_urgent";
        decision.victim = victim;
        decision.victimPredictedRemaining = victim_remaining;
        trace_->audit.record(decision);
    }
    if (obs_.tracer != nullptr) {
        // Mark the preemption on the *victim's* lane too.
        for (const Active& active : active_) {
            if (active.kernelId != victim)
                continue;
            const RequestOutcome& vout = outcomes_[active.outcome];
            emitServeEvent(vout.req.tenant,
                           TraceEventKind::ServeDrainVictim, now, 0,
                           victim,
                           static_cast<std::int64_t>(vout.req.seq),
                           victim);
            break;
        }
    }
    gpu.requestDrain(victim, true);
    ++preemptions_;
    launch(gpu, now, best, true, {victim});
}

std::uint32_t
ServingEngine::tenantTrack(int tenant) const
{
    const auto it = tenantTrack_.find(tenant);
    if (it == tenantTrack_.end())
        fatal("serve: no tracer lane for tenant ", tenant);
    return it->second;
}

void
ServingEngine::emitServeEvent(int tenant, TraceEventKind kind,
                              Cycle cycle, Cycle duration,
                              std::int64_t arg0, std::int64_t arg1,
                              int kernel_id) const
{
    if (obs_.tracer == nullptr)
        return;
    TraceEvent event;
    event.cycle = cycle;
    event.duration = duration;
    event.arg0 = arg0;
    event.arg1 = arg1;
    event.kernelId = kernel_id;
    event.kind = kind;
    obs_.tracer->record(tenantTrack(tenant), event);
}

void
ServingEngine::fillDecisionInputs(const Gpu& gpu, Cycle now,
                                  std::size_t ready_pos,
                                  ServeDecision& decision) const
{
    const RequestOutcome& outcome = outcomes_[ready_[ready_pos]];
    decision.cycle = now;
    decision.seq = outcome.req.seq;
    decision.tenant = outcome.req.tenant;
    decision.workload = outcome.req.workload;
    decision.queueDepth = ready_.size();
    decision.running = active_.size();
    decision.headroomSlots = headroomSlots(gpu);
    decision.predictedTotal = predictTotalFor(outcome);
    decision.deadline = outcome.deadline;
    decision.urgent = urgent(ready_pos, now);
}

void
ServingEngine::auditDefer(const Gpu& gpu, Cycle now, const char* reason)
{
    if (trace_ == nullptr)
        return;
    // Attribute the deferral to the request the policy would have
    // admitted next (pickNext is const — pure observation).
    ServeDecision decision;
    fillDecisionInputs(gpu, now, pickNext(gpu, now), decision);
    decision.kind = ServeDecisionKind::Defer;
    decision.reason = reason;
    trace_->audit.record(decision);
}

void
ServingEngine::recordSample(IntervalSampler& sampler, Cycle now)
{
    (void)now;
    if (gpu_ == nullptr)
        return; // no Gpu in flight: nothing to observe
    std::uint64_t running = 0;
    std::uint64_t draining = 0;
    for (const Active& active : active_) {
        if (gpu_->kernel(active.kernelId).finished())
            continue;
        ++running;
        if (gpu_->kernelDraining(active.kernelId))
            ++draining;
    }
    std::uint64_t occupied = 0;
    for (const auto& core : gpu_->cores())
        occupied += core->residentCtas();
    sampler.record("serve.queue_depth",
                   static_cast<double>(ready_.size()),
                   SeriesKind::Gauge);
    sampler.record("serve.running_kernels",
                   static_cast<double>(running), SeriesKind::Gauge);
    sampler.record("serve.occupied_cta_slots",
                   static_cast<double>(occupied), SeriesKind::Gauge);
    sampler.record("serve.headroom_slots",
                   static_cast<double>(headroomSlots(*gpu_)),
                   SeriesKind::Gauge);
    sampler.record("serve.drains_in_flight",
                   static_cast<double>(draining), SeriesKind::Gauge);
}

void
ServingEngine::decide(Gpu& gpu, Cycle now)
{
    while (tryAdmit(gpu, now)) {
    }
    if (cfg_.policy == ServePolicy::ReorderPreempt)
        tryPreempt(gpu, now);
}

ServingRunResult
ServingEngine::run(const std::vector<LaunchRequest>& trace)
{
    if (ran_)
        fatal("serve: ServingEngine::run may only be called once");
    ran_ = true;
    if (trace.empty())
        fatal("serve: empty trace");

    // Kernel pool: one KernelInfo per distinct workload, owned here so
    // it outlives the Gpu below (launchKernel keeps the pointer).
    for (const LaunchRequest& req : trace) {
        if (pool_.find(req.workload) == pool_.end())
            pool_.emplace(req.workload, makeWorkload(req.workload));
    }

    ingest(trace);

    // One tracer lane per tenant for the request lifecycle spans,
    // created in tenant order (deterministic track ids).
    if (obs_.tracer != nullptr) {
        std::map<int, char> tenants;
        for (const RequestOutcome& outcome : outcomes_)
            tenants[outcome.req.tenant] = 1;
        for (const auto& [tenant, present] : tenants) {
            (void)present;
            tenantTrack_[tenant] = obs_.tracer->addTrack(
                "tenant" + std::to_string(tenant));
        }
    }

    // Hand the observer through to the Gpu; when a sampler is attached
    // the engine rides along as a SampleSource so the serving gauges
    // land on the same fenced sample cycles as the machine counters.
    Observer obs = obs_;
    if (obs.sampler != nullptr)
        obs.sampleSource = this;

    Gpu gpu(gpuConfig_, obs);
    gpu_ = &gpu;
    std::size_t remaining = outcomes_.size();
    while (remaining > 0) {
        const Cycle now = gpu.cycle();
        bool event = releaseArrivals(now);
        if (collectCompletions(gpu, now)) {
            event = true;
            std::size_t unfinished = 0;
            for (const RequestOutcome& outcome : outcomes_) {
                if (outcome.finish == kCycleNever)
                    ++unfinished;
            }
            remaining = unfinished;
        }
        // Decisions happen only on events (arrival or completion), so
        // the schedule never depends on which intermediate cycles the
        // engine happened to observe — the property that keeps runs
        // byte-identical with idle fast-forward on or off.
        if (event)
            decide(gpu, now);
        if (remaining == 0)
            break;
        // Fence idle fast-forward at the next arrival: a quiet GPU may
        // not jump past the cycle where this engine will act.
        gpu.setExternalEventCycle(nextArrivalCycle());
        gpu.stepCycle();
    }

    // Close out the sampler at the final cycle (run() isn't used here,
    // so the engine takes the closing sample itself).
    gpu.finalizeSample();

    ServingRunResult result;
    result.preemptions = preemptions_;
    result.reorders = reorders_;
    result.drainRequests = gpu.ctaScheduler().drainRequests();
    result.drainCancels = gpu.drainCancels();
    result.drainsCompleted = gpu.drainsCompleted();
    result.drainLatencyCycles = gpu.drainLatencyCycles();
    Cycle last = 0;
    for (const RequestOutcome& outcome : outcomes_) {
        BSCHED_CHECK(outcome.finish != kCycleNever,
                     "serve: run ended with unserved request ",
                     outcome.req.seq);
        last = std::max(last, outcome.finish);
    }
    result.totalCycles = last;
    result.stats.set("serve.requests",
                     static_cast<double>(outcomes_.size()));
    result.stats.set("serve.preemptions",
                     static_cast<double>(preemptions_));
    result.stats.set("serve.reorders", static_cast<double>(reorders_));
    result.stats.set("serve.headroom_denials",
                     static_cast<double>(headroomDenials_));
    result.stats.set("serve.drain_requests",
                     static_cast<double>(result.drainRequests));
    result.stats.set("serve.drain_cancels",
                     static_cast<double>(result.drainCancels));
    result.stats.set("serve.drains_completed",
                     static_cast<double>(result.drainsCompleted));
    result.stats.set("serve.drain_latency_cycles",
                     static_cast<double>(result.drainLatencyCycles));
    result.outcomes = std::move(outcomes_);
    gpu_ = nullptr;
    return result;
}

} // namespace bsched
