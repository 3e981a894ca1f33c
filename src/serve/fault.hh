/**
 * @file
 * Deterministic fault injection for the serving layer.
 *
 * Every degradation path the JobServer claims to handle — worker
 * stalls, transient job failures, allocation failures at chosen
 * points, admission-control storms — is exercised by tests through
 * this harness rather than hoped for.  The schedule is deterministic
 * the same way the engine's RNG streams are: whether a fault fires at
 * an injection point is a pure function of (schedule seed, site,
 * site-specific key), independent of thread interleaving, worker
 * count, and wall-clock time.  Re-running a workload against the same
 * schedule reproduces every fault — and therefore every retry,
 * rejection, and partial result — exactly.
 *
 * Keys are chosen by the call sites so that they are stable across
 * interleavings: (job id, attempt) for pre-run job failures, (job id,
 * wave ordinal) for worker stalls, (job id, allocation site ordinal)
 * for allocation failures, the admission sequence number for forced
 * rejections.
 *
 * The harness is configured in code only (configure()/reset()); the
 * shard coordinator ships the installed FaultConfig to its workers in
 * every SUBMIT frame.
 */

#ifndef ADAPT_SERVE_FAULT_HH
#define ADAPT_SERVE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace adapt::serve
{

/** A retryable failure: the JobServer retries these with exponential
 *  backoff (up to the job's retry budget) instead of failing the job
 *  outright. */
class TransientFault : public std::runtime_error
{
  public:
    explicit TransientFault(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Injection points the harness can arm.  The first four live inside
 *  the in-process JobServer; the last four are process-level sites for
 *  the shard executor (keys chosen so schedules are independent of
 *  worker count — see shard_executor.hh). */
enum class FaultSite : uint8_t
{
    JobFailure,  //!< transient failure before a run attempt starts
    WorkerStall, //!< stall at a shot-block wave boundary
    AllocFailure,//!< std::bad_alloc at a chosen allocation point
    AdmitReject, //!< admission control forced to reject (queue storm)
    WorkerCrash, //!< worker _exit()s mid-lease, key (lease, attempt)
    LeaseStall,  //!< worker stops heartbeating, key (lease, attempt)
    FrameCorrupt,//!< worker's RESULT frame is corrupted in flight,
                 //!< key (lease, attempt)
    ExecFailure, //!< fork/exec of a worker fails, key = spawn ordinal
};

constexpr int kNumFaultSites = 8;

const char *faultSiteName(FaultSite site);

/**
 * A deterministic fault schedule.  seed == 0 disables the harness
 * entirely (the default); with a non-zero seed each armed site fires
 * at an injection point iff a Bernoulli draw from the stream forked
 * off (seed, site, key) succeeds.  `force` pins individual
 * (site, key) points to fire unconditionally — the exact-scenario
 * hook the tests use ("job 3's first two attempts fail", "stall after
 * wave 2 of job 1").
 */
struct FaultConfig
{
    uint64_t seed = 0;
    double probability[kNumFaultSites] = {};
    int stallMs = 0; //!< WorkerStall / LeaseStall duration per firing

    std::vector<std::pair<FaultSite, uint64_t>> force;

    FaultConfig &forceAt(FaultSite site, uint64_t key)
    {
        force.emplace_back(site, key);
        if (seed == 0)
            seed = 1; // forcing a point arms the harness
        return *this;
    }
};

/** Mix two identifiers into one site key (splitmix64-style). */
uint64_t faultKey(uint64_t a, uint64_t b);

/**
 * Process-wide injector.  Configuration swaps are mutex-guarded and
 * queries read an immutable snapshot, so arming/disarming races
 * cleanly with in-flight jobs (TSan-verified); queries themselves are
 * pure functions of the snapshot.
 */
class FaultInjector
{
  public:
    static FaultInjector &global();

    /** Install @p cfg and zero the firing counters. */
    void configure(FaultConfig cfg);

    /** Disarm everything (the default state). */
    void reset() { configure(FaultConfig{}); }

    bool enabled() const;

    /** Pure decision: does (site, key) fire under the installed
     *  schedule?  Does not count a firing. */
    bool fires(FaultSite site, uint64_t key) const;

    /** Throw TransientFault if (JobFailure, key) fires. */
    void maybeFailJob(uint64_t key);

    /** Throw std::bad_alloc if (AllocFailure, key) fires. */
    void maybeFailAlloc(uint64_t key);

    /** Sleep the configured stall if (WorkerStall, key) fires. */
    void maybeStall(uint64_t key);

    /** True if (AdmitReject, key) fires — the submission should be
     *  rejected as if the queue were full. */
    bool maybeRejectAdmission(uint64_t key);

    /** Firings of @p site since the last configure()/reset(). */
    uint64_t firedCount(FaultSite site) const;

    /** Immutable snapshot of the installed schedule — what the shard
     *  coordinator ships to workers in SUBMIT so their injectors
     *  replay the same schedule. */
    FaultConfig config() const;

  private:
    FaultInjector() = default;
    struct Impl;
    Impl &impl() const;
};

} // namespace adapt::serve

#endif // ADAPT_SERVE_FAULT_HH
