#include "serve/fault.hh"

#include <chrono>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "common/rng.hh"

namespace adapt::serve
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::JobFailure:
        return "job-failure";
      case FaultSite::WorkerStall:
        return "worker-stall";
      case FaultSite::AllocFailure:
        return "alloc-failure";
      case FaultSite::AdmitReject:
        return "admit-reject";
      case FaultSite::WorkerCrash:
        return "worker-crash";
      case FaultSite::LeaseStall:
        return "lease-stall";
      case FaultSite::FrameCorrupt:
        return "frame-corrupt";
      case FaultSite::ExecFailure:
        return "exec-failure";
    }
    return "unknown";
}

uint64_t
faultKey(uint64_t a, uint64_t b)
{
    // splitmix64 finalizer over the packed pair: spreads (id, ordinal)
    // pairs across the key space so per-site Bernoulli streams are
    // uncorrelated between neighbouring jobs / attempts.
    uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

struct FaultInjector::Impl
{
    mutable std::mutex mutex;
    std::shared_ptr<const FaultConfig> config =
        std::make_shared<const FaultConfig>();
    std::atomic<uint64_t> fired[kNumFaultSites] = {};

    std::shared_ptr<const FaultConfig>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return config;
    }
};

FaultInjector &
FaultInjector::global()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::Impl &
FaultInjector::impl() const
{
    static Impl impl;
    return impl;
}

void
FaultInjector::configure(FaultConfig cfg)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    i.config = std::make_shared<const FaultConfig>(std::move(cfg));
    for (std::atomic<uint64_t> &count : i.fired)
        count.store(0, std::memory_order_relaxed);
}

bool
FaultInjector::enabled() const
{
    return impl().snapshot()->seed != 0;
}

namespace
{

bool
scheduleFires(const FaultConfig &cfg, FaultSite site, uint64_t key)
{
    if (cfg.seed == 0)
        return false;
    for (const auto &[forced_site, forced_key] : cfg.force) {
        if (forced_site == site && forced_key == key)
            return true;
    }
    const double p = cfg.probability[static_cast<int>(site)];
    if (p <= 0.0)
        return false;
    // Pure function of (seed, site, key): fork a dedicated stream and
    // take its first Bernoulli draw.  Rng is platform-deterministic,
    // so a schedule replays identically anywhere.
    Rng site_rng = Rng(cfg.seed ^ 0xfa017u)
                       .fork(0xf417 + static_cast<uint64_t>(site));
    Rng point_rng = site_rng.fork(faultKey(key, 0x5eedULL));
    return point_rng.bernoulli(p);
}

} // namespace

bool
FaultInjector::fires(FaultSite site, uint64_t key) const
{
    return scheduleFires(*impl().snapshot(), site, key);
}

void
FaultInjector::maybeFailJob(uint64_t key)
{
    if (!fires(FaultSite::JobFailure, key))
        return;
    impl()
        .fired[static_cast<int>(FaultSite::JobFailure)]
        .fetch_add(1, std::memory_order_relaxed);
    throw TransientFault("injected transient job failure (key " +
                         std::to_string(key) + ")");
}

void
FaultInjector::maybeFailAlloc(uint64_t key)
{
    if (!fires(FaultSite::AllocFailure, key))
        return;
    impl()
        .fired[static_cast<int>(FaultSite::AllocFailure)]
        .fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
}

void
FaultInjector::maybeStall(uint64_t key)
{
    const std::shared_ptr<const FaultConfig> cfg = impl().snapshot();
    if (!scheduleFires(*cfg, FaultSite::WorkerStall, key))
        return;
    impl()
        .fired[static_cast<int>(FaultSite::WorkerStall)]
        .fetch_add(1, std::memory_order_relaxed);
    if (cfg->stallMs > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg->stallMs));
    }
}

bool
FaultInjector::maybeRejectAdmission(uint64_t key)
{
    if (!fires(FaultSite::AdmitReject, key))
        return false;
    impl()
        .fired[static_cast<int>(FaultSite::AdmitReject)]
        .fetch_add(1, std::memory_order_relaxed);
    return true;
}

FaultConfig
FaultInjector::config() const
{
    return *impl().snapshot();
}

uint64_t
FaultInjector::firedCount(FaultSite site) const
{
    return impl()
        .fired[static_cast<int>(site)]
        .load(std::memory_order_relaxed);
}

} // namespace adapt::serve
