/**
 * @file
 * Deterministic fault-injection suite.
 *
 * The harness (serve/fault.hh) decides whether a fault fires as a
 * pure function of (schedule seed, site, site-specific key) — so
 * every scenario here replays exactly: across reruns, across server
 * worker counts, under sanitizers.  The suite drives each degradation
 * path the JobServer documents and pins its externally visible
 * outcome:
 *  - forced transient failures -> retry with backoff -> bit-identical
 *    final histogram;
 *  - retry budget exhaustion -> Failed with a reason;
 *  - allocation failure at admission -> reject, at run -> retry;
 *  - admission storms -> immediate rejections, no blocking, server
 *    stays healthy;
 *  - worker stalls + deadlines -> Expired with an exact one-wave
 *    prefix; stalls + cancel -> exact prefix.
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: the schedule (and thus
 * every assertion) must not move.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "noise/machine.hh"
#include "serve/fault.hh"
#include "serve/job_server.hh"
#include "serve/wire.hh"
#include "test_util.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::serve;
using namespace adapt::testutil;
using namespace std::chrono_literals;

namespace
{

PreparedCircuit
denseJob(const NoisyMachine &machine, const Device &device)
{
    const CompiledProgram p =
        transpile(makeQft(4, QftState::A), device,
                  device.calibration(0));
    return machine.prepare(p.schedule);
}

/** Every test starts and ends with the global harness disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::global().reset(); }
    void TearDown() override { FaultInjector::global().reset(); }
};

} // namespace

// ----------------------------------------------------- the schedule

TEST_F(FaultTest, FaultKeyIsDeterministicAndSpreads)
{
    EXPECT_EQ(faultKey(3, 7), faultKey(3, 7));
    EXPECT_NE(faultKey(3, 7), faultKey(7, 3));
    EXPECT_NE(faultKey(1, 0), faultKey(0, 1));
    EXPECT_NE(faultKey(2, 1), faultKey(1, 2));
}

TEST_F(FaultTest, DisabledHarnessNeverFires)
{
    FaultConfig cfg; // seed 0
    cfg.probability[static_cast<int>(FaultSite::JobFailure)] = 1.0;
    FaultInjector::global().configure(cfg);
    EXPECT_FALSE(FaultInjector::global().enabled());
    for (uint64_t key = 0; key < 64; key++)
        EXPECT_FALSE(FaultInjector::global().fires(
            FaultSite::JobFailure, key));

    // Armed, probability 1.0 fires at every key.
    cfg.seed = 5;
    cfg.probability[static_cast<int>(FaultSite::ExecFailure)] = 1.0;
    FaultInjector::global().configure(cfg);
    for (const uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                               uint64_t{12345}, faultKey(3, 1)}) {
        EXPECT_TRUE(
            FaultInjector::global().fires(FaultSite::JobFailure, key));
        EXPECT_TRUE(
            FaultInjector::global().fires(FaultSite::ExecFailure, key));
    }
}

TEST_F(FaultTest, ScheduleIsAPureFunctionOfSeedSiteKey)
{
    FaultConfig cfg;
    cfg.seed = 1234;
    cfg.probability[static_cast<int>(FaultSite::JobFailure)] = 0.5;
    cfg.probability[static_cast<int>(FaultSite::AdmitReject)] = 0.5;
    FaultInjector &inj = FaultInjector::global();

    inj.configure(cfg);
    std::vector<bool> first;
    int fired = 0;
    for (uint64_t key = 0; key < 256; key++) {
        const bool f = inj.fires(FaultSite::JobFailure, key);
        first.push_back(f);
        fired += f;
    }
    // p = 0.5 over 256 keys: both outcomes must appear.
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 256);

    // Reinstalling the same schedule replays it exactly.
    inj.configure(cfg);
    for (uint64_t key = 0; key < 256; key++)
        EXPECT_EQ(inj.fires(FaultSite::JobFailure, key), first[key])
            << key;

    // Sites draw from distinct streams.
    bool differs = false;
    for (uint64_t key = 0; key < 256 && !differs; key++) {
        differs = inj.fires(FaultSite::AdmitReject, key) !=
                  first[key];
    }
    EXPECT_TRUE(differs);

    // A different seed is a different schedule.
    cfg.seed = 4321;
    inj.configure(cfg);
    differs = false;
    for (uint64_t key = 0; key < 256 && !differs; key++)
        differs = inj.fires(FaultSite::JobFailure, key) != first[key];
    EXPECT_TRUE(differs);
}

TEST_F(FaultTest, ForcedPointsFireExactlyAndAreCounted)
{
    FaultConfig cfg;
    cfg.forceAt(FaultSite::JobFailure, 42);
    FaultInjector &inj = FaultInjector::global();
    inj.configure(cfg);
    EXPECT_TRUE(inj.enabled()) << "forcing a point arms the harness";
    EXPECT_TRUE(inj.fires(FaultSite::JobFailure, 42));
    EXPECT_FALSE(inj.fires(FaultSite::JobFailure, 43));
    EXPECT_FALSE(inj.fires(FaultSite::AllocFailure, 42));

    EXPECT_EQ(inj.firedCount(FaultSite::JobFailure), 0u)
        << "fires() is a pure query";
    EXPECT_THROW(inj.maybeFailJob(42), TransientFault);
    EXPECT_EQ(inj.firedCount(FaultSite::JobFailure), 1u);
    inj.maybeFailJob(43); // quiet point: no throw
    EXPECT_EQ(inj.firedCount(FaultSite::JobFailure), 1u);
}

// --------------------------------------------- server under faults

TEST_F(FaultTest, TransientFailuresRetryToBitIdenticalResult)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 300;

    // First job a fresh server admits gets id 1; fail its first two
    // attempts.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::JobFailure, faultKey(1, 0));
    cfg.forceAt(FaultSite::JobFailure, faultKey(1, 1));
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.maxRetries = 3;
    opts.backoffBase = 1ms;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 5;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Done);
    EXPECT_EQ(result.attempts, 3);
    EXPECT_FALSE(result.partial);
    EXPECT_TRUE(distributionsIdentical(
        result.dist, machine.run(prepared, kShots, 5)))
        << "retries must not disturb the output";
    EXPECT_EQ(server.stats().retried, 2u);
    EXPECT_EQ(FaultInjector::global().firedCount(
                  FaultSite::JobFailure),
              2u);
}

TEST_F(FaultTest, RetryBudgetExhaustionFailsWithReason)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    FaultConfig cfg;
    for (uint64_t attempt = 0; attempt < 3; attempt++)
        cfg.forceAt(FaultSite::JobFailure, faultKey(1, attempt));
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.maxRetries = 2;
    opts.backoffBase = 1ms;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 100;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Failed);
    EXPECT_EQ(result.attempts, 3);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.dist.totalSamples(), 0u);
    EXPECT_NE(result.reason.find("retries exhausted"),
              std::string::npos);
    EXPECT_EQ(server.stats().failed, 1u);
    EXPECT_EQ(server.stats().retried, 2u);
}

TEST_F(FaultTest, AllocationFailureAtAdmissionRejects)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    // Submission sequence numbers start at 1.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::AllocFailure,
                faultKey(1, kAllocAdmitOrdinal));
    FaultInjector::global().configure(cfg);

    JobServer server(machine, ServerOptions{});
    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 50;
    const Admission first = server.submit("t", spec);
    EXPECT_FALSE(first.accepted);
    EXPECT_NE(first.reason.find("allocation failure"),
              std::string::npos);
    const Admission second = server.submit("t", spec);
    ASSERT_TRUE(second.accepted) << "only seq 1 was poisoned";
    EXPECT_EQ(server.wait(second.id).state, JobState::Done);
    EXPECT_EQ(FaultInjector::global().firedCount(
                  FaultSite::AllocFailure),
              1u);
}

TEST_F(FaultTest, AllocationFailureDuringRunRetries)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 200;

    FaultConfig cfg;
    cfg.forceAt(FaultSite::AllocFailure,
                faultKey(1, kAllocAttemptBase + 0));
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.backoffBase = 1ms;
    JobServer server(machine, opts);
    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 8;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Done);
    EXPECT_EQ(result.attempts, 2);
    EXPECT_TRUE(distributionsIdentical(
        result.dist, machine.run(prepared, kShots, 8)));
}

TEST_F(FaultTest, AdmissionStormRejectsWithoutBlockingOrCrashing)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    // Poison submission sequences 1..4; 5+ go through.
    FaultConfig cfg;
    for (uint64_t seq = 1; seq <= 4; seq++)
        cfg.forceAt(FaultSite::AdmitReject, seq);
    FaultInjector::global().configure(cfg);

    JobServer server(machine, ServerOptions{});
    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 50;

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; i++) {
        const Admission adm = server.submit("t", spec);
        EXPECT_FALSE(adm.accepted);
        EXPECT_NE(adm.reason.find("queue full"), std::string::npos);
    }
    const Admission ok = server.submit("t", spec);
    ASSERT_TRUE(ok.accepted);
    EXPECT_EQ(server.wait(ok.id).state, JobState::Done);
    // "Never blocks": the storm answered in interactive time even
    // with jobs running (generous bound, sanitizer-safe).
    EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
    EXPECT_EQ(server.stats().rejected, 4u);
    EXPECT_EQ(FaultInjector::global().firedCount(
                  FaultSite::AdmitReject),
              4u);
}

TEST_F(FaultTest, StallPlusDeadlineExpiresWithExactOneWavePrefix)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 100000;

    // Job 1 stalls 1.5 s at its first progress wave; its deadline is
    // 300 ms.  The first wave of a single-chunk dense run commits
    // exactly kShotBlock shots before the stall, and the deadline
    // check at the next wave boundary expires the job — so shotsDone
    // is exactly one wave, deterministically.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::WorkerStall, faultKey(1, 0));
    cfg.stallMs = 1500;
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.threadsPerJob = 1;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 13;
    spec.timeout = 300ms;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Expired);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.shotsDone, kShotBlock);
    EXPECT_TRUE(distributionsIdentical(
        result.dist,
        machine.run(prepared, static_cast<int>(result.shotsDone),
                    13)));
    EXPECT_EQ(FaultInjector::global().firedCount(
                  FaultSite::WorkerStall),
              1u);
}

TEST_F(FaultTest, StallPlusCancelStopsWithExactOneWavePrefix)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 100000;

    FaultConfig cfg;
    cfg.forceAt(FaultSite::WorkerStall, faultKey(1, 0));
    cfg.stallMs = 2000; // wide window to land the cancel in
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.threadsPerJob = 1;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 17;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);

    // The job publishes its first wave and then stalls; cancel inside
    // the stall window.
    while (server.shotsDone(adm.id) == 0)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(server.cancel(adm.id));
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Cancelled);
    EXPECT_EQ(result.shotsDone, kShotBlock)
        << "cancellation took effect within one shot-chunk";
    EXPECT_TRUE(distributionsIdentical(
        result.dist,
        machine.run(prepared, static_cast<int>(result.shotsDone),
                    17)));
}

TEST_F(FaultTest, ScheduleAndOutputsInvariantAcrossWorkerCounts)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 200;
    constexpr int kJobs = 8;

    // A probabilistic schedule keyed by (job id, attempt): whichever
    // worker picks a job up, its faults — and therefore its attempt
    // count and output — must not move.
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.probability[static_cast<int>(FaultSite::JobFailure)] = 0.4;
    FaultInjector::global().configure(cfg);

    std::vector<int> reference_attempts;
    std::vector<Distribution> reference_dists;
    for (int workers : {1, 4}) {
        FaultInjector::global().configure(cfg);
        ServerOptions opts;
        opts.workers = workers;
        opts.maxRetries = 8;
        opts.backoffBase = 1ms;
        JobServer server(machine, opts);

        std::vector<JobId> ids;
        JobSpec spec;
        spec.prepared = prepared;
        spec.shots = kShots;
        for (int j = 0; j < kJobs; j++) {
            spec.seed = 100 + static_cast<uint64_t>(j);
            const Admission adm =
                server.submit("t" + std::to_string(j % 3), spec);
            ASSERT_TRUE(adm.accepted);
            ids.push_back(adm.id);
        }
        for (int j = 0; j < kJobs; j++) {
            const JobResult result = server.wait(ids[j]);
            EXPECT_EQ(result.state, JobState::Done)
                << "workers=" << workers << " job " << j;
            if (workers == 1) {
                reference_attempts.push_back(result.attempts);
                reference_dists.push_back(result.dist);
            } else {
                EXPECT_EQ(result.attempts, reference_attempts[j])
                    << "fault schedule moved: workers=" << workers
                    << " job " << j;
                EXPECT_TRUE(distributionsIdentical(
                    result.dist, reference_dists[j]))
                    << "workers=" << workers << " job " << j;
            }
        }
    }
    // The schedule really forced retries somewhere (p = 0.4 across 8
    // jobs; a dead harness would make this suite vacuous).
    int total_attempts = 0;
    for (int a : reference_attempts)
        total_attempts += a;
    EXPECT_GT(total_attempts, kJobs);
}

// ------------------------------------- process-level sites (PR 9)

TEST_F(FaultTest, ProcessLevelSitesArePureFunctionsOfTheSchedule)
{
    FaultConfig cfg;
    cfg.seed = 2024;
    cfg.probability[static_cast<int>(FaultSite::WorkerCrash)] = 0.3;
    cfg.probability[static_cast<int>(FaultSite::LeaseStall)] = 0.2;
    cfg.probability[static_cast<int>(FaultSite::FrameCorrupt)] = 0.25;
    cfg.probability[static_cast<int>(FaultSite::ExecFailure)] = 0.15;
    FaultInjector &injector = FaultInjector::global();
    const std::vector<FaultSite> sites = {
        FaultSite::WorkerCrash, FaultSite::LeaseStall,
        FaultSite::FrameCorrupt, FaultSite::ExecFailure};

    // Record the schedule over a (lease, attempt) grid, then replay
    // it after a reconfigure, querying in reverse order: the answers
    // must be identical point for point — the property that makes an
    // injected kill-storm independent of pool size and interleaving.
    injector.configure(cfg);
    std::vector<bool> first;
    for (const FaultSite site : sites) {
        for (uint64_t lease = 0; lease < 16; lease++) {
            for (uint32_t attempt = 0; attempt < 4; attempt++) {
                first.push_back(injector.fires(
                    site, faultKey(lease, attempt)));
            }
        }
    }
    injector.configure(cfg);
    std::vector<bool> replay(first.size());
    for (size_t i = first.size(); i-- > 0;) {
        const size_t site_idx = i / 64;
        const uint64_t lease = (i % 64) / 4;
        const uint32_t attempt = static_cast<uint32_t>(i % 4);
        replay[i] = injector.fires(sites[site_idx],
                                   faultKey(lease, attempt));
    }
    EXPECT_EQ(first, replay);

    // The schedule is live (some point fires) but not saturated, and
    // the sites draw from distinct streams (patterns differ).
    int fired = 0;
    for (const bool f : first)
        fired += f;
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, static_cast<int>(first.size()));
    EXPECT_NE(std::vector<bool>(first.begin(), first.begin() + 64),
              std::vector<bool>(first.begin() + 64,
                                first.begin() + 128));
}

TEST_F(FaultTest, FaultConfigWireRoundTripReplaysTheSchedule)
{
    // What the shard coordinator ships in SUBMIT must make a worker's
    // injector answer exactly like the coordinator's own.
    FaultConfig cfg;
    cfg.seed = 77;
    cfg.probability[static_cast<int>(FaultSite::WorkerCrash)] = 0.4;
    cfg.probability[static_cast<int>(FaultSite::FrameCorrupt)] = 0.1;
    cfg.stallMs = 123;
    cfg.forceAt(FaultSite::LeaseStall, faultKey(3, 1));
    cfg.forceAt(FaultSite::ExecFailure, 2);

    wire::Writer w;
    wire::encodeFaultConfig(w, cfg);
    const std::vector<uint8_t> bytes = w.take();
    wire::Reader r(bytes.data(), bytes.size());
    const FaultConfig back = wire::decodeFaultConfig(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.stallMs, cfg.stallMs);
    ASSERT_EQ(back.force.size(), cfg.force.size());

    FaultInjector &injector = FaultInjector::global();
    for (const FaultSite site :
         {FaultSite::WorkerCrash, FaultSite::LeaseStall,
          FaultSite::FrameCorrupt, FaultSite::ExecFailure}) {
        for (uint64_t lease = 0; lease < 12; lease++) {
            for (uint32_t attempt = 0; attempt < 3; attempt++) {
                const uint64_t key = faultKey(lease, attempt);
                injector.configure(cfg);
                const bool coordinator = injector.fires(site, key);
                injector.configure(back);
                EXPECT_EQ(injector.fires(site, key), coordinator)
                    << faultSiteName(site) << " lease=" << lease
                    << " attempt=" << attempt;
            }
        }
    }
    // The forced points survived the round trip.
    injector.configure(back);
    EXPECT_TRUE(
        injector.fires(FaultSite::LeaseStall, faultKey(3, 1)));
    EXPECT_TRUE(injector.fires(FaultSite::ExecFailure, 2));

    // The four process-level sites resolve to distinct names.
    EXPECT_STREQ(faultSiteName(FaultSite::WorkerCrash),
                 "worker-crash");
    EXPECT_STREQ(faultSiteName(FaultSite::LeaseStall), "lease-stall");
    EXPECT_STREQ(faultSiteName(FaultSite::FrameCorrupt),
                 "frame-corrupt");
    EXPECT_STREQ(faultSiteName(FaultSite::ExecFailure),
                 "exec-failure");
}
