/**
 * @file
 * Tests for the parallel shot-execution engine and its supporting
 * utilities: deterministic chunking in parallelFor, the flat
 * open-addressing accumulator, thread-count-invariant NoisyMachine
 * output, fused single-qubit gate application, and the sampling
 * fast path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/flat_accumulator.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "noise/machine.hh"
#include "sim/statevector.hh"
#include "transpile/transpiler.hh"

using namespace adapt;

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(0, 1000, 8, [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++)
            hits[static_cast<size_t>(i)]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunkBoundariesAreDeterministic)
{
    // Chunk layout must depend only on (range, chunk count), so the
    // per-chunk partial sums are reproducible across runs and pools.
    auto partials = [](int64_t n, int chunks) {
        std::vector<int64_t> sums(static_cast<size_t>(chunks), -1);
        parallelFor(0, n, chunks, [&](int64_t lo, int64_t hi, int c) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; i++)
                s += i;
            sums[static_cast<size_t>(c)] = s;
        });
        return sums;
    };
    EXPECT_EQ(partials(1003, 7), partials(1003, 7));
    int64_t total = 0;
    for (int64_t s : partials(1003, 7))
        total += s;
    EXPECT_EQ(total, 1003 * 1002 / 2);
}

TEST(ParallelFor, MoreChunksThanElements)
{
    std::atomic<int> count{0};
    parallelFor(0, 3, 16, [&](int64_t lo, int64_t hi, int) {
        count += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    std::atomic<int> inner_total{0};
    parallelFor(0, 4, 4, [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            parallelFor(0, 10, 4, [&](int64_t ilo, int64_t ihi, int) {
                inner_total += static_cast<int>(ihi - ilo);
            });
        }
    });
    EXPECT_EQ(inner_total.load(), 40);
}

namespace
{

/** Thread ids that execute a nested threads=0 region inside each
 *  chunk of parallelFor(0, items, outer_threads). */
std::set<std::thread::id>
nestedRegionThreads(int64_t items, int outer_threads)
{
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallelFor(0, items, outer_threads, [&](int64_t, int64_t, int) {
        parallelFor(0, 64, 0, [&](int64_t, int64_t, int) {
            // Long enough that idle pool workers wake and claim
            // chunks before the caller could drain them all.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
    });
    return ids;
}

} // namespace

TEST(ParallelFor, SerialRequestKeepsNestedRegionsOnCaller)
{
    const std::set<std::thread::id> ids = nestedRegionThreads(4, 1);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelFor, SingleItemAutoRangeStillFansOut)
{
    // One chunk only because the range holds one item: the nested
    // region keeps the whole pool.
    if (defaultThreads() < 2)
        GTEST_SKIP() << "single-executor pool";
    EXPECT_GT(nestedRegionThreads(1, 0).size(), 1u);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(0, 100, 4,
                    [&](int64_t lo, int64_t, int) {
                        if (lo >= 0)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ResolveThreads, PositivePassesThrough)
{
    EXPECT_EQ(resolveThreads(3), 3);
    EXPECT_EQ(resolveThreads(0), defaultThreads());
    EXPECT_EQ(resolveThreads(-1), defaultThreads());
    EXPECT_GE(defaultThreads(), 1);
}

// ------------------------------------------------------ FlatAccumulator

TEST(FlatAccumulator, MatchesMapReference)
{
    FlatAccumulator acc;
    std::map<uint64_t, double> ref;
    Rng rng(123);
    for (int i = 0; i < 5000; i++) {
        // Small key space forces collisions; huge keys test hashing.
        const uint64_t key = rng.bernoulli(0.5)
                                 ? rng.uniformInt(37)
                                 : rng.next();
        const double w = rng.uniform();
        acc.add(key, w);
        ref[key] += w;
    }
    EXPECT_EQ(acc.size(), ref.size());
    const auto items = acc.sortedItems();
    ASSERT_EQ(items.size(), ref.size());
    auto it = ref.begin();
    for (const auto &[key, value] : items) {
        EXPECT_EQ(key, it->first);
        EXPECT_DOUBLE_EQ(value, it->second);
        ++it;
    }
}

TEST(FlatAccumulator, GrowsPastInitialCapacity)
{
    FlatAccumulator acc(2);
    for (uint64_t k = 0; k < 10000; k++)
        acc.add(k, 1.0);
    EXPECT_EQ(acc.size(), 10000u);
    EXPECT_DOUBLE_EQ(acc.value(9999), 1.0);
    EXPECT_DOUBLE_EQ(acc.value(10001), 0.0);
}

// ------------------------------------- thread-count-invariant machine

namespace
{

/** A circuit with real idle structure so every noise channel fires. */
CompiledProgram
testProgram(const Device &device)
{
    Circuit c(3);
    c.h(0);
    c.h(2);
    c.cx(0, 1);
    for (int i = 0; i < 4; i++)
        c.cx(1, 2);
    c.h(0);
    c.h(2);
    c.measureAll();
    return transpile(c, device, device.calibration(0));
}

} // namespace

TEST(ParallelMachine, BitIdenticalAcrossThreadCounts)
{
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const CompiledProgram program = testProgram(device);
    const int shots = 600;
    const uint64_t seed = 20260731;

    const Distribution serial =
        machine.run(program.schedule, shots, seed, 1);
    for (int threads : {2, 8}) {
        const Distribution parallel =
            machine.run(program.schedule, shots, seed, threads);
        EXPECT_EQ(parallel.totalSamples(), serial.totalSamples());
        // probabilities() compares exactly: counts are integers and
        // the normalization is the same division, so any mismatch is
        // a real determinism bug, not round-off.
        EXPECT_EQ(parallel.probabilities(), serial.probabilities())
            << "thread count " << threads
            << " changed the output distribution";
    }
}

namespace
{

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

TEST(ParallelMachine, RunBatchAtOneThreadStaysOnCaller)
{
    // runBatch(..., 1) runs each job's shots at threads=0 inside a
    // serial request, so every shot must land on the calling thread:
    // the rest of the process (idle pool workers) burns next to no
    // CPU.
    if (defaultThreads() < 2)
        GTEST_SKIP() << "single-executor pool";
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const std::vector<ScheduledCircuit> jobs(
        4, testProgram(device).schedule);
    const std::vector<uint64_t> seeds = {1, 2, 3, 4};
    const double caller0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const double process0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    machine.runBatch(std::span<const ScheduledCircuit>(jobs), 4000,
                     seeds, /*threads=*/1);
    const double caller = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - caller0;
    const double others =
        cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process0 - caller;
    EXPECT_LT(others, 0.1 * caller + 0.005)
        << "caller " << caller << " s, other threads " << others
        << " s";
}

TEST(ParallelMachine, AutoThreadsMatchesSerial)
{
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const CompiledProgram program = testProgram(device);
    const Distribution a = machine.run(program.schedule, 300, 7, 1);
    const Distribution b = machine.run(program.schedule, 300, 7, 0);
    EXPECT_EQ(a.probabilities(), b.probabilities());
}

// ------------------------------------------------------- fused 1Q gates

TEST(FusedGates, MatchesGateByGateApplication)
{
    Rng rng(99);
    const int n = 5;
    std::vector<Gate> gates;
    for (int i = 0; i < 200; i++) {
        const auto q =
            static_cast<QubitId>(rng.uniformInt(n));
        switch (rng.uniformInt(8)) {
          case 0: gates.emplace_back(GateType::H, std::vector<QubitId>{q}); break;
          case 1: gates.emplace_back(GateType::T, std::vector<QubitId>{q}); break;
          case 2: gates.emplace_back(GateType::SX, std::vector<QubitId>{q}); break;
          case 3:
            gates.emplace_back(GateType::RZ, std::vector<QubitId>{q},
                               std::vector<double>{rng.uniform(0, 2 * kPi)});
            break;
          case 4:
            gates.emplace_back(GateType::RY, std::vector<QubitId>{q},
                               std::vector<double>{rng.uniform(0, kPi)});
            break;
          case 5: gates.emplace_back(GateType::X, std::vector<QubitId>{q}); break;
          default: {
            auto q2 = static_cast<QubitId>(rng.uniformInt(n));
            if (q2 == q)
                q2 = (q + 1) % n;
            gates.emplace_back(GateType::CX,
                               std::vector<QubitId>{q, q2});
            break;
          }
        }
    }

    StateVector fused(n), reference(n);
    fused.applyFused(gates);
    for (const Gate &gate : gates)
        reference.applyGate(gate);

    for (uint64_t basis = 0; basis < fused.dim(); basis++) {
        EXPECT_NEAR(std::abs(fused.amplitude(basis) -
                             reference.amplitude(basis)),
                    0.0, 1e-12);
    }
}

TEST(FusedGates, SkipsStructuralGates)
{
    std::vector<Gate> gates;
    gates.emplace_back(GateType::H, std::vector<QubitId>{0});
    gates.emplace_back(GateType::Barrier, std::vector<QubitId>{});
    gates.emplace_back(GateType::I, std::vector<QubitId>{0});
    gates.emplace_back(GateType::H, std::vector<QubitId>{0});
    StateVector s(1);
    s.applyFused(gates);
    // Barrier/I must not break the H·H = I fusion chain's semantics.
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
}

// -------------------------------------------------------------- sampling

TEST(Sample, NeverReturnsZeroProbabilityState)
{
    // |10>: the highest basis index (3) has zero probability, so the
    // round-off fallback must never land there.
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::X), 1);
    Rng rng(42);
    for (int i = 0; i < 2000; i++) {
        const uint64_t outcome = s.sample(rng);
        EXPECT_GT(s.probability(outcome), 0.0);
        EXPECT_EQ(outcome, 2u);
    }
}

TEST(Sample, CacheInvalidatedByMutation)
{
    StateVector s(2);
    Rng rng(5);
    EXPECT_EQ(s.sample(rng), 0u); // builds the cache on |00>
    s.apply1Q(gateMatrix(GateType::X), 0);
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(s.sample(rng), 1u); // cache must reflect |01>
    s.applyCX(0, 1);
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(s.sample(rng), 3u);
}

TEST(Sample, MatchesDistribution)
{
    StateVector s(3);
    s.apply1Q(gateMatrix(GateType::H), 0);
    s.apply1Q(gateMatrix(GateType::RY, {kPi / 3.0}), 2);
    Rng rng(17);
    const int n = 40000;
    std::vector<int> counts(8, 0);
    for (int i = 0; i < n; i++)
        counts[static_cast<size_t>(s.sample(rng))]++;
    for (uint64_t basis = 0; basis < 8; basis++) {
        EXPECT_NEAR(static_cast<double>(counts[basis]) / n,
                    s.probability(basis), 0.02);
    }
}
