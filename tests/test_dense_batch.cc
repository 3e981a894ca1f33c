/**
 * @file
 * Grouped (shot-batched) dense replay vs. the per-shot paths.
 *
 * The contract under test (noise/compiled.hh BatchShotReplayer):
 * grouping a block's shots by resolved error pattern and running
 * each group's shared prefix once changes *nothing observable* — for
 * any noise-flag combination, seed, thread count, and
 * batch-vs-serial split, the grouped path is bit-identical to the
 * per-shot compiled replay (ShotReplayer::runBlock driven directly)
 * and to the interpreted reference.  On top of the identity locks the
 * suite pins the dispatch rules (qubit cap, OU phases stay per-shot)
 * and the occupancy counters surfaced through RunOutcome::denseStats.
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: the thread-identity
 * assertions then cover every pool size.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/cancellation.hh"
#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

/** Every channel except OU dephasing, whose per-shot phases keep a
 *  program off the grouped path. */
NoiseFlags
groupableFlags()
{
    NoiseFlags flags = NoiseFlags::all();
    flags.ouDephasing = false;
    return flags;
}

std::vector<int>
threadCounts()
{
    std::vector<int> counts = {1, 4};
    const int hw = defaultThreads();
    if (hw != 1 && hw != 4)
        counts.push_back(hw);
    return counts;
}

ScheduledCircuit
compileWorkload(const Circuit &logical, const Device &device)
{
    return transpile(logical, device, device.calibration(0)).schedule;
}

/**
 * Shots [0, shots) of @p sched on the per-shot compiled replay:
 * ShotReplayer::runBlock driven directly, with the engine's run-seed
 * derivation.
 */
Distribution
perShotReplay(const NoisyMachine &machine, const ScheduledCircuit &sched,
              int shots, uint64_t seed)
{
    const ExecutionPlan plan =
        buildPlan(sched, machine.calibration(), machine.flags());
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    ShotReplayer replayer(plan, prog);
    FlatAccumulator hist;
    replayer.runBlock(Rng(seed ^ 0xadab7dd), 0, shots, hist);
    Distribution dist;
    for (const auto &[key, count] : hist.sortedItems())
        dist.addSamples(key, static_cast<uint64_t>(std::llround(count)));
    return dist;
}

/**
 * Assert the grouped replay (the default) reproduces both per-shot
 * paths bit for bit at several thread counts, and actually engaged
 * (denseStats.shots covers the run).
 */
void
expectGroupedMatchesPerShot(const NoisyMachine &machine,
                            const ScheduledCircuit &sched, int shots,
                            uint64_t seed)
{
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    const Distribution pershot =
        perShotReplay(machine, sched, shots, seed);
    const Distribution interpreted =
        machine.run(sched, shots, seed, 1, BackendKind::Dense,
                    ExecMode::Interpreted);
    EXPECT_TRUE(distributionsIdentical(pershot, interpreted));

    for (int threads : threadCounts()) {
        const RunOutcome grouped = machine.runPartial(
            prepared, shots, seed, threads, RunControl{});
        EXPECT_TRUE(distributionsIdentical(pershot, grouped.dist))
            << "threads=" << threads;
        EXPECT_EQ(grouped.denseStats.shots, shots)
            << "threads=" << threads;
    }
}

} // namespace

// ------------------------------------------------- identity corpus

TEST(DenseBatch, GroupedMatchesPerShotOnNonCliffordWorkload)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, groupableFlags());
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    for (uint64_t seed : {3ULL, 11ULL, 31337ULL})
        expectGroupedMatchesPerShot(machine, sched, 1200, seed);
}

TEST(DenseBatch, GroupedMatchesPerShotPerNoiseChannel)
{
    // One flag at a time (plus all-off, all-on, twirl): every event
    // kind crosses the grouped path — gate-error splices, measurement
    // word flips, T1 divergence peels, OU Gaussians under the twirl
    // (no phase slots, so grouped with the scalar draw pass) — and
    // the OU-phase configs check the per-shot routing.
    std::vector<NoiseFlags> configs;
    configs.push_back(NoiseFlags::none());
    configs.push_back(NoiseFlags::all());
    for (int channel = 0; channel < 6; channel++) {
        NoiseFlags flags = NoiseFlags::none();
        flags.gateErrors = channel == 0;
        flags.measurementErrors = channel == 1;
        flags.t1Damping = channel == 2;
        flags.whiteDephasing = channel == 3;
        flags.ouDephasing = channel == 4;
        flags.crosstalk = channel == 5;
        configs.push_back(flags);
    }
    NoiseFlags twirled = NoiseFlags::all();
    twirled.twirlCoherent = true;
    configs.push_back(twirled);

    const Device device = Device::ibmqRome();
    const ScheduledCircuit sched =
        compileWorkload(makeQft(4, QftState::B), device);
    for (size_t i = 0; i < configs.size(); i++) {
        const NoisyMachine machine(device, 0, configs[i]);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Dense);
        const Distribution pershot =
            perShotReplay(machine, sched, 500, 29 + i);
        EXPECT_TRUE(distributionsIdentical(
            pershot, machine.run(prepared, 500, 29 + i, 4)))
            << "config " << i;
    }
}

TEST(DenseBatch, GroupedMatchesPerShotOnDDPaddedWorkload)
{
    // The decoy-scale shape the PR optimizes for: DD-padded pulse
    // trains where most shots resolve to the no-error signature and
    // the rest splice mid-train.  Identity must survive both.
    NoiseFlags flags = NoiseFlags::none();
    flags.gateErrors = true;
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit padded =
        insertDDAll(compileWorkload(makeQaoa(4, QaoaGraph::B), device),
                    machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);
    expectGroupedMatchesPerShot(machine, padded, 1500, 17);
}

TEST(DenseBatch, BatchVsSerialBitIdentical)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, groupableFlags());
    std::vector<PreparedCircuit> prepared;
    std::vector<uint64_t> seeds;
    for (int v = 0; v < 5; v++) {
        prepared.push_back(machine.prepare(compileWorkload(
            makeQaoa(4, v % 2 ? QaoaGraph::A : QaoaGraph::B, 7 + v),
            device)));
        seeds.push_back(101 + static_cast<uint64_t>(v) * 7919);
    }
    const int shots = 3 * kShotBlock + 17; // straddle block boundaries
    const std::vector<Distribution> batch = machine.runBatch(
        std::span<const PreparedCircuit>(prepared), shots, seeds,
        /*threads=*/5);
    ASSERT_EQ(batch.size(), prepared.size());
    for (size_t i = 0; i < prepared.size(); i++) {
        EXPECT_TRUE(distributionsIdentical(
            batch[i], machine.run(prepared[i], shots, seeds[i], 1)))
            << "job " << i;
    }
}

// ----------------------------------------------------- cancellation

TEST(DenseBatch, CancellationReturnsExactBlockPrefix)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, groupableFlags());
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    const PreparedCircuit prepared = machine.prepare(sched);
    constexpr int kShots = 4000;

    for (int threads : {1, 3}) {
        CancellationSource source;
        RunControl ctl;
        ctl.token = source.token();
        ctl.progress = [&](int64_t shots_done) {
            if (shots_done >= kShots / 4)
                source.cancel();
        };
        const RunOutcome out =
            machine.runPartial(prepared, kShots, 9, threads, ctl);
        ASSERT_TRUE(out.partial) << "threads=" << threads;
        EXPECT_EQ(out.cause, StopCause::Cancelled);
        EXPECT_GT(out.shotsDone, 0);
        EXPECT_LT(out.shotsDone, kShots);
        // The committed prefix replays exactly as a shorter grouped
        // run — and as a shorter per-shot run (the block split moves,
        // the outcomes may not).
        const Distribution prefix = machine.run(
            prepared, static_cast<int>(out.shotsDone), 9);
        EXPECT_TRUE(distributionsIdentical(out.dist, prefix))
            << "threads=" << threads;
        EXPECT_TRUE(distributionsIdentical(
            out.dist, perShotReplay(machine, sched,
                                    static_cast<int>(out.shotsDone),
                                    9)))
            << "threads=" << threads;
    }
}

// ------------------------------------------- dispatch and occupancy

TEST(DenseBatch, WideRegistersStayOnPerShotPath)
{
    // Two programs the grouped path never takes: a register above
    // kMaxBatchQubits, and a small register whose OU dephasing gives
    // every shot its own dynamic phases.  The per-shot replay serves
    // both and the stats stay zero.
    NoiseFlags ou_only = NoiseFlags::none();
    ou_only.ouDephasing = true;
    const struct
    {
        int qubits;
        NoiseFlags flags;
    } cases[] = {
        {BatchShotReplayer::kMaxBatchQubits + 1, NoiseFlags::none()},
        {4, ou_only},
    };
    for (const auto &tc : cases) {
        const int n = tc.qubits;
        const Device device =
            Device::synthetic(Topology::linear(n), 77);
        const NoisyMachine machine(device, 0, tc.flags);
        Circuit c(n);
        c.h(0);
        c.t(0);
        for (int q = 0; q + 1 < n; q++)
            c.cx(q, q + 1);
        c.measureAll();
        const ScheduledCircuit sched =
            schedule(decompose(c), device.topology(),
                     device.calibration(0), ScheduleMode::Alap);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Dense);
        const RunOutcome out =
            machine.runPartial(prepared, 130, 3, 1, RunControl{});
        EXPECT_EQ(out.denseStats.shots, 0) << n << " qubits";
        EXPECT_TRUE(distributionsIdentical(
            out.dist, machine.run(sched, 130, 3, 1, BackendKind::Dense,
                                  ExecMode::Interpreted)))
            << n << " qubits";
    }
}

TEST(DenseBatch, OccupancyCountersAreConsistent)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, groupableFlags());
    const PreparedCircuit prepared = machine.prepare(
        compileWorkload(makeQaoa(5, QaoaGraph::A), device));
    const int shots = 5 * kShotBlock + 7;
    const RunOutcome out =
        machine.runPartial(prepared, shots, 5, 1, RunControl{});
    const DenseBatchStats &s = out.denseStats;
    EXPECT_EQ(s.shots, shots);
    // Serial run: one draw block per kShotBlock window.
    EXPECT_EQ(s.blocks, (shots + kShotBlock - 1) / kShotBlock);
    EXPECT_GE(s.groups, s.blocks);
    EXPECT_LE(s.groups, s.shots);
    EXPECT_LE(s.batchedShots, s.shots);
    EXPECT_LE(s.noErrorShots, s.shots);
    // With every groupable channel enabled the per-shot event rate
    // is high, but a healthy fraction must still group and share a
    // prefix (the lightly-noised regimes the path optimizes for group
    // far more — see bench_shot_throughput's occupancy metrics).
    EXPECT_GT(s.batchedShots, s.shots / 4);
    EXPECT_GT(s.noErrorShots, 0);
}

TEST(DenseBatch, StatsMergeAcrossThreadChunks)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, groupableFlags());
    const PreparedCircuit prepared = machine.prepare(
        compileWorkload(makeQaoa(5, QaoaGraph::A), device));
    const int shots = 8 * kShotBlock;
    const RunOutcome serial =
        machine.runPartial(prepared, shots, 5, 1, RunControl{});
    const RunOutcome threaded =
        machine.runPartial(prepared, shots, 5, 4, RunControl{});
    // Chunk boundaries may split draw blocks, but every shot is
    // accounted for exactly once and the outcome is identical.
    EXPECT_EQ(threaded.denseStats.shots, shots);
    EXPECT_GE(threaded.denseStats.blocks, serial.denseStats.blocks);
    EXPECT_TRUE(
        distributionsIdentical(serial.dist, threaded.dist));
}
