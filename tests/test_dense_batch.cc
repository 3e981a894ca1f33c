/**
 * @file
 * Checkpointed dense replay vs. the interpreted reference.
 *
 * The contract under test (noise/compiled.hh ShotReplayer): for small
 * registers without per-shot phases, drawing a block's tapes together
 * and replaying each shot from the event-free reference checkpoint
 * below its first event changes *nothing observable* — for any
 * noise-flag combination, seed, thread count, and batch-vs-serial
 * split, the compiled run is bit-identical to ExecMode::Interpreted.
 * On top of the identity locks the suite pins the dispatch rules
 * (qubit cap, OU phases replay from |0...0>) and the occupancy
 * counters surfaced through RunOutcome::denseStats.
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: the thread-identity
 * assertions then cover every pool size.
 */

#include <gtest/gtest.h>

#include <iterator>
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
 *  program off the checkpointed path. */
NoiseFlags
phaseFreeFlags()
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

/** Shots [0, shots) of @p sched on the interpreted reference. */
Distribution
interpreted(const NoisyMachine &machine, const ScheduledCircuit &sched,
            int shots, uint64_t seed)
{
    return machine.run(sched, shots, seed, 1, BackendKind::Dense,
                       ExecMode::Interpreted);
}

/**
 * Assert the compiled replay reproduces the interpreted reference bit
 * for bit at several thread counts, and actually took the
 * checkpointed path (denseStats.shots covers the run).
 */
void
expectCheckpointedMatchesInterpreted(const NoisyMachine &machine,
                                     const ScheduledCircuit &sched,
                                     int shots, uint64_t seed)
{
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    const Distribution reference =
        interpreted(machine, sched, shots, seed);
    for (int threads : threadCounts()) {
        const RunOutcome compiled = machine.runPartial(
            prepared, shots, seed, threads, RunControl{});
        EXPECT_TRUE(distributionsIdentical(reference, compiled.dist))
            << "threads=" << threads;
        EXPECT_EQ(compiled.denseStats.shots, shots)
            << "threads=" << threads;
    }
}

/**
 * A dense dynamic circuit: a conditional Pauli before the first
 * measurement (its bit is still clear, so it never fires), then a
 * mid-circuit measure, a reset, and a conditional on the measured
 * bit.  A shot whose first event precedes the early conditional
 * replays it from a checkpoint, reading the shot's own clear
 * register.
 */
ScheduledCircuit
dynamicSchedule(const Device &device)
{
    Circuit c(3, 3);
    c.h(0);
    c.t(0);
    c.h(1);
    c.xIf(2, 1);
    c.cx(0, 1);
    c.measure(1, 1);
    c.reset(1);
    c.xIf(2, 1);
    c.h(1);
    c.t(1);
    c.cx(1, 2);
    c.measureAll();
    return schedule(decompose(c), device.topology(),
                    device.calibration(0), ScheduleMode::Alap);
}

} // namespace

// ------------------------------------------------- identity corpus

TEST(DenseBatch, CheckpointedMatchesInterpretedOnNonCliffordWorkload)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, phaseFreeFlags());
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    for (uint64_t seed : {3ULL, 11ULL, 31337ULL})
        expectCheckpointedMatchesInterpreted(machine, sched, 1200, seed);
}

TEST(DenseBatch, CheckpointedMatchesInterpretedPerNoiseChannel)
{
    // One flag at a time (plus all-off, all-on, twirl): every event
    // kind crosses the checkpointed path — gate-error splices,
    // measurement word flips, T1 jumps, OU Gaussians under the twirl
    // (no phase slots, so checkpointed with the scalar draw pass) —
    // and the OU-phase configs check the from-|0...0> routing.  The
    // dynamic input adds measure, reset and conditional ops.
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
    const ScheduledCircuit inputs[] = {
        compileWorkload(makeQft(4, QftState::B), device),
        dynamicSchedule(device),
    };
    for (size_t i = 0; i < configs.size(); i++) {
        const NoisyMachine machine(device, 0, configs[i]);
        for (size_t k = 0; k < std::size(inputs); k++) {
            const PreparedCircuit prepared =
                machine.prepare(inputs[k], BackendKind::Dense);
            EXPECT_TRUE(distributionsIdentical(
                interpreted(machine, inputs[k], 500, 29 + i),
                machine.run(prepared, 500, 29 + i, 4)))
                << "config " << i << ", input " << k;
        }
    }
}

TEST(DenseBatch, CheckpointedMatchesInterpretedOnDDPaddedWorkload)
{
    // The decoy-scale shape of the ADAPT search: DD-padded pulse
    // trains where most shots fire no event and start from the
    // fast-stream reference, and the rest splice mid-train from a
    // checkpoint.  Identity must survive both.
    NoiseFlags flags = NoiseFlags::none();
    flags.gateErrors = true;
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit padded =
        insertDDAll(compileWorkload(makeQaoa(4, QaoaGraph::B), device),
                    machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);
    expectCheckpointedMatchesInterpreted(machine, padded, 1500, 17);
}

TEST(DenseBatch, BatchVsSerialBitIdentical)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, phaseFreeFlags());
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
    const NoisyMachine machine(device, 0, phaseFreeFlags());
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
        // The committed prefix replays exactly as a shorter compiled
        // run — and as a shorter interpreted run (the block split
        // moves, the outcomes may not).
        const Distribution prefix = machine.run(
            prepared, static_cast<int>(out.shotsDone), 9);
        EXPECT_TRUE(distributionsIdentical(out.dist, prefix))
            << "threads=" << threads;
        EXPECT_TRUE(distributionsIdentical(
            out.dist, interpreted(machine, sched,
                                  static_cast<int>(out.shotsDone), 9)))
            << "threads=" << threads;
    }
}

// ------------------------------------------- dispatch and occupancy

TEST(DenseBatch, WideRegistersStayOnPerShotPath)
{
    // Two programs the checkpointed path never takes: a register
    // above kMaxBatchQubits, and a small register whose OU dephasing
    // gives every shot its own dynamic phases.  The from-|0...0>
    // replay serves both and the stats stay zero.
    NoiseFlags ou_only = NoiseFlags::none();
    ou_only.ouDephasing = true;
    const struct
    {
        int qubits;
        NoiseFlags flags;
    } cases[] = {
        {ShotReplayer::kMaxBatchQubits + 1, NoiseFlags::none()},
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
    const NoisyMachine machine(device, 0, phaseFreeFlags());
    const PreparedCircuit prepared = machine.prepare(
        compileWorkload(makeQaoa(5, QaoaGraph::A), device));
    const int shots = 5 * kShotBlock + 7;
    const RunOutcome out =
        machine.runPartial(prepared, shots, 5, 1, RunControl{});
    const DenseBatchStats &s = out.denseStats;
    EXPECT_EQ(s.shots, shots);
    // Serial run: one draw block per kShotBlock window.
    EXPECT_EQ(s.blocks, (shots + kShotBlock - 1) / kShotBlock);
    // Every checkpointed shot replays alone.
    EXPECT_EQ(s.groups, s.shots);
    EXPECT_LE(s.noErrorShots, s.shots);
    EXPECT_GT(s.noErrorShots, 0);
}

TEST(DenseBatch, StatsMergeAcrossThreadChunks)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, phaseFreeFlags());
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
