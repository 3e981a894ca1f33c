#include "noise/machine.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_accumulator.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "noise/compiled.hh"
#include "noise/program_cache.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"

namespace adapt
{

NoisyMachine::NoisyMachine(const Device &device, int cycle,
                           NoiseFlags flags)
    : device_(device), cal_(device.calibration(cycle)), flags_(flags),
      cache_(ProgramCache::processShared())
{
}

/**
 * A job lowered once: the execution plan (interpreted path), the
 * resolved backend, and the compiled program its shots replay — a
 * dense ShotProgram or a stabilizer FrameProgram.
 */
struct PreparedJob
{
    ExecutionPlan plan;
    BackendKind kind = BackendKind::Dense;
    std::optional<ShotProgram> program; //!< dense jobs only
    std::optional<FrameProgram> frame;  //!< stabilizer jobs only

    /** Lazy branch-tail store, shared by every run of this job;
     *  non-null iff the frame program has a superposed T1
     *  checkpoint. */
    std::shared_ptr<FrameTailCache> tails;
};

BackendKind
PreparedCircuit::backend() const
{
    require(impl_ != nullptr,
            "PreparedCircuit::backend on an empty handle");
    return impl_->kind;
}

bool
PreparedCircuit::frameBatched() const
{
    require(impl_ != nullptr,
            "PreparedCircuit::frameBatched on an empty handle");
    return impl_->frame.has_value();
}

namespace
{

/** Apply a uniformly random single-qubit Pauli. */
void
applyRandomPauli1Q(SimBackend &state, QubitId q, Rng &rng)
{
    state.applyPauli(static_cast<int>(rng.uniformInt(3)) + 1, q);
}

/** Apply a random non-identity two-qubit Pauli pair. */
void
applyRandomPauli2Q(SimBackend &state, QubitId a, QubitId b, Rng &rng)
{
    const auto code = static_cast<int>(rng.uniformInt(15)) + 1;
    state.applyPauli(code & 3, a);
    state.applyPauli(code >> 2, b);
}

/**
 * One Monte-Carlo trajectory on @p state — the interpreted reference
 * path.  All randomness comes from streams forked off @p shot_rng, so
 * a shot's outcome depends only on its index — never on which thread
 * runs it or in which order.  The compiled replay (noise/compiled.hh)
 * consumes the identical draw sequence and mutates the state with
 * bit-identical operands; this function remains the executable
 * specification it is tested against, and the only dense path the
 * sanitizers cannot simplify away.
 */
uint64_t
runShot(const ExecutionPlan &plan, const Calibration &cal,
        const NoiseFlags &flags, SimBackend &state,
        OutcomePacker &packer, const Rng &shot_rng)
{
    const std::vector<QubitId> &active = plan.active;
    Rng gate_rng = shot_rng.fork(0x6a7e);

    // Per-qubit OU detuning processes with private streams.
    std::vector<std::optional<OuProcess>> ou(active.size());
    std::vector<Rng> qubit_rng;
    qubit_rng.reserve(active.size());
    for (size_t ai = 0; ai < active.size(); ai++) {
        qubit_rng.push_back(shot_rng.fork(0x0b5e + ai));
        const auto &qc = cal.qubits[static_cast<size_t>(active[ai])];
        if (flags.ouDephasing) {
            ou[ai].emplace(qc.ouSigmaRadPerUs, qc.ouTauUs,
                           qubit_rng[ai]);
        }
    }

    state.init();
    packer.clear();
    std::vector<TimeNs> last_end(active.size(), -1.0);

    // Coherent (refocusable) idle noise for qubit ai over [t0, t1):
    // slow OU detuning plus crosstalk from concurrent CNOTs.  Only
    // *idle* gaps accrue coherent Z phase — during a pulse the drive
    // dominates the dynamics.
    auto coherent_idle_noise = [&](size_t ai, TimeNs t0, TimeNs t1) {
        if (t1 - t0 <= 1e-9)
            return;
        const double dt_us = (t1 - t0) * kNsToUs;

        double phase = 0.0;
        if (flags.ouDephasing) {
            const double mid_us = (t0 + t1) / 2.0 * kNsToUs;
            phase += ou[ai]->at(mid_us, qubit_rng[ai]) * dt_us;
        }
        if (flags.crosstalk) {
            for (const CrosstalkSource &src : plan.xtalk[ai]) {
                phase += src.radPerUs *
                         overlapUs(t0, t1, src.start, src.end);
            }
        }
        if (phase != 0.0) {
            if (flags.twirlCoherent) {
                // Pauli twirl of the accrued phase, applied by the
                // engine so both backends sample the identical
                // (approximate) law under this flag.
                if (qubit_rng[ai].bernoulli(twirlZProbability(phase)))
                    state.applyPauli(3, static_cast<int>(ai)); // Z
            } else {
                state.applyIdlePhase(static_cast<int>(ai), phase,
                                     qubit_rng[ai]);
            }
        }
    };

    // Markovian noise (T1 relaxation, white dephasing) acts on
    // wall-clock time — *including* gate and DD pulse durations, so a
    // dense pulse train cannot shelter a qubit from it.
    auto markovian_noise = [&](size_t ai, double dt_us) {
        if (dt_us <= 0.0)
            return;
        const int dq = static_cast<int>(ai);
        const auto &qc =
            cal.qubits[static_cast<size_t>(active[ai])];

        if (flags.t1Damping) {
            // Thinned jump sampling: fire the relaxation jump with
            // probability gamma * P(|1>); the O(gamma^2) no-jump
            // reweighting is negligible at these rates.
            const double gamma = t1JumpProbability(dt_us, qc.t1Us);
            if (qubit_rng[ai].bernoulli(gamma) &&
                qubit_rng[ai].bernoulli(state.populationOne(dq))) {
                state.applyDecayJump(dq);
            }
        }
        if (flags.whiteDephasing) {
            const double p_flip = whiteDephasingFlipProbability(
                dt_us, qc.t2WhiteUs);
            if (qubit_rng[ai].bernoulli(p_flip))
                state.applyPauli(3, dq); // Z
        }
    };

    // Noise catch-up for one operand of a step: coherent noise over
    // the idle gap, Markovian noise over gap + step.
    auto catch_up = [&](int dq, const PlanStep &step) {
        const auto ai = static_cast<size_t>(dq);
        if (last_end[ai] >= 0.0) {
            coherent_idle_noise(ai, last_end[ai], step.start);
            markovian_noise(ai, (step.end - last_end[ai]) * kNsToUs);
        } else {
            markovian_noise(ai, (step.end - step.start) * kNsToUs);
        }
        last_end[ai] = step.end;
    };

    for (const PlanStep &step : plan.steps) {
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            catch_up(step.q, step);
            bool bit = state.measure(step.q, gate_rng);
            if (flags.measurementErrors) {
                const double p_flip = bit ? step.err10 : step.err01;
                if (gate_rng.bernoulli(p_flip))
                    bit = !bit;
            }
            packer.set(step.clbit, bit);
            break;
          }
          case PlanStep::Kind::Reset: {
            // Reset as measure-and-correct: one collapse draw from
            // the gate stream (like Measure, minus readout error),
            // then a deterministic |1> -> |0> flip.
            catch_up(step.q, step);
            if (state.measure(step.q, gate_rng))
                state.applyPauli(1, step.q);
            break;
          }
          case PlanStep::Kind::Cond1Q: {
            // Feedback pulse: fires iff the classical register reads
            // 1 at this point in the shot.  No error channel and no
            // draws — RNG consumption must not depend on data.
            catch_up(step.q, step);
            if (packer.get(step.condBit)) {
                if (state.fusesMatrices())
                    state.apply1Q(step.pulses[0].matrix, step.q);
                else
                    state.applyGate(step.pulses[0].gate);
            }
            break;
          }
          case PlanStep::Kind::TwoQubit: {
            catch_up(step.q, step);
            catch_up(step.q2, step);
            Gate mapped(step.twoQubitType, {step.q, step.q2});
            state.applyGate(mapped);
            if (flags.gateErrors && gate_rng.bernoulli(step.cxError)) {
                applyRandomPauli2Q(state, step.q, step.q2, gate_rng);
            }
            break;
          }
          case PlanStep::Kind::Fused1Q: {
            catch_up(step.q, step);
            if (state.fusesMatrices()) {
                // Compose pulses; only materialize the product onto
                // the state when an error fires (or at the end).
                Matrix2 product = Matrix2::identity();
                for (const Pulse &pulse : step.pulses) {
                    product = pulse.matrix * product;
                    if (flags.gateErrors && pulse.errorProb > 0.0 &&
                        gate_rng.bernoulli(pulse.errorProb)) {
                        state.apply1Q(product, step.q);
                        applyRandomPauli1Q(state, step.q, gate_rng);
                        product = Matrix2::identity();
                    }
                }
                state.apply1Q(product, step.q);
            } else {
                // Tableau replay: gates are cheap, so apply them one
                // by one; the error draws follow the same sequence as
                // the fused path.
                for (const Pulse &pulse : step.pulses) {
                    state.applyGate(pulse.gate);
                    if (flags.gateErrors && pulse.errorProb > 0.0 &&
                        gate_rng.bernoulli(pulse.errorProb)) {
                        applyRandomPauli1Q(state, step.q, gate_rng);
                    }
                }
            }
            break;
          }
        }
    }
    return packer.key();
}

/**
 * Resolve the backend for an executable: Auto takes the stabilizer
 * fast path exactly when it simulates the job faithfully — every
 * gate Clifford and every enabled noise channel Pauli-expressible.
 * Forcing the stabilizer on an ineligible job is a usage error.
 */
BackendKind
resolveBackend(BackendKind requested, const ExecutionPlan &plan,
               const NoiseFlags &flags)
{
    const bool eligible = plan.clifford && flags.pauliExpressible();
    switch (requested) {
      case BackendKind::Auto:
        return eligible ? BackendKind::Stabilizer : BackendKind::Dense;
      case BackendKind::Stabilizer:
        require(plan.clifford,
                "stabilizer backend requires an all-Clifford "
                "executable");
        require(flags.pauliExpressible(),
                "stabilizer backend requires Pauli-expressible noise "
                "(disable OU dephasing / crosstalk, or opt into "
                "NoiseFlags::twirlCoherent)");
        return requested;
      case BackendKind::Dense:
        return requested;
    }
    panic("unreachable backend kind");
}

/**
 * The structure phase of prepare(): everything device-independent —
 * plan lowering, backend resolution, dense splice tables or the frame
 * engine's reference-tableau walk.  A skeleton is a pure function of
 * (schedule, flags, requested backend, frame-engine env knobs), which
 * is exactly what skeletonFingerprint folds, so instances are safely
 * shared across machines, calibration cycles, and threads.
 */
ProgramSkeleton
buildProgramSkeleton(const ScheduledCircuit &sched,
                     const NoiseFlags &flags, BackendKind backend,
                     bool compile)
{
    ProgramSkeleton skel = buildPlanSkeleton(sched, flags);
    skel.kind = resolveBackend(backend, skel.plan, flags);
    if (compile) {
        if (skel.kind == BackendKind::Dense) {
            skel.tables = buildShotTables(skel.plan);
            skel.compiled = true;
        } else if (!flags.ouDephasing && !skel.plan.condNonPauli) {
            // A stabilizer job lowers onto the batch frame engine
            // unless it draws per-shot OU twirls (whose Z probability
            // differs per shot) or has conditional non-Pauli pulses
            // (whose frame action is data-dependent); those keep the
            // per-shot tableau.
            skel.frame = buildFrameSkeleton(skel.plan, flags);
            skel.compiled = true;
        }
    }
    return skel;
}

/** The engine a prepared job's shots run on under an ExecMode. */
enum class ExecPath
{
    Frame,       //!< batch Pauli-frame engine (FrameBatchBackend)
    Replay,      //!< compiled dense replay (ShotReplayer)
    Interpreted, //!< per-shot plan walk on a SimBackend
};

/** The one place a job's engine is chosen: compiled jobs run what
 *  prepare() compiled them into, everything else walks the plan. */
ExecPath
execPath(const PreparedJob &job, ExecMode mode)
{
    if (mode == ExecMode::Compiled) {
        if (job.frame)
            return ExecPath::Frame;
        if (job.program)
            return ExecPath::Replay;
    }
    return ExecPath::Interpreted;
}

/** Shots per unit: one kFrameLanes plane pass on the frame path, one
 *  shot elsewhere. */
int64_t
unitShots(ExecPath path)
{
    return path == ExecPath::Frame ? kFrameLanes : 1;
}

/** Units per block, the granularity at which cancellable waves commit
 *  and shard ranges split: kFrameLanes or kShotBlock shots. */
int64_t
blockUnits(ExecPath path)
{
    return path == ExecPath::Frame ? 1 : kShotBlock;
}

/** Shots covered by units [0, units) of a @p shots-shot job. */
int64_t
shotsIn(ExecPath path, int64_t units, int shots)
{
    return std::min<int64_t>(units * unitShots(path),
                             static_cast<int64_t>(shots));
}

/**
 * One chunk's executor: runs ranges of units of a prepared job into a
 * histogram.  Unit u's randomness is forked from (base, absolute
 * block or shot index) alone — frame drains use streams keyed by the
 * absolute shot — so any partition of a job's units into calls,
 * across chunks, waves, shard ranges or processes, counts the same
 * outcomes.  It makes its engine on first use and, on the frame path,
 * finishes every lane that left the plane pass before run() returns.
 * runPartial drives one per chunk, runShardRange one per range.
 */
class ChunkExecutor
{
  public:
    ChunkExecutor(const PreparedJob &job, ExecPath path,
                  const Calibration &cal, const NoiseFlags &flags,
                  const Rng &base, int shots)
        : job_(job), path_(path), cal_(cal), flags_(flags),
          base_(base), shots_(shots)
    {
    }

    /**
     * Run units [lo, hi) into @p hist and return the units done.  A
     * non-null @p token is polled per shot (per draw block on the
     * checkpointed dense replay) and stops the range at an exact
     * prefix; frame blocks are never cut, so the frame path ignores
     * it.
     */
    int64_t
    run(int64_t lo, int64_t hi, FlatAccumulator &hist,
        const CancellationToken *token)
    {
        switch (path_) {
          case ExecPath::Frame:
            runFrame(lo, hi, hist);
            return hi - lo;
          case ExecPath::Replay:
            if (!replayer_) {
                replayer_ = std::make_unique<ShotReplayer>(
                    job_.plan, *job_.program);
            }
            return replayer_->runBlock(base_, lo, hi - lo, hist,
                                       token);
          case ExecPath::Interpreted:
            return runInterpreted(lo, hi, hist, token);
        }
        panic("unreachable execution path");
    }

    /** Fold this executor's engine counters into @p out. */
    void
    mergeStatsInto(RunOutcome &out) const
    {
        out.frameStats.merge(frameStats_);
        if (replayer_)
            out.denseStats.merge(replayer_->stats());
    }

  private:
    int64_t
    runInterpreted(int64_t lo, int64_t hi, FlatAccumulator &hist,
                   const CancellationToken *token)
    {
        if (!state_) {
            state_ = makeBackend(
                job_.kind, static_cast<int>(job_.plan.active.size()));
            packer_ =
                std::make_unique<OutcomePacker>(job_.plan.maxClbit + 1);
        }
        for (int64_t shot = lo; shot < hi; shot++) {
            if (token != nullptr && token->stopRequested())
                return shot - lo;
            const Rng shot_rng =
                base_.fork(static_cast<uint64_t>(shot) + 1);
            hist.add(runShot(job_.plan, cal_, flags_, *state_, *packer_,
                             shot_rng),
                     1.0);
        }
        return hi - lo;
    }

    void
    runFrame(int64_t lo, int64_t hi, FlatAccumulator &hist)
    {
        const FrameProgram &prog = *job_.frame;
        if (!frame_)
            frame_ = std::make_unique<FrameBatchBackend>(prog);
        for (int64_t block = lo; block < hi; block++) {
            const auto lanes = static_cast<int>(std::min<int64_t>(
                kFrameLanes,
                static_cast<int64_t>(shots_) - block * kFrameLanes));
            frame_->runBlock(base_, block, lanes, hist, tails_);
        }
        if (tails_.empty())
            return;
        // Lanes whose T1 jump fired on a reference-superposed qubit
        // finish off the plane pass on compiled branch tails.
        if (!scratch_) {
            scratch_ = std::make_unique<StabilizerState>(prog.numQubits);
            packer_ = std::make_unique<OutcomePacker>(prog.numClbits);
        }
        drainTailShots(prog, base_, tails_, *job_.tails, *scratch_,
                       *packer_, hist, frameStats_);
    }

    const PreparedJob &job_;
    const ExecPath path_;
    const Calibration &cal_;
    const NoiseFlags &flags_;
    const Rng base_;
    const int shots_;

    std::unique_ptr<FrameBatchBackend> frame_;
    std::unique_ptr<ShotReplayer> replayer_;
    std::unique_ptr<SimBackend> state_;
    std::unique_ptr<StabilizerState> scratch_;
    std::unique_ptr<OutcomePacker> packer_;
    std::vector<FrameTailShot> tails_;
    FrameBatchStats frameStats_;
};

/**
 * Sort (outcome, count) items and fold duplicate keys in place by
 * exact integer addition.  The result is key-sorted, key-unique, and
 * the same for any split of the counts into items and any item order,
 * which is why every chunking, wave split and shard partition of a
 * run merges to the same histogram.
 */
void
foldCounts(std::vector<std::pair<uint64_t, uint64_t>> &items)
{
    std::sort(items.begin(), items.end());
    size_t kept = 0;
    for (size_t i = 0; i < items.size();) {
        const uint64_t key = items[i].first;
        uint64_t count = 0;
        for (; i < items.size() && items[i].first == key; i++)
            count += items[i].second;
        items[kept++] = {key, count};
    }
    items.resize(kept);
}

} // namespace

BackendKind
NoisyMachine::chooseBackend(const ScheduledCircuit &sched) const
{
    const ExecutionPlan plan = buildPlan(sched, cal_, flags_);
    return resolveBackend(BackendKind::Auto, plan, flags_);
}

PreparedCircuit
NoisyMachine::prepareImpl(const ScheduledCircuit &sched,
                          BackendKind backend, bool compile) const
{
    // Structure phase: cached when a cache is installed and the job
    // is compiled (interpreted prepares skip compilation and are too
    // cheap to be worth a cache slot).  Cold and cached prepares run
    // the identical build + bind code — only the skeleton's object
    // identity differs — so the executed programs are bit-identical.
    std::shared_ptr<const ProgramSkeleton> skel;
    if (cache_ != nullptr && compile) {
        const ProgramFingerprint fp =
            skeletonFingerprint(sched, flags_, backend);
        skel = cache_->findOrBuild(fp, [&] {
            return buildProgramSkeleton(sched, flags_, backend,
                                        compile);
        });
    } else {
        skel = std::make_shared<const ProgramSkeleton>(
            buildProgramSkeleton(sched, flags_, backend, compile));
    }

    // Bind phase: stamp this machine's calibration constants.
    auto job = std::make_shared<PreparedJob>();
    job->plan = bindPlan(*skel, cal_, flags_);
    job->kind = skel->kind;
    if (skel->tables) {
        job->program =
            bindShotProgram(job->plan, *skel->tables, cal_, flags_);
    } else if (skel->frame) {
        job->frame =
            bindFrameProgram(job->plan, *skel->frame, cal_, flags_);
        if (job->frame->randomT1Count > 0)
            job->tails = std::make_shared<FrameTailCache>();
    }
    PreparedCircuit prepared;
    prepared.impl_ = std::move(job);
    return prepared;
}

PreparedCircuit
NoisyMachine::prepare(const ScheduledCircuit &sched,
                      BackendKind backend) const
{
    return prepareImpl(sched, backend, /*compile=*/true);
}

Distribution
NoisyMachine::run(const PreparedCircuit &prepared, int shots,
                  uint64_t run_seed, int threads, ExecMode mode) const
{
    return runPartial(prepared, shots, run_seed, threads, RunControl{},
                      mode)
        .dist;
}

RunOutcome
NoisyMachine::runPartial(const PreparedCircuit &prepared, int shots,
                         uint64_t run_seed, int threads,
                         const RunControl &control, ExecMode mode) const
{
    require(shots > 0, "NoisyMachine::run requires at least one shot");
    require(prepared.valid(),
            "NoisyMachine::run on an empty PreparedCircuit");
    const PreparedJob &job = *prepared.impl_;
    const ExecPath path = execPath(job, mode);
    const int64_t units = (shots + unitShots(path) - 1) / unitShots(path);
    const Rng base(run_seed ^ 0xadab7dd);

    // Units are embarrassingly parallel (see ChunkExecutor), so each
    // chunk counts outcomes into its own flat histogram and the
    // key-ordered integer merge reproduces the serial result bit for
    // bit at any thread count.  Chunk executors persist across waves
    // (the pool may hand a slot to a different thread each wave;
    // parallelFor's batch completion orders those accesses).
    const int chunks = static_cast<int>(
        std::min<int64_t>(resolveThreads(threads), units));
    std::vector<FlatAccumulator> histograms(static_cast<size_t>(chunks));
    std::vector<ChunkExecutor> execs;
    execs.reserve(static_cast<size_t>(chunks));
    for (int c = 0; c < chunks; c++)
        execs.emplace_back(job, path, cal_, flags_, base, shots);

    // With a quiet control (no armed token, no progress callback) a
    // single wave covers the whole job, so each chunk runs its whole
    // contiguous range in one call.  An armed control switches to
    // wave-structured execution: one block per chunk per wave, token
    // polled between waves, so the committed work is always a
    // contiguous, deterministic prefix of the shot range.
    const bool limited =
        control.token.armed() || control.progress != nullptr;
    const int64_t wave = limited ? chunks * blockUnits(path) : units;

    // Single-chunk cancellable runs poll the token per shot instead
    // of per wave: with one chunk the committed shots are a prefix at
    // *any* shot boundary, so the finest granularity is free.
    const CancellationToken *shot_token =
        limited && chunks == 1 && control.token.armed()
            ? &control.token
            : nullptr;

    RunOutcome out;
    int64_t done = 0;
    while (done < units) {
        if ((out.cause = control.token.cause()) != StopCause::None)
            break;
        const int64_t hi = std::min(done + wave, units);
        int64_t wave_done = hi - done;
        parallelFor(done, hi, chunks,
                    [&](int64_t lo2, int64_t hi2, int chunk) {
            const auto c = static_cast<size_t>(chunk);
            const int64_t ran =
                execs[c].run(lo2, hi2, histograms[c], shot_token);
            if (shot_token != nullptr)
                wave_done = ran; // chunks == 1: sole writer
        });
        done += wave_done;
        if (control.progress)
            control.progress(shotsIn(path, done, shots));
        // A per-shot poll (chunks == 1) may stop inside the wave; the
        // cause is re-read from the token below.
        if (done < hi)
            break;
    }
    out.shotsDone = shotsIn(path, done, shots);
    out.partial = done < units;
    if (out.partial && out.cause == StopCause::None)
        out.cause = control.token.cause();

    size_t total = 0;
    for (const FlatAccumulator &hist : histograms)
        total += hist.size();
    std::vector<std::pair<uint64_t, uint64_t>> items;
    items.reserve(total);
    for (const FlatAccumulator &hist : histograms)
        hist.appendCountsTo(items);
    out.dist = mergeShardItems(std::move(items));
    for (const ChunkExecutor &exec : execs)
        exec.mergeStatsInto(out);
    return out;
}

int64_t
NoisyMachine::shardBlockShots(const PreparedCircuit &prepared,
                              ExecMode mode) const
{
    require(prepared.valid(),
            "shardBlockShots on an empty PreparedCircuit");
    const ExecPath path = execPath(*prepared.impl_, mode);
    return unitShots(path) * blockUnits(path);
}

int64_t
NoisyMachine::shardBlockCount(const PreparedCircuit &prepared,
                              int shots, ExecMode mode) const
{
    require(shots > 0, "shardBlockCount requires at least one shot");
    const int64_t block = shardBlockShots(prepared, mode);
    return (static_cast<int64_t>(shots) + block - 1) / block;
}

std::vector<std::pair<uint64_t, uint64_t>>
NoisyMachine::runShardRange(
    const PreparedCircuit &prepared, int shots, int64_t block_lo,
    int64_t block_hi, uint64_t run_seed, ExecMode mode,
    const std::function<void(int64_t)> &progress) const
{
    require(shots > 0, "runShardRange requires at least one shot");
    require(prepared.valid(),
            "runShardRange on an empty PreparedCircuit");
    const int64_t blocks = shardBlockCount(prepared, shots, mode);
    require(block_lo >= 0 && block_lo <= block_hi && block_hi <= blocks,
            "runShardRange block range out of bounds");
    const PreparedJob &job = *prepared.impl_;
    const ExecPath path = execPath(job, mode);
    const int64_t per_block = blockUnits(path);
    const int64_t units = (shots + unitShots(path) - 1) / unitShots(path);

    // The same executor runPartial drives, one block per call, so the
    // worker heartbeat fires per block and the frame drains run per
    // block — both cadences leave every outcome unchanged.
    ChunkExecutor exec(job, path, cal_, flags_,
                       Rng(run_seed ^ 0xadab7dd), shots);
    FlatAccumulator hist;
    const int64_t first_shot = shotsIn(path, block_lo * per_block, shots);
    for (int64_t block = block_lo; block < block_hi; block++) {
        const int64_t lo = block * per_block;
        const int64_t hi = std::min(lo + per_block, units);
        exec.run(lo, hi, hist, nullptr);
        if (progress)
            progress(shotsIn(path, hi, shots) - first_shot);
    }
    std::vector<std::pair<uint64_t, uint64_t>> items;
    items.reserve(hist.size());
    hist.appendCountsTo(items);
    foldCounts(items);
    return items;
}

Distribution
mergeShardItems(std::vector<std::pair<uint64_t, uint64_t>> items)
{
    foldCounts(items);
    Distribution dist;
    for (const auto &[key, count] : items)
        dist.addSamples(key, count);
    return dist;
}

Distribution
NoisyMachine::run(const ScheduledCircuit &sched, int shots,
                  uint64_t run_seed, int threads,
                  BackendKind backend, ExecMode mode) const
{
    return run(prepareImpl(sched, backend,
                           /*compile=*/mode == ExecMode::Compiled),
               shots, run_seed, threads, mode);
}

std::vector<Distribution>
NoisyMachine::runBatch(std::span<const ScheduledCircuit> jobs, int shots,
                       std::span<const uint64_t> seeds, int threads,
                       BackendKind backend, ExecMode mode) const
{
    require(jobs.size() == seeds.size(),
            "runBatch requires one seed per job");
    require(jobs.empty() || shots > 0,
            "runBatch requires at least one shot");
    std::vector<Distribution> outputs(jobs.size());

    // Jobs are independent, so they fan out across the pool; each
    // output lands at its job's index.  Preparation (plan lowering +
    // shot-program compilation) happens inside the workers, so a
    // batch also parallelizes the per-variant compile.  run() itself
    // is bit-identical across thread counts (its shot parallelism
    // degrades to serial inside pool workers), so the batch
    // reproduces jobs.size() serial run() calls exactly for any
    // thread count.  A single-job batch dispatches inline, keeping
    // run()'s own shot parallelism.
    parallelFor(0, static_cast<int64_t>(jobs.size()), threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            outputs[static_cast<size_t>(i)] =
                run(jobs[static_cast<size_t>(i)], shots,
                    seeds[static_cast<size_t>(i)], /*threads=*/0,
                    backend, mode);
        }
    });
    return outputs;
}

std::vector<Distribution>
NoisyMachine::runBatch(std::span<const PreparedCircuit> jobs, int shots,
                       std::span<const uint64_t> seeds, int threads,
                       ExecMode mode) const
{
    std::vector<RunOutcome> outcomes = runBatchPartial(
        jobs, shots, seeds, threads, RunControl{}, mode);
    std::vector<Distribution> outputs;
    outputs.reserve(outcomes.size());
    for (RunOutcome &out : outcomes)
        outputs.push_back(std::move(out.dist));
    return outputs;
}

std::vector<RunOutcome>
NoisyMachine::runBatchPartial(std::span<const PreparedCircuit> jobs,
                              int shots,
                              std::span<const uint64_t> seeds,
                              int threads, const RunControl &control,
                              ExecMode mode) const
{
    require(jobs.size() == seeds.size(),
            "runBatch requires one seed per job");
    require(jobs.empty() || shots > 0,
            "runBatch requires at least one shot");
    std::vector<RunOutcome> outputs(jobs.size());

    // Same fan-out as runBatch, with the stop token threaded through:
    // each job polls it once before starting (a stopped token skips
    // the job — shotsDone 0, partial, cause recorded) and then runs
    // cancellably under it.  Jobs draw only from their own seeds, so
    // every job that completed is bit-identical to a solo run() no
    // matter when a sibling was skipped or truncated.
    RunControl job_control;
    job_control.token = control.token;
    parallelFor(0, static_cast<int64_t>(jobs.size()), threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            RunOutcome &out = outputs[static_cast<size_t>(i)];
            const StopCause cause = control.token.cause();
            if (cause != StopCause::None) {
                out.partial = true;
                out.cause = cause;
                continue;
            }
            out = runPartial(jobs[static_cast<size_t>(i)], shots,
                             seeds[static_cast<size_t>(i)],
                             /*threads=*/0, job_control, mode);
        }
    });
    return outputs;
}

} // namespace adapt
