#include "noise/machine.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/env.hh"
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
     *  non-null iff frame && frame->branchTails. */
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
 * Process-wide kill switch for the batched Pauli-frame engine:
 * ADAPT_FRAME_BATCH=0 (or "off") pins stabilizer jobs to the
 * per-shot tableau even under ExecMode::Compiled.  Read once, like
 * ADAPT_NUM_THREADS.
 */
bool
frameBatchEnabled()
{
    static const bool enabled =
        envFlag("ADAPT_FRAME_BATCH", /*fallback=*/true);
    return enabled;
}

/**
 * True when a stabilizer job can be lowered onto the batch frame
 * engine: everything the resolved-stabilizer precondition already
 * guarantees, minus per-shot OU twirl draws (whose phase — and hence
 * Z probability — differs per shot) and minus conditional non-Pauli
 * pulses (whose frame action is data-dependent).  Ineligible jobs
 * keep the per-shot tableau backend.
 */
bool
frameEligible(const ExecutionPlan &plan, const NoiseFlags &flags)
{
    return !flags.ouDephasing && !plan.condNonPauli &&
           frameBatchEnabled();
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
        } else if (frameEligible(skel.plan, flags)) {
            skel.frame = buildFrameSkeleton(skel.plan, flags);
            skel.compiled = true;
        }
    }
    return skel;
}

/**
 * Merge per-chunk histograms into the output distribution: gather
 * every chunk's raw items, sort the combined list once, and fold
 * duplicate keys before they reach the Distribution map — instead of
 * sorting each chunk's items separately and re-looking-up shared
 * keys.  Integer counts add exactly, so the result is identical for
 * any chunk count.
 */
Distribution
mergeChunkHistograms(const std::vector<FlatAccumulator> &histograms)
{
    size_t total = 0;
    for (const FlatAccumulator &hist : histograms)
        total += hist.size();
    std::vector<std::pair<uint64_t, double>> items;
    items.reserve(total);
    for (const FlatAccumulator &hist : histograms)
        hist.appendItemsTo(items);
    std::sort(items.begin(), items.end());

    Distribution dist;
    for (size_t i = 0; i < items.size();) {
        const uint64_t key = items[i].first;
        double count = 0.0;
        for (; i < items.size() && items[i].first == key; i++)
            count += items[i].second;
        dist.addSamples(key,
                        static_cast<uint64_t>(std::llround(count)));
    }
    return dist;
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
        if (job->frame->branchTails)
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
    const bool compiled =
        mode == ExecMode::Compiled && job.program.has_value();
    const Rng base(run_seed ^ 0xadab7dd);

    // With a quiet control (no armed token, no progress callback) a
    // single wave covers the whole job and the code below is exactly
    // the historical run() — same chunking, same RNG streams, same
    // key-ordered merge, bit-identical output.  An armed control
    // switches to wave-structured execution: one block per chunk per
    // wave, token polled between waves, so the committed work is
    // always a contiguous, deterministic prefix of the shot range.
    const bool limited =
        control.token.armed() || control.progress != nullptr;

    RunOutcome out;

    if (mode == ExecMode::Compiled && job.frame.has_value()) {
        // Batched Pauli-frame engine: shots propagate kFrameLanes at
        // a time through the compiled frame op stream.
        // Blocks are a pure function of the shot count, each block's
        // randomness is forked from (base, absolute lane group), and
        // the per-chunk histograms merge in key order — so the output
        // is bit-identical for any thread count, batch-vs-serial, and
        // any point a stop request lands.
        const FrameProgram &prog = *job.frame;
        constexpr int64_t lane_count = kFrameLanes;
        const auto blocks = static_cast<int64_t>(
            (static_cast<int64_t>(shots) + lane_count - 1) /
            lane_count);
        const int chunks = static_cast<int>(std::min<int64_t>(
            resolveThreads(threads), blocks));
        std::vector<FlatAccumulator> histograms(
            static_cast<size_t>(chunks));

        // Per-chunk-slot workers persist across waves (the pool may
        // hand a slot to a different thread each wave; parallelFor's
        // batch completion orders those accesses).
        struct ChunkWorker
        {
            std::unique_ptr<FrameBatchBackend> runner;
            std::unique_ptr<StabilizerState> scratch;
            std::unique_ptr<OutcomePacker> packer;
            std::vector<DeferredShot> deferred;
            std::vector<FrameTailShot> tails;
            FrameBatchStats stats;
        };
        std::vector<ChunkWorker> workers(static_cast<size_t>(chunks));

        int64_t done = 0;
        while (done < blocks) {
            if ((out.cause = control.token.cause()) != StopCause::None)
                break;
            const int64_t hi =
                limited ? std::min<int64_t>(done + chunks, blocks)
                        : blocks;
            parallelFor(done, hi, chunks,
                        [&](int64_t lo2, int64_t hi2, int chunk) {
                ChunkWorker &w = workers[static_cast<size_t>(chunk)];
                FlatAccumulator &hist =
                    histograms[static_cast<size_t>(chunk)];
                if (!w.runner) {
                    w.runner = std::make_unique<FrameBatchBackend>(prog);
                }
                for (int64_t block = lo2; block < hi2; block++) {
                    const auto lanes =
                        static_cast<int>(std::min<int64_t>(
                            lane_count,
                            static_cast<int64_t>(shots) -
                                block * lane_count));
                    w.runner->runBlock(base, block, lanes, hist,
                                       w.deferred, w.tails);
                }
                if (w.deferred.empty() && w.tails.empty())
                    return;
                // Lanes whose T1 jump fired on a reference-superposed
                // qubit finish off the plane pass: via compiled
                // branch tails when enabled, else via exact per-shot
                // tableau reruns of the same op stream.  Either way
                // each consumes a dedicated stream keyed by its
                // absolute shot index, so the merged output stays
                // chunking- and wave-invariant.
                if (!w.scratch) {
                    w.scratch = std::make_unique<StabilizerState>(
                        prog.numQubits);
                    w.packer = std::make_unique<OutcomePacker>(
                        prog.numClbits);
                }
                if (!w.deferred.empty()) {
                    w.stats.deferredShots +=
                        static_cast<int64_t>(w.deferred.size());
                    drainDeferredShots(prog, base, w.deferred,
                                       *w.scratch, *w.packer, hist);
                }
                if (!w.tails.empty()) {
                    drainTailShots(prog, base, w.tails, *job.tails,
                                   *w.scratch, *w.packer, hist,
                                   w.stats);
                }
            });
            done = hi;
            if (control.progress) {
                control.progress(std::min<int64_t>(
                    done * lane_count, static_cast<int64_t>(shots)));
            }
        }
        out.shotsDone = std::min<int64_t>(done * lane_count,
                                          static_cast<int64_t>(shots));
        out.partial = done < blocks;
        out.dist = mergeChunkHistograms(histograms);
        for (const ChunkWorker &w : workers)
            out.frameStats.merge(w.stats);
        return out;
    }

    // Dense / per-shot paths.  Shots are embarrassingly parallel:
    // every shot's RNG streams are forked from (base, shot index)
    // alone, so any partition of the shot range yields the same
    // per-shot outcomes.  Each chunk counts outcomes into its own
    // flat histogram; merging the histograms in key order (integer
    // counts — exact addition) reproduces the serial result bit for
    // bit at any thread count.
    const int chunks = std::min(resolveThreads(threads), shots);
    std::vector<FlatAccumulator> histograms(
        static_cast<size_t>(chunks));

    // Small compiled jobs without per-shot dynamic phases take the
    // grouped replay: tapes for a whole kShotBlock block are drawn up
    // front and shots with equal error signatures share one prefix
    // execution — identical outcomes to the per-shot replay.
    const bool grouped =
        compiled && BatchShotReplayer::eligible(*job.program);

    struct ChunkWorker
    {
        std::unique_ptr<ShotReplayer> replayer;
        std::unique_ptr<BatchShotReplayer> batch;
        std::unique_ptr<SimBackend> state;
        std::unique_ptr<OutcomePacker> packer;
    };
    std::vector<ChunkWorker> workers(static_cast<size_t>(chunks));

    // Single-chunk cancellable runs poll the token per shot instead
    // of per wave: with one chunk the committed shots are a prefix at
    // *any* shot boundary, so the finest granularity is free.
    const CancellationToken *shot_token =
        limited && chunks == 1 && control.token.armed()
            ? &control.token
            : nullptr;
    const int64_t wave = limited
                             ? static_cast<int64_t>(chunks) * kShotBlock
                             : static_cast<int64_t>(shots);
    int64_t done = 0;
    bool stopped_in_block = false;
    while (done < shots && !stopped_in_block) {
        if ((out.cause = control.token.cause()) != StopCause::None)
            break;
        const int64_t hi =
            std::min<int64_t>(done + wave, static_cast<int64_t>(shots));
        int64_t wave_done = hi - done;
        parallelFor(done, hi, chunks,
                    [&](int64_t lo2, int64_t hi2, int chunk) {
            ChunkWorker &w = workers[static_cast<size_t>(chunk)];
            FlatAccumulator &hist =
                histograms[static_cast<size_t>(chunk)];
            if (grouped) {
                if (!w.batch) {
                    w.batch = std::make_unique<BatchShotReplayer>(
                        job.plan, *job.program);
                }
                const int64_t ran = w.batch->runBlock(
                    base, lo2, hi2 - lo2, hist, shot_token);
                if (shot_token != nullptr)
                    wave_done = ran; // chunks == 1: sole writer
                return;
            }
            if (compiled) {
                if (!w.replayer) {
                    w.replayer = std::make_unique<ShotReplayer>(
                        job.plan, *job.program);
                }
                const int64_t ran = w.replayer->runBlock(
                    base, lo2, hi2 - lo2, hist, shot_token);
                if (shot_token != nullptr)
                    wave_done = ran; // chunks == 1: sole writer
                return;
            }
            if (!w.state) {
                w.state = makeBackend(
                    job.kind,
                    static_cast<int>(job.plan.active.size()));
                w.packer = std::make_unique<OutcomePacker>(
                    job.plan.maxClbit + 1);
            }
            for (int64_t shot = lo2; shot < hi2; shot++) {
                if (shot_token != nullptr &&
                    shot_token->stopRequested()) {
                    wave_done = shot - lo2; // chunks == 1
                    return;
                }
                const Rng shot_rng =
                    base.fork(static_cast<uint64_t>(shot) + 1);
                hist.add(runShot(job.plan, cal_, flags_, *w.state,
                                 *w.packer, shot_rng),
                         1.0);
            }
        });
        done += wave_done;
        // A per-shot poll (chunks == 1) may stop inside the wave; the
        // cause is re-read from the token after the loop.
        stopped_in_block = done < hi;
        if (control.progress)
            control.progress(done);
    }
    out.shotsDone = done;
    out.partial = done < shots;
    if (out.partial && out.cause == StopCause::None)
        out.cause = control.token.cause();
    out.dist = mergeChunkHistograms(histograms);
    for (const ChunkWorker &w : workers) {
        if (w.batch)
            out.denseStats.merge(w.batch->stats());
    }
    return out;
}

namespace
{

/** Fold one FlatAccumulator into key-sorted, key-unique integer
 *  items — the wire form of a shard range's histogram. */
std::vector<std::pair<uint64_t, uint64_t>>
foldShardItems(const FlatAccumulator &hist)
{
    std::vector<std::pair<uint64_t, double>> raw;
    raw.reserve(hist.size());
    hist.appendItemsTo(raw);
    std::sort(raw.begin(), raw.end());
    std::vector<std::pair<uint64_t, uint64_t>> items;
    items.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
        const uint64_t key = raw[i].first;
        double count = 0.0;
        for (; i < raw.size() && raw[i].first == key; i++)
            count += raw[i].second;
        items.emplace_back(
            key, static_cast<uint64_t>(std::llround(count)));
    }
    return items;
}

} // namespace

int64_t
NoisyMachine::shardBlockShots(const PreparedCircuit &prepared,
                              ExecMode mode) const
{
    require(prepared.valid(),
            "shardBlockShots on an empty PreparedCircuit");
    const PreparedJob &job = *prepared.impl_;
    return mode == ExecMode::Compiled && job.frame.has_value()
               ? static_cast<int64_t>(kFrameLanes)
               : static_cast<int64_t>(kShotBlock);
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
    const Rng base(run_seed ^ 0xadab7dd);
    FlatAccumulator hist;
    int64_t range_shots = 0;

    if (mode == ExecMode::Compiled && job.frame.has_value()) {
        // Batch frame path: identical per-block randomness to
        // runPartial — runBlock forks off (base, absolute block), the
        // drains consume streams keyed by absolute shot index and are
        // wave/chunking-invariant, so draining after every block
        // matches any other drain cadence bit for bit.
        const FrameProgram &prog = *job.frame;
        constexpr int64_t lane_count = kFrameLanes;
        FrameBatchBackend runner(prog);
        StabilizerState scratch(prog.numQubits);
        OutcomePacker packer(prog.numClbits);
        std::vector<DeferredShot> deferred;
        std::vector<FrameTailShot> tails;
        FrameBatchStats stats;
        for (int64_t block = block_lo; block < block_hi; block++) {
            const auto lanes = static_cast<int>(std::min<int64_t>(
                lane_count,
                static_cast<int64_t>(shots) - block * lane_count));
            runner.runBlock(base, block, lanes, hist, deferred, tails);
            if (!deferred.empty()) {
                drainDeferredShots(prog, base, deferred, scratch,
                                   packer, hist);
            }
            if (!tails.empty()) {
                drainTailShots(prog, base, tails, *job.tails, scratch,
                               packer, hist, stats);
            }
            range_shots += lanes;
            if (progress)
                progress(range_shots);
        }
        return foldShardItems(hist);
    }

    // Dense / per-shot paths: per-shot streams forked from
    // (base, absolute shot index), exactly as in runPartial —
    // including the grouped-replay strategy choice, which never
    // changes outcomes.
    const bool compiled =
        mode == ExecMode::Compiled && job.program.has_value();
    const bool grouped =
        compiled && BatchShotReplayer::eligible(*job.program);
    std::unique_ptr<ShotReplayer> replayer;
    std::unique_ptr<BatchShotReplayer> batch;
    std::unique_ptr<SimBackend> state;
    std::unique_ptr<OutcomePacker> packer;
    for (int64_t block = block_lo; block < block_hi; block++) {
        const int64_t lo = block * kShotBlock;
        const int64_t hi = std::min<int64_t>(
            lo + kShotBlock, static_cast<int64_t>(shots));
        if (grouped) {
            if (!batch) {
                batch = std::make_unique<BatchShotReplayer>(
                    job.plan, *job.program);
            }
            batch->runBlock(base, lo, hi - lo, hist, nullptr);
        } else if (compiled) {
            if (!replayer) {
                replayer = std::make_unique<ShotReplayer>(
                    job.plan, *job.program);
            }
            replayer->runBlock(base, lo, hi - lo, hist, nullptr);
        } else {
            if (!state) {
                state = makeBackend(
                    job.kind,
                    static_cast<int>(job.plan.active.size()));
                packer = std::make_unique<OutcomePacker>(
                    job.plan.maxClbit + 1);
            }
            for (int64_t shot = lo; shot < hi; shot++) {
                const Rng shot_rng =
                    base.fork(static_cast<uint64_t>(shot) + 1);
                hist.add(runShot(job.plan, cal_, flags_, *state,
                                 *packer, shot_rng),
                         1.0);
            }
        }
        range_shots += hi - lo;
        if (progress)
            progress(range_shots);
    }
    return foldShardItems(hist);
}

Distribution
mergeShardItems(std::vector<std::pair<uint64_t, uint64_t>> items)
{
    std::sort(items.begin(), items.end());
    Distribution dist;
    for (size_t i = 0; i < items.size();) {
        const uint64_t key = items[i].first;
        uint64_t count = 0;
        for (; i < items.size() && items[i].first == key; i++)
            count += items[i].second;
        dist.addSamples(key, count);
    }
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
    require(jobs.size() == seeds.size(),
            "runBatch requires one seed per job");
    require(jobs.empty() || shots > 0,
            "runBatch requires at least one shot");
    std::vector<Distribution> outputs(jobs.size());
    parallelFor(0, static_cast<int64_t>(jobs.size()), threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            outputs[static_cast<size_t>(i)] =
                run(jobs[static_cast<size_t>(i)], shots,
                    seeds[static_cast<size_t>(i)], /*threads=*/0,
                    mode);
        }
    });
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
