/**
 * @file
 * Bit-packed batch Pauli-frame engine for the stabilizer path.
 *
 * The per-shot stabilizer backend (PauliFrameBackend) replays the
 * full Aaronson-Gottesman tableau for every shot — O(n * m) word
 * work per shot even though all shots of a job run the identical
 * Clifford executable and differ only in which stochastic Pauli
 * events fired.  This engine applies the standard Stim-style fix:
 *
 *  - The noiseless *reference* simulation runs ONCE per job (at
 *    compile time, in compileFrameProgram), fixing every
 *    measurement's reference outcome and, for random-outcome
 *    measurements, the "branch-flip" Pauli that maps one outcome
 *    branch onto the other.
 *  - Each shot is then represented only by its *Pauli frame* — the
 *    Pauli deviation P_s of the shot state P_s |psi_ref> from the
 *    reference — stored column-major in bit planes: one x bit and
 *    one z bit per (qubit, shot).  kFrameLanes (256) shots
 *    propagate per pass;
 *    every Clifford gate becomes a handful of word-wide XOR / swap
 *    operations on the planes, and every stochastic Pauli event
 *    becomes a Bernoulli-thresholded random bit mask.
 *
 * Exactness.  For Clifford circuits with stochastic Pauli noise and
 * measurement flips, frame propagation samples exactly the same law
 * as the per-shot tableau:
 *  - Clifford conjugation P -> G P G^dagger is linear over GF(2) on
 *    the (x, z) bits (signs never affect outcomes).
 *  - A deterministic measurement of the reference reads
 *    ref_bit XOR x_frame(q) on a shot.
 *  - A random measurement draws a fresh uniform bit r per shot:
 *    outcome = ref_bit XOR x_frame(q) XOR r, and for r = 1 the
 *    shot's frame absorbs the recorded branch-flip Pauli g (a
 *    stabilizer of the pre-measurement reference anticommuting with
 *    Z_q): g maps the reference's chosen post-measurement branch
 *    onto the opposite branch, so the shot's post-state is again
 *    frame * reference.  (StabilizerState::measureFlipSupport
 *    records g.)
 * The one event a shared-reference frame cannot represent is the T1
 * relaxation jump on a qubit whose reference state is in
 * superposition: the true jump collapses the shot (non-unital).  The
 * engine handles it by *deferral*, keeping the total law exact:
 * until a shot's first such jump, the qubit's population is exactly
 * 1/2 at every superposed checkpoint (frames preserve the
 * reference's determinism structure), so the firing events are
 * i.i.d. Bernoulli(gamma / 2) independent of all other randomness.
 * The draw pass samples them as masks; a lane that fires is excluded
 * from frame assembly and re-run on the per-shot tableau with the
 * first gamma/2 firing *forced* at the recorded checkpoint ordinal
 * (earlier superposed checkpoints forced quiet, everything after
 * evolved live) — exactly the conditional law given that deferral
 * event.  Jumps on reference-deterministic qubits — the dominant
 * case in characterization workloads — stay in-frame: the jump
 * fires against the shot's actual bit (ref XOR x_frame) and is
 * exactly an X flip.  The per-shot backend (ExecMode::Interpreted)
 * remains the reference semantics; tests lock TVD / chi-squared
 * equivalence between the two.
 *
 * Determinism contract.  All randomness for the lanes of block b
 * (shots [kFrameLanes * b, kFrameLanes * (b + 1))) comes from a stream
 * forked from (run seed, b) alone and is consumed in op-stream
 * order, so results are bit-identical for any thread count,
 * batch-vs-serial, and independent of how many other shots the job
 * runs.  Rare events (gate errors, T1, readout flips) are drawn
 * sparsely via geometric gap sampling — O(kFrameLanes * p) draws per
 * op instead of kFrameLanes — which is statistically an
 * exact per-lane Bernoulli; the empty mask (the overwhelmingly
 * common case) resolves with a single raw draw compared against a
 * precomputed P(any lane fires) threshold, and that same draw seeds
 * the first gap position when the mask is non-empty.
 */

#ifndef ADAPT_SIM_FRAME_BATCH_HH
#define ADAPT_SIM_FRAME_BATCH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/gate.hh"
#include "common/flat_accumulator.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/stabilizer.hh"

namespace adapt
{

/** 64-lane words per frame block: 4 x 64 = 256 shots per pass,
 *  swept 64 bits at a time. */
constexpr int kFrameLaneWords = 4;

/** Shots propagated per block. */
constexpr int kFrameLanes = 64 * kFrameLaneWords;

/** Instruction set of the frame-plane kernels: always "scalar", the
 *  portable 64-bit word sweeps (kept for the benchmark records). */
const char *frameKernelIsa();

/**
 * GL(2, F2) action of a 1Q Clifford on a frame's (x, z) bit planes —
 * the six invertible classes, pre-fused per pulse train.
 */
enum class Frame1QKind : uint8_t
{
    Hadamard, //!< swap x and z (H, RY quarter turns)
    Phase,    //!< z ^= x (S, Sdg, RZ quarter turns)
    HalfX,    //!< x ^= z (SX, SXdg, RX quarter turns)
    CycleA,   //!< (x, z) -> (z, x ^ z)
    CycleB,   //!< (x, z) -> (x ^ z, x)

    /** Frame no-op (a Pauli train, e.g. DD padding): skipped by the
     *  plane pass, but its named realization still matters to the
     *  deferred-lane tableau replay, where signs are observable. */
    Identity,
};

/**
 * Per-lane Bernoulli(p) mask generator, mode resolved at compile
 * time: Never / Always short-circuit, Sparse draws geometric gaps
 * (cheap for the engine's rare events), Dense compares raw words
 * against a fixed-point threshold (for p large enough that gap
 * sampling would cost more).
 *
 * `thresh` is always the single-lane fixed-point threshold — the
 * Dense per-lane compare, and the deferred-lane tableau replay's
 * per-shot Bernoulli test (one raw draw, `(w >> 11) < thresh`,
 * across every mode).  `anyThresh` is the Sparse fast path: the
 * threshold of P(any of the block's kFrameLanes lanes fires); a
 * draw at or above it proves the whole block mask empty without
 * touching libm.
 */
struct FrameBernoulli
{
    enum class Mode : uint8_t { Never, Sparse, Dense, Always };
    Mode mode = Mode::Never;
    double invLog1mP = 0.0;  //!< Sparse: 1 / log1p(-p)
    uint64_t thresh = 0;     //!< bernoulliThreshold(p)
    uint64_t anyThresh = 0;  //!< Sparse: threshold of 1-(1-p)^lanes
};

/** Resolve a probability into its mask-generation mode. */
FrameBernoulli makeFrameBernoulli(double p);

/** A fused single-qubit frame transform: the GL(2, F2) class for the
 *  plane pass, plus a named-gate realization of the train's Clifford
 *  product (up to global phase) for the deferred-lane tableau
 *  replay, where Pauli signs are observable. */
struct Frame1QOp
{
    int q = -1;
    Frame1QKind kind = Frame1QKind::Hadamard;
    uint8_t namedCount = 0;
    std::array<GateType, 6> named{};
};

/** A two-qubit frame transform. */
struct Frame2QOp
{
    int a = -1, b = -1;
    GateType type = GateType::CX;
};

/**
 * One gate-error Bernoulli of a fused pulse train.  The error fires
 * *inside* the train (after pulse i), but the train was fused into
 * one transform, so the injected uniform Pauli is conjugated through
 * the train's suffix at compile time: mapped[p - 1] is the (x, z)
 * image of Pauli p in the engine packing (1 = X, 2 = Y, 3 = Z).
 */
struct FrameErr1QOp
{
    int q = -1;
    FrameBernoulli prob;
    uint8_t mapped[3] = {1, 2, 3};
};

/** Two-qubit depolarizing error (uniform non-identity Pauli pair,
 *  injected right after its gate — no conjugation needed). */
struct FrameErr2QOp
{
    int a = -1, b = -1;
    FrameBernoulli prob;
};

/** Markovian (T1 + white dephasing) noise over one interval. */
struct FrameMarkovOp
{
    int q = -1;

    /** Reference state of q at this checkpoint: 0 / 1 deterministic
     *  value, 2 random (population 1/2). */
    uint8_t t1Ref = 0;

    /** Ordinal of this checkpoint among the job's random-reference
     *  T1 checkpoints (t1Ref == 2 only) — the forcing handle for
     *  deferred-lane reruns and the branch-tail site index. */
    uint32_t randT1Ordinal = 0;

    /** Candidate rate gamma for deterministic references (the jump
     *  then fires against the shot's actual bit); the folded
     *  gamma * 1/2 firing rate for random references (a firing lane
     *  leaves the plane pass — branch tail or deferred rerun, see
     *  the file comment). */
    FrameBernoulli t1;

    /** Raw (unfolded) gamma threshold, for the deferred-lane replay's
     *  live checkpoints: fire = bernoulli(gamma) * bernoulli(p1) with
     *  p1 read off the live tableau. */
    uint64_t gammaThresh = 0;

    /** Raw jump probability, kept for branch-tail recompilation: a
     *  tail re-resolves this checkpoint against its own reference,
     *  and the folded threshold is not invertible. */
    double gamma = 0.0;

    /** Branch-flip support g of a superposed checkpoint (t1Ref == 2,
     *  recorded only when the program compiles branch tails): a
     *  firing lane's frame absorbs g iff its x bit of q reads 1, and
     *  then rides the tail program in-frame.  Offsets into
     *  FrameProgram::flipQubits. */
    uint32_t flipXOff = 0, flipXCnt = 0;
    uint32_t flipZOff = 0, flipZCnt = 0;

    FrameBernoulli deph;
};

/** Static Pauli-twirl of a shot-invariant coherent phase (crosstalk
 *  under NoiseFlags::twirlCoherent): Z with probability
 *  sin^2(phi / 2). */
struct FrameTwirlOp
{
    int q = -1;
    FrameBernoulli prob;
};

/** A measurement with its reference outcome and readout errors. */
struct FrameMeasOp
{
    int q = -1;
    int clbit = 0;
    uint8_t refBit = 0; //!< reference outcome (0 for random measures)
    bool random = false;

    /** Branch-flip Pauli support (random measures only), into
     *  FrameProgram::flipQubits. */
    uint32_t flipXOff = 0, flipXCnt = 0;
    uint32_t flipZOff = 0, flipZCnt = 0;

    FrameBernoulli err01, err10;
};

/**
 * Mid-circuit reset, executed in-frame as measure-and-correct: a
 * random reference draws a fresh coin per lane (absorbing the
 * branch-flip Pauli exactly like a random measurement), then both
 * the x and z planes of q clear — the post-reset reference has q in
 * |0> exactly (the compile walk postselects / corrects it), so a
 * trivial frame on q is the exact representation of every lane.
 */
struct FrameResetOp
{
    int q = -1;
    bool random = false;

    /** Branch-flip Pauli support (random references only), into
     *  FrameProgram::flipQubits. */
    uint32_t flipXOff = 0, flipXCnt = 0;
    uint32_t flipZOff = 0, flipZCnt = 0;
};

/**
 * Classically-controlled Pauli: the reference applied it iff the
 * reference's recorded bit (refCond) read 1 at compile time, so a
 * lane's frame absorbs the Pauli exactly where its own recorded bit
 * differs from refCond — one mask build plus up to two plane XORs.
 */
struct FrameCondOp
{
    int q = -1;
    int condBit = 0;
    uint8_t pauli = 1;   //!< engine packing (1 = X, 2 = Y, 3 = Z)
    uint8_t refCond = 0; //!< reference's recorded bit of condBit
};

/** One entry of the frame op stream. */
struct FrameOpRef
{
    enum class Kind : uint8_t
    {
        F1Q,
        F2Q,
        Err1Q,
        Err2Q,
        Markov,
        Twirl,
        Meas,
        Reset,
        Cond,
    };
    Kind kind;
    uint32_t idx;
};

/**
 * Snapshot of the reference at a superposed T1 checkpoint — the
 * compile-time ingredients of that checkpoint's branch tail.  The
 * jumped reference ref' = X_q * postselect(ref, 1) seeds both the
 * tail compilation and the runtime depth-cap fallback; the recorded
 * reference clbits keep conditional gates resolvable downstream.
 */
struct FrameT1Site
{
    StabilizerState refAfterJump;
    std::vector<uint8_t> refCl; //!< reference clbit record at the site
    uint32_t opIndex = 0;       //!< Markov op position in ops
};

/**
 * A stabilizer job lowered into a frame op stream: the reference
 * simulation's outcomes baked in, every probability resolved into a
 * mask-generation mode, every pulse train fused into one of the six
 * GL(2, F2) transforms.  Built once per job by compileFrameProgram
 * (noise/compiled.hh) and shared read-only by all shot workers.
 */
struct FrameProgram
{
    int numQubits = 0;
    int numClbits = 1;

    /** Random-reference T1 checkpoints in the stream (deferral
     *  sites); 0 means no shot can ever defer. */
    uint32_t randomT1Count = 0;

    std::vector<FrameOpRef> ops;

    std::vector<Frame1QOp> f1q;
    std::vector<Frame2QOp> f2q;
    std::vector<FrameErr1QOp> err1q;
    std::vector<FrameErr2QOp> err2q;
    std::vector<FrameMarkovOp> markov;
    std::vector<FrameTwirlOp> twirl;
    std::vector<FrameMeasOp> meas;
    std::vector<FrameResetOp> resets;
    std::vector<FrameCondOp> cond;

    std::vector<int> flipQubits; //!< branch-flip Pauli supports

    /** Remaining branch-tail recursion budget: how many nested
     *  superposed-T1 jumps a lane may take in-frame below this
     *  program (ADAPT_FRAME_BRANCH_DEPTH at the root, parent - 1 in
     *  each tail).  0 disables tails — firing lanes defer to the
     *  exact per-shot tableau rerun instead. */
    int branchDepth = 0;

    /** True when this program records branch-tail sites (branchDepth
     *  > 0 and at least one superposed T1 checkpoint exists): firing
     *  lanes produce FrameTailShot snapshots, never DeferredShots. */
    bool branchTails = false;

    /** Per-ordinal reference snapshots (branchTails only), indexed by
     *  FrameMarkovOp::randT1Ordinal. */
    std::vector<FrameT1Site> t1Sites;
};

/**
 * A lane handed back to the dispatcher for an exact per-shot rerun:
 * its T1 jump fired at a reference-superposed checkpoint, which a
 * frame over the shared reference cannot represent.
 */
struct DeferredShot
{
    int64_t shot = 0;          //!< absolute shot index in the job
    uint32_t firstRandomT1 = 0; //!< ordinal of the firing checkpoint
};

/** Salt spacing the deferred-rerun streams away from the lane-group
 *  streams: the rerun of shot s draws from base.fork(salt + s). */
constexpr uint64_t kFrameDeferSalt = uint64_t{1} << 33;

/**
 * A lane whose T1 jump fired at a superposed checkpoint of a
 * branch-tail program: its frame and classical record, captured at
 * the instant the jump fired, ride the checkpoint's tail program
 * in-frame instead of deferring to a whole-shot tableau rerun.
 */
struct FrameTailShot
{
    int64_t shot = 0;     //!< absolute shot index in the job
    uint32_t ordinal = 0; //!< firing checkpoint's randT1Ordinal

    /** Pre-jump frame column of the lane, one byte (0 / 1) per
     *  qubit. */
    std::vector<uint8_t> xf, zf;

    /** Recorded outcome bits at fire time, packed 64 clbits per
     *  word. */
    std::vector<uint64_t> clWords;
};

/** Counters of how a frame-batch run's lanes left the plane pass. */
struct FrameBatchStats
{
    /** Lanes completed in-frame by branch-tail walks. */
    int64_t tailShots = 0;

    /** Lanes completed by per-shot tableau replay: the tails-disabled
     *  deferral path plus branch-tail depth-cap fallbacks. */
    int64_t deferredShots = 0;

    /** Tail walks that exhausted the recursion budget and fell back
     *  to the exact tableau. */
    int64_t depthCapHits = 0;

    /** Deepest nested-jump chain any lane took (0 = no lane ever
     *  left the plane pass). */
    int maxTailDepth = 0;

    /** Fold @p other into this (chunk aggregation). */
    void merge(const FrameBatchStats &other)
    {
        tailShots += other.tailShots;
        deferredShots += other.deferredShots;
        depthCapHits += other.depthCapHits;
        maxTailDepth = maxTailDepth > other.maxTailDepth
                           ? maxTailDepth
                           : other.maxTailDepth;
    }
};

/**
 * Provider of branch-tail programs: tail(parent, ordinal) returns the
 * sub-program that continues parent's op stream after the superposed
 * T1 checkpoint @p ordinal, re-resolved against the jumped reference.
 * Implemented by FrameTailCache (noise/compiled.hh), which compiles
 * lazily and memoizes; must be safe to call from concurrent chunk
 * workers.  @pre parent.branchDepth > 0 and ordinal is a valid site.
 */
class FrameTailSource
{
  public:
    virtual ~FrameTailSource() = default;
    virtual const FrameProgram &tail(const FrameProgram &parent,
                                     uint32_t ordinal) = 0;
};

/**
 * Per-chunk worker that executes a FrameProgram in kFrameLanes-shot
 * blocks.  Owns the frame bit planes, the outcome planes, and the
 * packer; one instance serves all the blocks of a chunk.
 *
 * Named "backend" for symmetry with PauliFrameBackend, but the
 * execution surface is deliberately per-block rather than per-shot —
 * it does not implement SimBackend, whose one-state-one-shot API is
 * exactly the overhead this engine removes.
 */
class FrameBatchBackend
{
  public:
    explicit FrameBatchBackend(const FrameProgram &prog);

    /**
     * Execute lanes [block * kFrameLanes, block * kFrameLanes + lanes):
     * count the lanes that finish the plane pass into @p hist; lanes
     * whose T1 jump fires at a superposed checkpoint leave the pass —
     * as FrameTailShot snapshots in @p tails when the program
     * compiles branch tails, as DeferredShots in @p deferred
     * otherwise — for the caller to drain.
     *
     * @param base Job-level RNG base; the block's stream is forked
     *             from it by absolute block index, so a block's
     *             outcomes are independent of chunking and of the
     *             job's total shot count.
     * @param lanes Live lanes in this block (the final block of a
     *              job may be partial).
     *              @pre 1 <= lanes <= kFrameLanes
     */
    void runBlock(const Rng &base, int64_t block, int lanes,
                  FlatAccumulator &hist,
                  std::vector<DeferredShot> &deferred,
                  std::vector<FrameTailShot> &tails);

  private:
    const FrameProgram &prog_;
    std::vector<uint64_t> x_;    //!< [qubit * kFrameLaneWords + w]
    std::vector<uint64_t> z_;
    std::vector<uint64_t> bits_; //!< [clbit * kFrameLaneWords + w]
    OutcomePacker packer_;
    Rng blockRng_;
    uint64_t deferredMask_[kFrameLaneWords] = {};

    uint64_t *xPlane(int q) { return &x_[static_cast<size_t>(q) * kFrameLaneWords]; }
    uint64_t *zPlane(int q) { return &z_[static_cast<size_t>(q) * kFrameLaneWords]; }

    /**
     * Draw one kFrameLanes-wide Bernoulli mask into @p out (all
     * kFrameLaneWords words written).
     *
     * Returns false — with @p out untouched — when the mask is
     * provably all-zero (Never, or the Sparse single-draw fast path);
     * callers skip their whole update in that common case.
     */
    bool drawMask(const FrameBernoulli &b, uint64_t *out);

    /** Walk the op stream once over all lane words. */
    void runOps(int64_t block, int lanes,
                std::vector<DeferredShot> &deferred,
                std::vector<FrameTailShot> &tails);

    /** Count the surviving lanes' outcome planes into @p hist. */
    void foldOutcomes(int lanes, FlatAccumulator &hist);

    /** Capture lane (@p w, @p bit)'s frame and classical columns at
     *  the instant its T1 jump fired at checkpoint @p ordinal. */
    FrameTailShot snapshotLane(int w, int bit, int64_t shot,
                               uint32_t ordinal) const;
};

/**
 * Exact per-shot tableau replay of a deferred lane (see
 * DeferredShot): walks the same FrameProgram op stream as the plane
 * pass, but against a live StabilizerState — Clifford trains via
 * their named realizations, noise via the precomputed single-lane
 * thresholds, measurements live.  Random-reference T1 checkpoints
 * before @p forced_ordinal are forced quiet and the one at it fires
 * unconditionally (the conditional law given the deferral event);
 * everything after evolves live off the collapsed tableau.
 *
 * ~Microseconds per shot against the interpreted plan walk's tens:
 * every shot-invariant constant (pulse products, noise closed forms,
 * reference bookkeeping) was resolved at compile time.
 *
 * @param state Scratch tableau of prog.numQubits qubits; reset here.
 * @param packer Scratch packer of prog.numClbits bits.
 * @return The shot's outcome key (OutcomePacker convention).
 */
uint64_t runFrameDeferredShot(const FrameProgram &prog,
                              StabilizerState &state,
                              OutcomePacker &packer, const Rng &rng,
                              uint32_t forced_ordinal);

/**
 * Rerun every lane in @p deferred per-shot (runFrameDeferredShot),
 * counting the outcomes into @p hist, and clear the list.  Each rerun
 * consumes the dedicated stream base.fork(kFrameDeferSalt + shot), so
 * the fold is chunking-invariant — a chunk may drain after any group
 * of blocks (the wave-structured cancellable path drains once per
 * wave) without perturbing a single outcome.
 *
 * @param state Scratch tableau of prog.numQubits qubits.
 * @param packer Scratch packer of prog.numClbits bits.
 */
void drainDeferredShots(const FrameProgram &prog, const Rng &base,
                        std::vector<DeferredShot> &deferred,
                        StabilizerState &state, OutcomePacker &packer,
                        FlatAccumulator &hist);

/**
 * Finish every lane in @p tails in-frame (see FrameTailShot),
 * counting the outcomes into @p hist, and clear the list.  Each lane
 * absorbs the checkpoint's branch-flip Pauli iff its x bit of the
 * decaying qubit reads 1, then walks the checkpoint's tail program
 * (from @p source) as a scalar frame; a nested superposed jump
 * recurses one tail deeper until the parent's branchDepth is
 * exhausted, at which point the lane falls back to an exact tableau
 * continuation seeded from the site's jumped-reference snapshot.
 * Each lane consumes the dedicated stream base.fork(kFrameDeferSalt +
 * shot) — the same contract as drainDeferredShots, so the fold stays
 * chunking- and wave-invariant.  @p stats accumulates how lanes
 * finished (never reset here).
 *
 * @param prog  The root program the snapshots were taken from.
 * @param state Scratch tableau of prog.numQubits qubits.
 * @param packer Scratch packer of prog.numClbits bits.
 */
void drainTailShots(const FrameProgram &prog, const Rng &base,
                    std::vector<FrameTailShot> &tails,
                    FrameTailSource &source, StabilizerState &state,
                    OutcomePacker &packer, FlatAccumulator &hist,
                    FrameBatchStats &stats);

} // namespace adapt

#endif // ADAPT_SIM_FRAME_BATCH_HH
