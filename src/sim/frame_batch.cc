#include "sim/frame_batch.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "noise/compiled.hh" // bernoulliThreshold

namespace adapt
{

namespace
{

// ------------------------------------------------------------------
// Block-wide plane kernels: every frame transform is a handful of
// XOR / swap passes over the block's kFrameLaneWords contiguous
// words, swept 64 bits at a time (fixed-length loops the compiler
// is free to vectorize).  Pure bit operations: there is no
// floating-point rounding to preserve.
// ------------------------------------------------------------------

inline void
xorWords(uint64_t *dst, const uint64_t *src)
{
    for (int w = 0; w < kFrameLaneWords; w++)
        dst[w] ^= src[w];
}

inline void
swapWords(uint64_t *a, uint64_t *b)
{
    for (int w = 0; w < kFrameLaneWords; w++) {
        const uint64_t t = a[w];
        a[w] = b[w];
        b[w] = t;
    }
}

/** (x, z) -> (z, x ^ z). */
inline void
cycleA(uint64_t *x, uint64_t *z)
{
    for (int w = 0; w < kFrameLaneWords; w++) {
        const uint64_t nx = z[w];
        z[w] ^= x[w];
        x[w] = nx;
    }
}

/** (x, z) -> (x ^ z, x). */
inline void
cycleB(uint64_t *x, uint64_t *z)
{
    for (int w = 0; w < kFrameLaneWords; w++) {
        const uint64_t nz = x[w];
        x[w] ^= z[w];
        z[w] = nz;
    }
}

/** x bit of a Pauli code (engine packing: 1 = X, 2 = Y, 3 = Z). */
constexpr uint64_t kPauliHasX[4] = {0, 1, 1, 0};
constexpr uint64_t kPauliHasZ[4] = {0, 0, 1, 1};

/** Salt base for the per-block streams; disjoint from the per-shot
 *  salts (shot + 1) of the dense / interpreted paths and from
 *  kFrameDeferSalt. */
constexpr uint64_t kFrameBlockSalt = uint64_t{1} << 32;

/** Single-lane Bernoulli test against a precomputed fixed-point
 *  threshold: one raw draw, every FrameBernoulli mode.  Never
 *  (thresh 0) skips the draw — each site's consumption is a fixed
 *  property of the program, never data-dependent. */
inline bool
fires(Rng &rng, uint64_t thresh)
{
    return thresh != 0 && (rng.next() >> 11) < thresh;
}

/** In-place 64x64 bit-matrix transpose (recursive half-swaps, the
 *  Hacker's Delight 7-3 scheme adjusted to LSB-first indexing: each
 *  round swaps the high half of the low rows with the low half of
 *  the high rows): turns 64 clbit-major outcome words (bit l of word
 *  c = clbit c of lane l) into 64 lane-major key words in ~384 word
 *  ops — the fold that a per-(lane, clbit) packer loop would pay
 *  64 * numClbits calls for. */
inline void
transpose64(uint64_t a[64])
{
    uint64_t m = 0x00000000FFFFFFFFULL;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

} // namespace

const char *
frameKernelIsa()
{
    return "scalar";
}

FrameBernoulli
makeFrameBernoulli(double p)
{
    FrameBernoulli b;
    if (p <= 0.0) {
        b.mode = FrameBernoulli::Mode::Never;
        return b;
    }
    if (p >= 1.0) {
        b.mode = FrameBernoulli::Mode::Always;
        b.thresh = bernoulliThreshold(1.0);
        return b;
    }
    b.thresh = bernoulliThreshold(p);
    // Gap sampling costs one draw when the whole block is quiet and
    // ~(1 + kFrameLanes * p) (draw + log1p + floor) otherwise; the
    // dense compare costs a flat kFrameLanes raw draws.  A log1p walk
    // step is roughly five times a raw draw, so the crossover sits
    // near kFrameLanes/5 expected firings — 1/32 keeps genuinely rare
    // events (gate errors, readout flips at typical rates) on the
    // sparse path while long-idle T1 / dephasing rates (several
    // percent and up, e.g. characterization workloads) take the flat
    // compare.
    if (p >= 1.0 / 32.0) {
        b.mode = FrameBernoulli::Mode::Dense;
        return b;
    }
    b.mode = FrameBernoulli::Mode::Sparse;
    const double log1mp = std::log1p(-p);
    b.invLog1mP = 1.0 / log1mp;
    // P(any of the block's lanes fires) = 1 - (1-p)^kFrameLanes, as
    // the same fixed-point threshold the gap walk's first position test
    // realizes (any ulp-level disagreement at the boundary only costs
    // an empty walk or a ~2^-53 event, both harmless).
    b.anyThresh = bernoulliThreshold(-std::expm1(kFrameLanes * log1mp));
    return b;
}

FrameBatchBackend::FrameBatchBackend(const FrameProgram &prog)
    : prog_(prog),
      x_(static_cast<size_t>(prog.numQubits) * kFrameLaneWords, 0),
      z_(static_cast<size_t>(prog.numQubits) * kFrameLaneWords, 0),
      bits_(static_cast<size_t>(prog.numClbits) * kFrameLaneWords, 0),
      packer_(prog.numClbits)
{
}

bool
FrameBatchBackend::drawMask(const FrameBernoulli &b, uint64_t *out)
{
    switch (b.mode) {
      case FrameBernoulli::Mode::Never:
        return false;
      case FrameBernoulli::Mode::Always:
        for (int w = 0; w < kFrameLaneWords; w++)
            out[w] = ~uint64_t{0};
        return true;
      case FrameBernoulli::Mode::Dense:
        for (int w = 0; w < kFrameLaneWords; w++) {
            uint64_t mask = 0;
            for (int bit = 0; bit < 64; bit++) {
                if ((blockRng_.next() >> 11) < b.thresh)
                    mask |= uint64_t{1} << bit;
            }
            out[w] = mask;
        }
        return true;
      case FrameBernoulli::Mode::Sparse:
        break;
    }
    // Geometric gap sampling: the run of failures before the next
    // success is floor(log1p(-u) / log1p(-p)), which reproduces
    // i.i.d. per-lane Bernoulli(p) with ~(1 + lanes * p) draws.  The
    // first raw draw doubles as the whole-block emptiness test — at
    // or above anyThresh its gap provably clears the block, so the
    // hot path is one draw, one compare, no libm — and, below it, as
    // the (correctly conditioned) first gap position.
    const uint64_t w0 = blockRng_.next() >> 11;
    if (w0 >= b.anyThresh)
        return false;
    for (int w = 0; w < kFrameLaneWords; w++)
        out[w] = 0;
    const double u0 = static_cast<double>(w0) * 0x1.0p-53;
    double gap = std::floor(std::log1p(-u0) * b.invLog1mP);
    int64_t pos = static_cast<int64_t>(
        gap < static_cast<double>(kFrameLanes)
            ? gap
            : static_cast<double>(kFrameLanes));
    while (pos < kFrameLanes) {
        out[pos >> 6] |= uint64_t{1} << (pos & 63);
        gap = std::floor(std::log1p(-blockRng_.uniform()) *
                         b.invLog1mP);
        if (gap >= static_cast<double>(kFrameLanes))
            break;
        pos += 1 + static_cast<int64_t>(gap);
    }
    return true;
}

FrameTailShot
FrameBatchBackend::snapshotLane(int w, int bit, int64_t shot,
                                uint32_t ordinal) const
{
    FrameTailShot ts;
    ts.shot = shot;
    ts.ordinal = ordinal;
    ts.xf.resize(static_cast<size_t>(prog_.numQubits));
    ts.zf.resize(static_cast<size_t>(prog_.numQubits));
    for (int q = 0; q < prog_.numQubits; q++) {
        const size_t p =
            static_cast<size_t>(q) * kFrameLaneWords +
            static_cast<size_t>(w);
        ts.xf[static_cast<size_t>(q)] =
            static_cast<uint8_t>(x_[p] >> bit & 1);
        ts.zf[static_cast<size_t>(q)] =
            static_cast<uint8_t>(z_[p] >> bit & 1);
    }
    ts.clWords.assign(static_cast<size_t>(prog_.numClbits + 63) / 64,
                      0);
    for (int c = 0; c < prog_.numClbits; c++) {
        const size_t p =
            static_cast<size_t>(c) * kFrameLaneWords +
            static_cast<size_t>(w);
        if (bits_[p] >> bit & 1)
            ts.clWords[static_cast<size_t>(c) / 64] |=
                uint64_t{1} << (c % 64);
    }
    return ts;
}

void
FrameBatchBackend::runBlock(const Rng &base, int64_t block, int lanes,
                            FlatAccumulator &hist,
                            std::vector<DeferredShot> &deferred,
                            std::vector<FrameTailShot> &tails)
{
    require(lanes >= 1 && lanes <= kFrameLanes,
            "runBlock lane count out of range");
    blockRng_ =
        base.fork(kFrameBlockSalt + static_cast<uint64_t>(block));
    for (int w = 0; w < kFrameLaneWords; w++)
        deferredMask_[w] = 0;
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
    std::fill(bits_.begin(), bits_.end(), 0);

    runOps(block, lanes, deferred, tails);
    foldOutcomes(lanes, hist);
}

void
FrameBatchBackend::runOps(int64_t block, int lanes,
                          std::vector<DeferredShot> &deferred,
                          std::vector<FrameTailShot> &tails)
{
    uint64_t m[kFrameLaneWords];
    for (const FrameOpRef ref : prog_.ops) {
        switch (ref.kind) {
          case FrameOpRef::Kind::F1Q: {
            const Frame1QOp &op = prog_.f1q[ref.idx];
            uint64_t *x = xPlane(op.q);
            uint64_t *z = zPlane(op.q);
            switch (op.kind) {
              case Frame1QKind::Hadamard: swapWords(x, z); break;
              case Frame1QKind::Phase: xorWords(z, x); break;
              case Frame1QKind::HalfX: xorWords(x, z); break;
              case Frame1QKind::CycleA: cycleA(x, z); break;
              case Frame1QKind::CycleB: cycleB(x, z); break;
              case Frame1QKind::Identity: break;
            }
            break;
          }
          case FrameOpRef::Kind::F2Q: {
            const Frame2QOp &op = prog_.f2q[ref.idx];
            switch (op.type) {
              case GateType::CX:
                // X_c -> X_c X_t, Z_t -> Z_c Z_t.
                xorWords(xPlane(op.b), xPlane(op.a));
                xorWords(zPlane(op.a), zPlane(op.b));
                break;
              case GateType::CZ:
                xorWords(zPlane(op.a), xPlane(op.b));
                xorWords(zPlane(op.b), xPlane(op.a));
                break;
              case GateType::SWAP:
                swapWords(xPlane(op.a), xPlane(op.b));
                swapWords(zPlane(op.a), zPlane(op.b));
                break;
              default:
                panic("frame replay: unexpected two-qubit gate");
            }
            break;
          }
          case FrameOpRef::Kind::Err1Q: {
            const FrameErr1QOp &op = prog_.err1q[ref.idx];
            if (!drawMask(op.prob, m))
                break;
            uint64_t *x = xPlane(op.q);
            uint64_t *z = zPlane(op.q);
            for (int w = 0; w < kFrameLaneWords; w++) {
                uint64_t mask = m[w];
                while (mask != 0) {
                    const int lane = std::countr_zero(mask);
                    mask &= mask - 1;
                    const auto pauli = static_cast<int>(
                        op.mapped[blockRng_.uniformInt(3)]);
                    const uint64_t bit = uint64_t{1} << lane;
                    x[w] ^= bit * kPauliHasX[pauli];
                    z[w] ^= bit * kPauliHasZ[pauli];
                }
            }
            break;
          }
          case FrameOpRef::Kind::Err2Q: {
            const FrameErr2QOp &op = prog_.err2q[ref.idx];
            if (!drawMask(op.prob, m))
                break;
            uint64_t *xa = xPlane(op.a), *za = zPlane(op.a);
            uint64_t *xb = xPlane(op.b), *zb = zPlane(op.b);
            for (int w = 0; w < kFrameLaneWords; w++) {
                uint64_t mask = m[w];
                while (mask != 0) {
                    const int lane = std::countr_zero(mask);
                    mask &= mask - 1;
                    const auto code = static_cast<int>(
                        blockRng_.uniformInt(15)) + 1;
                    const uint64_t bit = uint64_t{1} << lane;
                    xa[w] ^= bit * kPauliHasX[code & 3];
                    za[w] ^= bit * kPauliHasZ[code & 3];
                    xb[w] ^= bit * kPauliHasX[code >> 2];
                    zb[w] ^= bit * kPauliHasZ[code >> 2];
                }
            }
            break;
          }
          case FrameOpRef::Kind::Markov: {
            const FrameMarkovOp &op = prog_.markov[ref.idx];
            if (drawMask(op.t1, m)) {
                uint64_t *x = xPlane(op.q);
                for (int w = 0; w < kFrameLaneWords; w++) {
                    if (op.t1Ref == 2) {
                        // Random reference: every live lane's
                        // population is exactly 1/2 (folded into the
                        // rate), so the firing events are independent
                        // of all other draws.  A firing lane leaves
                        // the plane pass — snapshotted onto this
                        // checkpoint's branch tail when the program
                        // compiled tails, deferred to an exact
                        // per-shot rerun otherwise; later ops keep
                        // draining its draws so the other lanes'
                        // streams are unaffected.
                        uint64_t fresh = m[w] & ~deferredMask_[w];
                        deferredMask_[w] |= fresh;
                        while (fresh != 0) {
                            const int lane = std::countr_zero(fresh);
                            fresh &= fresh - 1;
                            if (w * 64 + lane >= lanes)
                                continue;
                            const int64_t shot =
                                block * kFrameLanes + w * 64 + lane;
                            if (prog_.branchTails) {
                                tails.push_back(snapshotLane(
                                    w, lane, shot, op.randT1Ordinal));
                            } else {
                                deferred.push_back(
                                    {shot, op.randT1Ordinal});
                            }
                        }
                    } else {
                        // Deterministic reference: a candidate fires
                        // only on lanes whose actual bit (ref XOR
                        // frame-x) is 1, and the jump is exactly an
                        // X flip.
                        const uint64_t ones =
                            op.t1Ref ? ~x[w] : x[w];
                        x[w] ^= m[w] & ones;
                    }
                }
            }
            if (drawMask(op.deph, m)) {
                uint64_t *z = zPlane(op.q);
                for (int w = 0; w < kFrameLaneWords; w++)
                    z[w] ^= m[w];
            }
            break;
          }
          case FrameOpRef::Kind::Twirl: {
            const FrameTwirlOp &op = prog_.twirl[ref.idx];
            if (!drawMask(op.prob, m))
                break;
            uint64_t *z = zPlane(op.q);
            for (int w = 0; w < kFrameLaneWords; w++)
                z[w] ^= m[w];
            break;
          }
          case FrameOpRef::Kind::Meas: {
            const FrameMeasOp &op = prog_.meas[ref.idx];
            if (op.random) {
                // Fresh uniform branch coin per lane; lanes with
                // coin = 1 absorb the branch-flip Pauli, hopping the
                // frame onto the opposite reference branch (this also
                // flips x(q), which the outcome read below sees).
                uint64_t coin[kFrameLaneWords];
                for (int w = 0; w < kFrameLaneWords; w++)
                    coin[w] = blockRng_.next();
                for (uint32_t i = 0; i < op.flipXCnt; i++) {
                    uint64_t *xq = xPlane(
                        prog_.flipQubits[op.flipXOff + i]);
                    for (int w = 0; w < kFrameLaneWords; w++)
                        xq[w] ^= coin[w];
                }
                for (uint32_t i = 0; i < op.flipZCnt; i++) {
                    uint64_t *zq = zPlane(
                        prog_.flipQubits[op.flipZOff + i]);
                    for (int w = 0; w < kFrameLaneWords; w++)
                        zq[w] ^= coin[w];
                }
            }
            uint64_t m01[kFrameLaneWords] = {};
            uint64_t m10[kFrameLaneWords] = {};
            drawMask(op.err01, m01);
            drawMask(op.err10, m10);
            const uint64_t *x = xPlane(op.q);
            uint64_t *out = &bits_[static_cast<size_t>(op.clbit) *
                                   kFrameLaneWords];
            for (int w = 0; w < kFrameLaneWords; w++) {
                uint64_t bits = op.refBit ? ~x[w] : x[w];
                bits ^= (~bits & m01[w]) | (bits & m10[w]);
                out[w] = bits;
            }
            break;
          }
          case FrameOpRef::Kind::Reset: {
            const FrameResetOp &op = prog_.resets[ref.idx];
            if (op.random) {
                // Fresh collapse coin per lane, absorbing the
                // branch-flip Pauli exactly like a random measure:
                // correlations with other qubits land in their
                // planes before q's own planes clear.
                uint64_t coin[kFrameLaneWords];
                for (int w = 0; w < kFrameLaneWords; w++)
                    coin[w] = blockRng_.next();
                for (uint32_t i = 0; i < op.flipXCnt; i++) {
                    uint64_t *xq = xPlane(
                        prog_.flipQubits[op.flipXOff + i]);
                    for (int w = 0; w < kFrameLaneWords; w++)
                        xq[w] ^= coin[w];
                }
                for (uint32_t i = 0; i < op.flipZCnt; i++) {
                    uint64_t *zq = zPlane(
                        prog_.flipQubits[op.flipZOff + i]);
                    for (int w = 0; w < kFrameLaneWords; w++)
                        zq[w] ^= coin[w];
                }
            }
            // Post-reset the reference holds q in |0> exactly (the
            // compile walk postselected / corrected it) and so does
            // every lane, whatever it measured — its conditional X
            // correction restores q = |0>.  A trivial frame on q is
            // therefore the exact representation: clear x (lane
            // matches reference) and z (Z_q stabilizes the
            // reference, so it acts as identity).
            uint64_t *x = xPlane(op.q);
            uint64_t *z = zPlane(op.q);
            for (int w = 0; w < kFrameLaneWords; w++) {
                x[w] = 0;
                z[w] = 0;
            }
            break;
          }
          case FrameOpRef::Kind::Cond: {
            // The reference applied the Pauli iff refCond; a lane's
            // frame absorbs it exactly where its own recorded bit
            // differs (the outcome planes hold absolute recorded
            // bits, readout flips included, matching the per-shot
            // paths' classical-register reads).
            const FrameCondOp &op = prog_.cond[ref.idx];
            const uint64_t *cb =
                &bits_[static_cast<size_t>(op.condBit) *
                       kFrameLaneWords];
            for (int w = 0; w < kFrameLaneWords; w++)
                m[w] = op.refCond ? ~cb[w] : cb[w];
            if (kPauliHasX[op.pauli] != 0)
                xorWords(xPlane(op.q), m);
            if (kPauliHasZ[op.pauli] != 0)
                xorWords(zPlane(op.q), m);
            break;
          }
        }
    }
}

void
FrameBatchBackend::foldOutcomes(int lanes, FlatAccumulator &hist)
{
    // Fold the outcome planes into histogram keys, lane-major, with
    // the same keying as the per-shot paths' OutcomePacker: direct
    // 64-bit keys up to 64 clbits (a bit transpose of the outcome
    // planes), splitmix fingerprints beyond (per-lane packer walk —
    // those registers are rare and the packer is the one place the
    // fingerprint convention lives).  Deferred lanes are the
    // caller's to rerun.
    if (prog_.numClbits <= 64) {
        uint64_t keys[64];
        for (int w = 0; w * 64 < lanes; w++) {
            for (int c = 0; c < prog_.numClbits; c++)
                keys[c] = bits_[static_cast<size_t>(c) *
                                    kFrameLaneWords +
                                static_cast<size_t>(w)];
            for (int c = prog_.numClbits; c < 64; c++)
                keys[c] = 0;
            transpose64(keys);
            const int live = std::min(64, lanes - w * 64);
            for (int l = 0; l < live; l++) {
                if (deferredMask_[w] >> l & 1)
                    continue;
                hist.add(keys[l], 1.0);
            }
        }
        return;
    }
    for (int lane = 0; lane < lanes; lane++) {
        const int w = lane >> 6;
        const uint64_t bit = uint64_t{1} << (lane & 63);
        if (deferredMask_[w] & bit)
            continue;
        packer_.clear();
        for (int c = 0; c < prog_.numClbits; c++) {
            packer_.set(c,
                        (bits_[static_cast<size_t>(c) *
                                   kFrameLaneWords +
                               static_cast<size_t>(w)] &
                         bit) != 0);
        }
        hist.add(packer_.key(), 1.0);
    }
}

namespace
{

/** Apply one named gate of a train realization to the tableau. */
inline void
applyNamed(StabilizerState &state, GateType g, int q)
{
    switch (g) {
      case GateType::H: state.applyH(q); break;
      case GateType::S: state.applyS(q); break;
      case GateType::Sdg: state.applySdg(q); break;
      case GateType::X: state.applyX(q); break;
      case GateType::Y: state.applyY(q); break;
      case GateType::Z: state.applyZ(q); break;
      case GateType::SX: state.applySX(q); break;
      case GateType::SXdg: state.applySXdg(q); break;
      default:
        panic("frame replay: unexpected named gate " + gateName(g));
    }
}

/** Apply Pauli @p code (engine packing: 1 = X, 2 = Y, 3 = Z). */
inline void
applyPauliCode(StabilizerState &state, int code, int q)
{
    switch (code) {
      case 0: break;
      case 1: state.applyX(q); break;
      case 2: state.applyY(q); break;
      default: state.applyZ(q); break;
    }
}

} // namespace

namespace
{

/** "No checkpoint": walkFrameTableau forcing disabled / no fresh
 *  scalar-walk fire. */
constexpr uint32_t kNoOrdinal = ~uint32_t{0};

/**
 * Live tableau walk of prog.ops[start ..): the exact per-shot
 * semantics every frame shortcut is measured against.  With @p live
 * false, random-reference T1 checkpoints below @p forced_ordinal are
 * forced quiet and the one at it fires unconditionally (the deferral
 * conditioning); from then on — or from the start when @p live is
 * true (branch-tail depth-cap continuations) — every checkpoint
 * evolves off the tableau.
 */
void
walkFrameTableau(const FrameProgram &prog, StabilizerState &state,
                 OutcomePacker &packer, Rng &rng, uint32_t start,
                 bool live, uint32_t forced_ordinal)
{
    for (uint32_t oi = start; oi < prog.ops.size(); oi++) {
        const FrameOpRef ref = prog.ops[oi];
        switch (ref.kind) {
          case FrameOpRef::Kind::F1Q: {
            const Frame1QOp &op = prog.f1q[ref.idx];
            for (uint8_t i = 0; i < op.namedCount; i++)
                applyNamed(state, op.named[i], op.q);
            break;
          }
          case FrameOpRef::Kind::F2Q: {
            const Frame2QOp &op = prog.f2q[ref.idx];
            switch (op.type) {
              case GateType::CX: state.applyCX(op.a, op.b); break;
              case GateType::CZ: state.applyCZ(op.a, op.b); break;
              case GateType::SWAP: state.applySwap(op.a, op.b); break;
              default:
                panic("frame replay: unexpected two-qubit gate");
            }
            break;
          }
          case FrameOpRef::Kind::Err1Q: {
            const FrameErr1QOp &op = prog.err1q[ref.idx];
            if (fires(rng, op.prob.thresh)) {
                applyPauliCode(
                    state,
                    static_cast<int>(op.mapped[rng.uniformInt(3)]),
                    op.q);
            }
            break;
          }
          case FrameOpRef::Kind::Err2Q: {
            const FrameErr2QOp &op = prog.err2q[ref.idx];
            if (fires(rng, op.prob.thresh)) {
                const auto code =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                applyPauliCode(state, code & 3, op.a);
                applyPauliCode(state, code >> 2, op.b);
            }
            break;
          }
          case FrameOpRef::Kind::Markov: {
            const FrameMarkovOp &op = prog.markov[ref.idx];
            if (op.t1Ref == 2 && !live) {
                if (op.randT1Ordinal == forced_ordinal) {
                    state.applyDecayJump(op.q);
                    live = true;
                }
            } else if (fires(rng, op.gammaThresh)) {
                // Candidate jump: fires against the live population
                // (exactly {0, 1/2, 1} on a tableau), mirroring the
                // interpreted bernoulli(gamma) * bernoulli(p1) law.
                const double p1 = state.populationOne(op.q);
                if (p1 == 1.0 || (p1 == 0.5 && rng.bernoulli(0.5)))
                    state.applyDecayJump(op.q);
            }
            if (fires(rng, op.deph.thresh))
                state.applyZ(op.q);
            break;
          }
          case FrameOpRef::Kind::Twirl: {
            const FrameTwirlOp &op = prog.twirl[ref.idx];
            if (fires(rng, op.prob.thresh))
                state.applyZ(op.q);
            break;
          }
          case FrameOpRef::Kind::Meas: {
            const FrameMeasOp &op = prog.meas[ref.idx];
            bool bit = state.measure(op.q, rng);
            const uint64_t errThresh =
                bit ? op.err10.thresh : op.err01.thresh;
            if (fires(rng, errThresh))
                bit = !bit;
            packer.set(op.clbit, bit);
            break;
          }
          case FrameOpRef::Kind::Reset: {
            const FrameResetOp &op = prog.resets[ref.idx];
            if (state.measure(op.q, rng))
                state.applyX(op.q);
            break;
          }
          case FrameOpRef::Kind::Cond: {
            // Absolute semantics on a live tableau: the Pauli fires
            // iff the recorded bit reads 1 (refCond is a
            // frame-relative compile artifact).
            const FrameCondOp &op = prog.cond[ref.idx];
            if (packer.get(op.condBit))
                applyPauliCode(state, op.pauli, op.q);
            break;
          }
        }
    }
}

/**
 * Single-lane scalar frame walk of a branch-tail program from its
 * first op: the per-byte mirror of runBlock's plane sweeps, with the
 * lane's own outcome record driving conditional gates.  Returns the
 * randT1Ordinal of a freshly fired superposed T1 checkpoint — frame
 * and packer left exactly as of that instant, deph of the firing op
 * not yet drawn (the checkpoint's tail re-emits it) — or kNoOrdinal
 * when the walk completed and packer holds the lane's outcomes.
 */
uint32_t
walkScalarFrame(const FrameProgram &prog, std::vector<uint8_t> &xf,
                std::vector<uint8_t> &zf, OutcomePacker &packer,
                Rng &rng)
{
    for (const FrameOpRef ref : prog.ops) {
        switch (ref.kind) {
          case FrameOpRef::Kind::F1Q: {
            const Frame1QOp &op = prog.f1q[ref.idx];
            uint8_t &x = xf[static_cast<size_t>(op.q)];
            uint8_t &z = zf[static_cast<size_t>(op.q)];
            const uint8_t t = x;
            switch (op.kind) {
              case Frame1QKind::Hadamard: x = z; z = t; break;
              case Frame1QKind::Phase: z ^= x; break;
              case Frame1QKind::HalfX: x ^= z; break;
              case Frame1QKind::CycleA: x = z; z ^= t; break;
              case Frame1QKind::CycleB: x ^= z; z = t; break;
              case Frame1QKind::Identity: break;
            }
            break;
          }
          case FrameOpRef::Kind::F2Q: {
            const Frame2QOp &op = prog.f2q[ref.idx];
            const auto a = static_cast<size_t>(op.a);
            const auto b = static_cast<size_t>(op.b);
            switch (op.type) {
              case GateType::CX:
                xf[b] ^= xf[a];
                zf[a] ^= zf[b];
                break;
              case GateType::CZ:
                zf[a] ^= xf[b];
                zf[b] ^= xf[a];
                break;
              case GateType::SWAP:
                std::swap(xf[a], xf[b]);
                std::swap(zf[a], zf[b]);
                break;
              default:
                panic("frame replay: unexpected two-qubit gate");
            }
            break;
          }
          case FrameOpRef::Kind::Err1Q: {
            const FrameErr1QOp &op = prog.err1q[ref.idx];
            if (fires(rng, op.prob.thresh)) {
                const auto pauli = static_cast<int>(
                    op.mapped[rng.uniformInt(3)]);
                xf[static_cast<size_t>(op.q)] ^=
                    static_cast<uint8_t>(kPauliHasX[pauli]);
                zf[static_cast<size_t>(op.q)] ^=
                    static_cast<uint8_t>(kPauliHasZ[pauli]);
            }
            break;
          }
          case FrameOpRef::Kind::Err2Q: {
            const FrameErr2QOp &op = prog.err2q[ref.idx];
            if (fires(rng, op.prob.thresh)) {
                const auto code =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                xf[static_cast<size_t>(op.a)] ^=
                    static_cast<uint8_t>(kPauliHasX[code & 3]);
                zf[static_cast<size_t>(op.a)] ^=
                    static_cast<uint8_t>(kPauliHasZ[code & 3]);
                xf[static_cast<size_t>(op.b)] ^=
                    static_cast<uint8_t>(kPauliHasX[code >> 2]);
                zf[static_cast<size_t>(op.b)] ^=
                    static_cast<uint8_t>(kPauliHasZ[code >> 2]);
            }
            break;
          }
          case FrameOpRef::Kind::Markov: {
            const FrameMarkovOp &op = prog.markov[ref.idx];
            if (op.t1Ref == 2) {
                // Same folded gamma/2 law as the plane pass; a fire
                // hands the lane to the next tail down.
                if (fires(rng, op.t1.thresh))
                    return op.randT1Ordinal;
            } else if (fires(rng, op.t1.thresh)) {
                if ((op.t1Ref ^ xf[static_cast<size_t>(op.q)]) & 1)
                    xf[static_cast<size_t>(op.q)] ^= 1;
            }
            if (fires(rng, op.deph.thresh))
                zf[static_cast<size_t>(op.q)] ^= 1;
            break;
          }
          case FrameOpRef::Kind::Twirl: {
            const FrameTwirlOp &op = prog.twirl[ref.idx];
            if (fires(rng, op.prob.thresh))
                zf[static_cast<size_t>(op.q)] ^= 1;
            break;
          }
          case FrameOpRef::Kind::Meas: {
            const FrameMeasOp &op = prog.meas[ref.idx];
            if (op.random && rng.bernoulli(0.5)) {
                for (uint32_t i = 0; i < op.flipXCnt; i++)
                    xf[static_cast<size_t>(
                        prog.flipQubits[op.flipXOff + i])] ^= 1;
                for (uint32_t i = 0; i < op.flipZCnt; i++)
                    zf[static_cast<size_t>(
                        prog.flipQubits[op.flipZOff + i])] ^= 1;
            }
            bool bit =
                (op.refBit ^ xf[static_cast<size_t>(op.q)]) & 1;
            if (fires(rng, bit ? op.err10.thresh : op.err01.thresh))
                bit = !bit;
            packer.set(op.clbit, bit);
            break;
          }
          case FrameOpRef::Kind::Reset: {
            const FrameResetOp &op = prog.resets[ref.idx];
            if (op.random && rng.bernoulli(0.5)) {
                for (uint32_t i = 0; i < op.flipXCnt; i++)
                    xf[static_cast<size_t>(
                        prog.flipQubits[op.flipXOff + i])] ^= 1;
                for (uint32_t i = 0; i < op.flipZCnt; i++)
                    zf[static_cast<size_t>(
                        prog.flipQubits[op.flipZOff + i])] ^= 1;
            }
            xf[static_cast<size_t>(op.q)] = 0;
            zf[static_cast<size_t>(op.q)] = 0;
            break;
          }
          case FrameOpRef::Kind::Cond: {
            const FrameCondOp &op = prog.cond[ref.idx];
            if (packer.get(op.condBit) != (op.refCond != 0)) {
                xf[static_cast<size_t>(op.q)] ^=
                    static_cast<uint8_t>(kPauliHasX[op.pauli]);
                zf[static_cast<size_t>(op.q)] ^=
                    static_cast<uint8_t>(kPauliHasZ[op.pauli]);
            }
            break;
          }
        }
    }
    return kNoOrdinal;
}

} // namespace

uint64_t
runFrameDeferredShot(const FrameProgram &prog, StabilizerState &state,
                     OutcomePacker &packer, const Rng &shot_rng,
                     uint32_t forced_ordinal)
{
    state.reset();
    packer.clear();
    Rng rng = shot_rng;
    walkFrameTableau(prog, state, packer, rng, 0, /*live=*/false,
                     forced_ordinal);
    return packer.key();
}

void
drainDeferredShots(const FrameProgram &prog, const Rng &base,
                   std::vector<DeferredShot> &deferred,
                   StabilizerState &state, OutcomePacker &packer,
                   FlatAccumulator &hist)
{
    for (const DeferredShot &d : deferred) {
        const Rng rng =
            base.fork(kFrameDeferSalt + static_cast<uint64_t>(d.shot));
        hist.add(runFrameDeferredShot(prog, state, packer, rng,
                                      d.firstRandomT1),
                 1.0);
    }
    deferred.clear();
}

void
drainTailShots(const FrameProgram &prog, const Rng &base,
               std::vector<FrameTailShot> &tails,
               FrameTailSource &source, StabilizerState &state,
               OutcomePacker &packer, FlatAccumulator &hist,
               FrameBatchStats &stats)
{
    std::vector<uint8_t> xf, zf;
    for (const FrameTailShot &ts : tails) {
        Rng rng = base.fork(kFrameDeferSalt +
                            static_cast<uint64_t>(ts.shot));
        xf = ts.xf;
        zf = ts.zf;
        packer.clear();
        for (int c = 0; c < prog.numClbits; c++) {
            if (ts.clWords[static_cast<size_t>(c) / 64] >> (c % 64) &
                1)
                packer.set(c, true);
        }

        const FrameProgram *cur = &prog;
        uint32_t ord = ts.ordinal;
        int depth = 0;
        for (;;) {
            depth++;
            const FrameT1Site &site =
                cur->t1Sites[static_cast<size_t>(ord)];
            const FrameMarkovOp &mop =
                cur->markov[cur->ops[site.opIndex].idx];

            // The jump maps the lane onto the jumped reference with
            // frame F' = F * g^{x_F(q)}: when the lane's frame
            // carries X on q, sigma- acting through it lands on the
            // opposite collapse branch, and g (the recorded
            // branch-flip stabilizer) hops the frame across.
            if (xf[static_cast<size_t>(mop.q)] & 1) {
                for (uint32_t i = 0; i < mop.flipXCnt; i++)
                    xf[static_cast<size_t>(
                        cur->flipQubits[mop.flipXOff + i])] ^= 1;
                for (uint32_t i = 0; i < mop.flipZCnt; i++)
                    zf[static_cast<size_t>(
                        cur->flipQubits[mop.flipZOff + i])] ^= 1;
            }

            if (cur->branchDepth < 1) {
                // Recursion budget exhausted: exact tableau
                // continuation from the site's jumped-reference
                // snapshot, frame applied as Paulis, the firing
                // checkpoint's residual dephasing drawn inline.
                stats.depthCapHits++;
                stats.deferredShots++;
                state = site.refAfterJump;
                for (int q = 0; q < prog.numQubits; q++) {
                    if (xf[static_cast<size_t>(q)])
                        state.applyX(q);
                    if (zf[static_cast<size_t>(q)])
                        state.applyZ(q);
                }
                if (fires(rng, mop.deph.thresh))
                    state.applyZ(mop.q);
                walkFrameTableau(*cur, state, packer, rng,
                                 site.opIndex + 1, /*live=*/true,
                                 kNoOrdinal);
                break;
            }

            const FrameProgram &tail = source.tail(*cur, ord);
            const uint32_t fired =
                walkScalarFrame(tail, xf, zf, packer, rng);
            if (fired == kNoOrdinal) {
                stats.tailShots++;
                break;
            }
            cur = &tail;
            ord = fired;
        }
        if (depth > stats.maxTailDepth)
            stats.maxTailDepth = depth;
        hist.add(packer.key(), 1.0);
    }
    tails.clear();
}

} // namespace adapt
