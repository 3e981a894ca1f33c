#include "sim/statevector.hh"

#include <algorithm>
#include <cmath>

#include "sim/dense_kernels.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DENSE_HAVE_AVX2 1
#include <immintrin.h>
#else
#define DENSE_HAVE_AVX2 0
#endif

#include "common/flat_accumulator.hh"
#include "common/logging.hh"

namespace adapt
{

namespace
{

/** Largest register the dense simulator will allocate (16 GiB). */
constexpr int kMaxDenseQubits = 26;

/**
 * Visit every basis index with @p bit set, in ascending order.
 *
 * Indices with a given bit set form dim/2 contiguous runs of length
 * bit; iterating the runs directly touches exactly the indices the
 * kernel needs instead of branching on all 2^n of them.
 */
template <typename Fn>
inline void
forEachSet(uint64_t dim, uint64_t bit, Fn &&fn)
{
    for (uint64_t base = bit; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i++)
            fn(i);
    }
}

/** Visit every basis index with both @p abit and @p bbit set. */
template <typename Fn>
inline void
forEachBothSet(uint64_t dim, uint64_t abit, uint64_t bbit, Fn &&fn)
{
    const uint64_t hi = std::max(abit, bbit);
    const uint64_t lo = std::min(abit, bbit);
    for (uint64_t a = hi; a < dim; a += 2 * hi) {
        for (uint64_t b = lo; b < hi; b += 2 * lo) {
            for (uint64_t i = 0; i < lo; i++)
                fn(a + b + i);
        }
    }
}

/** Visit every basis index with @p set_bit set and @p clear_bit
 *  clear (the canonical member of each two-qubit swap pair). */
template <typename Fn>
inline void
forEachSetClear(uint64_t dim, uint64_t set_bit, uint64_t clear_bit,
                Fn &&fn)
{
    const uint64_t hi = std::max(set_bit, clear_bit);
    const uint64_t lo = std::min(set_bit, clear_bit);
    const uint64_t a0 = set_bit > clear_bit ? hi : 0;
    const uint64_t b0 = set_bit > clear_bit ? 0 : lo;
    for (uint64_t a = a0; a < dim; a += 2 * hi) {
        for (uint64_t b = b0; b < hi; b += 2 * lo) {
            for (uint64_t i = 0; i < lo; i++)
                fn(a + b + i);
        }
    }
}

// ------------------------------------------------------------------
// Hot kernels.  The scalar and AVX2 bodies make the same products
// and sums in the same order (no FMA on either side), so the two
// sets are bit-identical and the choice between them is made once
// per process at run time (see dense::activeKernels).
// ------------------------------------------------------------------

/**
 * s * a with exactly the products and sums std::complex forms for
 * finite operands, minus its NaN-recovery branch (an out-of-line
 * call that keeps the loops from vectorizing).
 */
inline Complex
cmul(Complex s, Complex a)
{
    return {s.real() * a.real() - s.imag() * a.imag(),
            s.real() * a.imag() + s.imag() * a.real()};
}

void
scalarApply1Q(Complex *amps, uint64_t dim, const Matrix2 &u, QubitId q)
{
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    if (q == 0) {
        // Stride-1 specialization: amplitude pairs are adjacent, so
        // the whole state streams through in one sequential pass.
        for (uint64_t i = 0; i < dim; i += 2) {
            const Complex a0 = amps[i];
            const Complex a1 = amps[i + 1];
            amps[i] = cmul(u00, a0) + cmul(u01, a1);
            amps[i + 1] = cmul(u10, a0) + cmul(u11, a1);
        }
        return;
    }
    const uint64_t stride = uint64_t{1} << q;
    for (uint64_t base = 0; base < dim; base += 2 * stride) {
        for (uint64_t i0 = base; i0 < base + stride; i0++) {
            const uint64_t i1 = i0 + stride;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] = cmul(u00, a0) + cmul(u01, a1);
            amps[i1] = cmul(u10, a0) + cmul(u11, a1);
        }
    }
}

void
scalarApplyPhase(Complex *amps, uint64_t dim, QubitId q, Complex factor)
{
    forEachSet(dim, uint64_t{1} << q,
               [&](uint64_t i) { amps[i] = cmul(factor, amps[i]); });
}

/**
 * Four accumulators, as the AVX2 body's four vector lanes: re^2 and
 * im^2 of the even and of the odd member of each aligned index pair
 * (for q = 0 only odd indices are set, so the even pair stays 0),
 * folded in a fixed order.
 */
double
scalarPopulationOne(const Complex *amps, uint64_t dim, QubitId q)
{
    const uint64_t bit = uint64_t{1} << q;
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    if (bit == 1) {
        for (uint64_t i = 1; i < dim; i += 2) {
            l2 += amps[i].real() * amps[i].real();
            l3 += amps[i].imag() * amps[i].imag();
        }
    } else {
        for (uint64_t base = bit; base < dim; base += 2 * bit) {
            for (uint64_t i = base; i < base + bit; i += 2) {
                l0 += amps[i].real() * amps[i].real();
                l1 += amps[i].imag() * amps[i].imag();
                l2 += amps[i + 1].real() * amps[i + 1].real();
                l3 += amps[i + 1].imag() * amps[i + 1].imag();
            }
        }
    }
    return ((l0 + l1) + l2) + l3;
}

const dense::KernelSet kScalarKernels{"scalar", scalarApply1Q,
                                      scalarApplyPhase,
                                      scalarPopulationOne};

#if DENSE_HAVE_AVX2

#define DENSE_AVX2 __attribute__((target("avx2")))

/**
 * Complex product of per-128-bit-lane scalars (re / im pre-splatted)
 * with a vector of two packed complex doubles [re0 im0 re1 im1].
 *
 * Performs exactly the operations of cmul() — two products per
 * component, one subtract for the real part, one add for the
 * imaginary part (via vaddsubpd) — with the same roundings, and
 * deliberately no FMA.
 */
DENSE_AVX2 inline __m256d
cmulLanes(__m256d s_re, __m256d s_im, __m256d v)
{
    const __m256d swapped = _mm256_permute_pd(v, 0b0101);
    return _mm256_addsub_pd(_mm256_mul_pd(s_re, v),
                            _mm256_mul_pd(s_im, swapped));
}

DENSE_AVX2 void
avx2Apply1Q(Complex *amps, uint64_t dim, const Matrix2 &u, QubitId q)
{
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    auto *d = reinterpret_cast<double *>(amps);
    if (q == 0) {
        // Stride-1: one 256-bit vector holds an adjacent (a0, a1)
        // pair; the low lane produces u00*a0 + u01*a1 and the high
        // lane u10*a0 + u11*a1 in a single streaming pass.
        const __m256d c0re = _mm256_setr_pd(u00.real(), u00.real(),
                                            u10.real(), u10.real());
        const __m256d c0im = _mm256_setr_pd(u00.imag(), u00.imag(),
                                            u10.imag(), u10.imag());
        const __m256d c1re = _mm256_setr_pd(u01.real(), u01.real(),
                                            u11.real(), u11.real());
        const __m256d c1im = _mm256_setr_pd(u01.imag(), u01.imag(),
                                            u11.imag(), u11.imag());
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            const __m256d r =
                _mm256_add_pd(cmulLanes(c0re, c0im, a0),
                              cmulLanes(c1re, c1im, a1));
            _mm256_storeu_pd(d + 2 * i, r);
        }
        return;
    }
    // Strided (q >= 1): the paired amplitudes sit stride apart and
    // each contiguous offset run is at least two complex wide, so
    // both loads stay full vectors.
    const uint64_t stride = uint64_t{1} << q;
    const __m256d w00re = _mm256_set1_pd(u00.real());
    const __m256d w00im = _mm256_set1_pd(u00.imag());
    const __m256d w01re = _mm256_set1_pd(u01.real());
    const __m256d w01im = _mm256_set1_pd(u01.imag());
    const __m256d w10re = _mm256_set1_pd(u10.real());
    const __m256d w10im = _mm256_set1_pd(u10.imag());
    const __m256d w11re = _mm256_set1_pd(u11.real());
    const __m256d w11im = _mm256_set1_pd(u11.imag());
    for (uint64_t base = 0; base < dim; base += 2 * stride) {
        for (uint64_t offset = 0; offset < stride; offset += 2) {
            const uint64_t i0 = base + offset;
            const uint64_t i1 = i0 + stride;
            const __m256d va = _mm256_loadu_pd(d + 2 * i0);
            const __m256d vb = _mm256_loadu_pd(d + 2 * i1);
            const __m256d ra =
                _mm256_add_pd(cmulLanes(w00re, w00im, va),
                              cmulLanes(w01re, w01im, vb));
            const __m256d rb =
                _mm256_add_pd(cmulLanes(w10re, w10im, va),
                              cmulLanes(w11re, w11im, vb));
            _mm256_storeu_pd(d + 2 * i0, ra);
            _mm256_storeu_pd(d + 2 * i1, rb);
        }
    }
}

DENSE_AVX2 void
avx2ApplyPhase(Complex *amps, uint64_t dim, QubitId q, Complex factor)
{
    auto *d = reinterpret_cast<double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    const __m256d fre = _mm256_set1_pd(factor.real());
    const __m256d fim = _mm256_set1_pd(factor.imag());
    if (bit == 1) {
        // Odd amplitudes only: rotate both lanes, keep the even one.
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d p = cmulLanes(fre, fim, v);
            _mm256_storeu_pd(d + 2 * i,
                             _mm256_blend_pd(v, p, 0b1100));
        }
        return;
    }
    // Set-bit indices form contiguous runs of length bit >= 2.
    for (uint64_t base = bit; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            _mm256_storeu_pd(d + 2 * i, cmulLanes(fre, fim, v));
        }
    }
}

DENSE_AVX2 double
avx2PopulationOne(const Complex *amps, uint64_t dim, QubitId q)
{
    const auto *d = reinterpret_cast<const double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    __m256d acc = _mm256_setzero_pd();
    if (bit == 1) {
        const __m256d zero = _mm256_setzero_pd();
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d sq = _mm256_mul_pd(v, v);
            acc = _mm256_add_pd(acc,
                                _mm256_blend_pd(zero, sq, 0b1100));
        }
    } else {
        for (uint64_t base = bit; base < dim; base += 2 * bit) {
            for (uint64_t i = base; i < base + bit; i += 2) {
                const __m256d v = _mm256_loadu_pd(d + 2 * i);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
            }
        }
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

#undef DENSE_AVX2

const dense::KernelSet kAvx2Kernels{"avx2", avx2Apply1Q,
                                    avx2ApplyPhase, avx2PopulationOne};

#endif // DENSE_HAVE_AVX2

} // namespace

namespace dense
{

const KernelSet &
scalarKernels()
{
    return kScalarKernels;
}

const KernelSet *
avx2Kernels()
{
#if DENSE_HAVE_AVX2
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return supported ? &kAvx2Kernels : nullptr;
#else
    return nullptr;
#endif
}

const KernelSet &
activeKernels()
{
    static const KernelSet &chosen =
        avx2Kernels() != nullptr ? *avx2Kernels() : scalarKernels();
    return chosen;
}

} // namespace dense

StateVector::StateVector(int num_qubits) : numQubits_(num_qubits)
{
    require(num_qubits > 0, "StateVector requires at least one qubit");
    require(num_qubits <= kMaxDenseQubits,
            "dense simulation beyond " +
            std::to_string(kMaxDenseQubits) +
            " qubits; use the stabilizer simulator");
    amps_.assign(size_t{1} << num_qubits, Complex{});
    amps_[0] = 1.0;
}

void
StateVector::reset()
{
    touch();
    std::fill(amps_.begin(), amps_.end(), Complex{});
    amps_[0] = 1.0;
}

void
StateVector::setAmplitudes(const Complex *src, size_t count)
{
    require(count == amps_.size(),
            "setAmplitudes count must match the register dimension");
    touch();
    std::copy(src, src + count, amps_.begin());
}

void
StateVector::apply1Q(const Matrix2 &u, QubitId q)
{
    touch();
    dense::activeKernels().apply1Q(amps_.data(), amps_.size(), u, q);
}

void
StateVector::applyPhase(QubitId q, double phi)
{
    touch();
    dense::activeKernels().applyPhase(amps_.data(), amps_.size(), q,
                                      std::exp(kImag * phi));
}

void
StateVector::applyDecayJump(QubitId q)
{
    touch();
    const uint64_t dim = amps_.size();
    const uint64_t bit = uint64_t{1} << q;
    // Move each |1>_q amplitude onto its |0>_q partner and sum the
    // moved weights in ascending index order: exactly the additions
    // norm() makes on the result, whose |1>_q half is all zeros.
    double sum = 0.0;
    for (uint64_t base = 0; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i++) {
            amps_[i] = amps_[i + bit];
            amps_[i + bit] = 0.0;
            sum += std::norm(amps_[i]);
        }
    }
    rescaleHalf(bit, 0, sum);
}

void
StateVector::applyCX(QubitId control, QubitId target)
{
    touch();
    const uint64_t cbit = uint64_t{1} << control;
    const uint64_t tbit = uint64_t{1} << target;
    // Each swapped pair is visited once via its target=0 member.
    forEachSetClear(amps_.size(), cbit, tbit, [&](uint64_t i) {
        std::swap(amps_[i], amps_[i | tbit]);
    });
}

void
StateVector::applyCZ(QubitId a, QubitId b)
{
    touch();
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    forEachBothSet(amps_.size(), abit, bbit,
                   [&](uint64_t i) { amps_[i] = -amps_[i]; });
}

void
StateVector::applySwap(QubitId a, QubitId b)
{
    touch();
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    forEachSetClear(amps_.size(), abit, bbit, [&](uint64_t i) {
        std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
    });
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.type) {
      case GateType::CX:
        applyCX(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::CZ:
        applyCZ(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::SWAP:
        applySwap(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::I:
      case GateType::Barrier:
      case GateType::Delay:
        return;
      case GateType::Measure:
        panic("StateVector::applyGate cannot apply Measure");
      default:
        apply1Q(gateMatrix(gate), gate.qubit());
        return;
    }
}

void
StateVector::applyFused(const std::vector<Gate> &gates)
{
    // Runs of consecutive single-qubit unitaries on the same qubit
    // collapse into one Matrix2 product, so the 2^n-amplitude sweep
    // happens once per run instead of once per gate.
    QubitId pending_q = -1;
    Matrix2 pending = Matrix2::identity();
    auto flush = [&] {
        if (pending_q >= 0) {
            apply1Q(pending, pending_q);
            pending_q = -1;
            pending = Matrix2::identity();
        }
    };

    for (const Gate &gate : gates) {
        switch (gate.type) {
          case GateType::I:
          case GateType::Barrier:
          case GateType::Delay:
            continue;
          case GateType::Measure:
            panic("StateVector::applyFused cannot apply Measure");
          case GateType::CX:
          case GateType::CZ:
          case GateType::SWAP:
            flush();
            applyGate(gate);
            continue;
          default: {
            const QubitId q = gate.qubit();
            if (q != pending_q)
                flush();
            pending = gateMatrix(gate) * pending;
            pending_q = q;
            continue;
          }
        }
    }
    flush();
}

double
StateVector::probability(uint64_t basis) const
{
    return std::norm(amps_.at(basis));
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    for (size_t i = 0; i < amps_.size(); i++)
        probs[i] = std::norm(amps_[i]);
    return probs;
}

double
StateVector::populationOne(QubitId q) const
{
    return dense::activeKernels().populationOne(amps_.data(),
                                                amps_.size(), q);
}

void
StateVector::buildSampleCache() const
{
    cumulative_.resize(amps_.size());
    double total = 0.0;
    lastNonzero_ = 0;
    for (uint64_t i = 0; i < amps_.size(); i++) {
        const double p = std::norm(amps_[i]);
        if (p > 0.0)
            lastNonzero_ = i;
        total += p;
        cumulative_[i] = total;
    }
    require(total > 0.0, "cannot sample a zero state");
    sampleCacheValid_ = true;
}

uint64_t
StateVector::sample(Rng &rng) const
{
    // Repeated draws from an unchanged state reuse the cumulative
    // weights: O(2^n) once, then O(n) binary search per draw instead
    // of a full rescan.
    if (!sampleCacheValid_)
        buildSampleCache();
    const double draw = rng.uniform() * cumulative_.back();
    const auto it = std::upper_bound(cumulative_.begin(),
                                     cumulative_.end(), draw);
    if (it == cumulative_.end()) {
        // Numerical round-off pushed the draw past the total weight;
        // fall back to the last state with non-zero probability (the
        // final *slot* may hold probability zero).
        return lastNonzero_;
    }
    return static_cast<uint64_t>(it - cumulative_.begin());
}

bool
StateVector::collapseTo(QubitId q, bool outcome)
{
    touch();
    const uint64_t dim = amps_.size();
    const uint64_t bit = uint64_t{1} << q;
    const uint64_t keep = outcome ? bit : 0;
    // One pass zeroes the dropped branch and sums the kept one in
    // ascending index order: exactly the additions norm() makes on
    // the collapsed state, since each zero adds exactly 0.0.
    double sum = 0.0;
    for (uint64_t base = 0; base < dim; base += 2 * bit) {
        std::fill_n(&amps_[base + bit - keep], bit, Complex{});
        for (uint64_t i = base + keep; i < base + keep + bit; i++)
            sum += std::norm(amps_[i]);
    }
    rescaleHalf(bit, keep, sum);
    return outcome;
}

void
StateVector::rescaleHalf(uint64_t bit, uint64_t keep, double sum)
{
    const double n = std::sqrt(sum);
    require(n > 1e-300, "cannot normalize a zero state");
    const double inv = 1.0 / n;
    for (uint64_t base = keep; base < amps_.size(); base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i++)
            amps_[i] *= inv;
    }
}

bool
StateVector::measureCollapse(QubitId q, Rng &rng)
{
    const double p1 = populationOne(q);
    return collapseTo(q, rng.bernoulli(p1));
}

bool
StateVector::measureCollapse(QubitId q, double uniform_draw)
{
    const double p1 = populationOne(q);
    return collapseTo(q, uniform_draw < p1);
}

void
StateVector::applyAmplitudeDamping(QubitId q, double gamma, Rng &rng)
{
    require(gamma >= 0.0 && gamma <= 1.0,
            "amplitude damping gamma must be a probability");
    if (gamma <= 0.0)
        return;
    const double p1 = populationOne(q);
    const double p_decay = gamma * p1;
    if (rng.bernoulli(p_decay)) {
        // K1 branch: |1> component collapses to |0>.
        applyDecayJump(q);
        return;
    }
    // K0 branch: |1> component shrinks by sqrt(1 - gamma).
    touch();
    const double scale = std::sqrt(1.0 - gamma);
    forEachSet(amps_.size(), uint64_t{1} << q,
               [&](uint64_t i) { amps_[i] *= scale; });
    normalize();
}

double
StateVector::norm() const
{
    double sum = 0.0;
    for (const Complex &a : amps_)
        sum += std::norm(a);
    return std::sqrt(sum);
}

void
StateVector::normalize()
{
    touch();
    const double n = norm();
    require(n > 1e-300, "cannot normalize a zero state");
    const double inv = 1.0 / n;
    for (Complex &a : amps_)
        a *= inv;
}

const char *
denseKernelIsa()
{
    return dense::activeKernels().isa;
}

Circuit
restrictToActiveQubits(const Circuit &circuit)
{
    std::vector<int> map(static_cast<size_t>(circuit.numQubits()), -1);
    int next = 0;
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Barrier)
            continue;
        for (QubitId q : gate.qubits) {
            if (map[static_cast<size_t>(q)] < 0)
                map[static_cast<size_t>(q)] = next++;
        }
    }
    Circuit out(std::max(next, 1), circuit.numClbits());
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Barrier)
            continue;
        Gate mapped = gate;
        for (QubitId &q : mapped.qubits)
            q = map[static_cast<size_t>(q)];
        out.add(std::move(mapped));
    }
    return out;
}

Distribution
idealDistribution(const Circuit &circuit)
{
    const Circuit reduced = restrictToActiveQubits(circuit);
    StateVector state(reduced.numQubits());

    // (measured qubit, classical bit) pairs, applied to the final
    // state; all workloads measure terminally.
    std::vector<std::pair<QubitId, int>> measures;
    std::vector<Gate> unitaries;
    unitaries.reserve(reduced.gates().size());
    for (const Gate &gate : reduced.gates()) {
        if (gate.type == GateType::Measure) {
            measures.emplace_back(gate.qubit(),
                                  gate.clbit < 0
                                      ? static_cast<int>(gate.qubit())
                                      : gate.clbit);
        } else if (isUnitaryGate(gate.type)) {
            unitaries.push_back(gate);
        }
    }
    require(!measures.empty(),
            "idealDistribution requires at least one Measure gate");
    state.applyFused(unitaries);

    FlatAccumulator acc(measures.size() <= 16
                            ? size_t{1} << measures.size()
                            : size_t{1} << 16);
    const uint64_t dim = state.dim();
    for (uint64_t basis = 0; basis < dim; basis++) {
        const double prob = state.probability(basis);
        if (prob <= 0.0)
            continue;
        uint64_t outcome = 0;
        for (const auto &[q, c] : measures) {
            if (basis & (uint64_t{1} << q))
                outcome |= uint64_t{1} << c;
        }
        acc.add(outcome, prob);
    }
    Distribution dist;
    for (const auto &[outcome, prob] : acc.sortedItems())
        dist.setProbability(outcome, prob);
    return dist;
}

} // namespace adapt
