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
 * Four accumulators, as the AVX2 bodies' four vector lanes: re^2 and
 * im^2 of the even and of the odd member of each aligned index pair,
 * each summed in ascending index order, folded in a fixed order.
 * Every squared-norm sum of the simulator (populationOne,
 * populations, norm) is made in these lanes, so the sum over one
 * half of a collapsed state equals norm() of that state bit for bit:
 * the zeroed half adds exactly 0.0 to each lane.
 */
struct Lanes
{
    double l[4] = {0.0, 0.0, 0.0, 0.0};

    void addEven(Complex a)
    {
        l[0] += a.real() * a.real();
        l[1] += a.imag() * a.imag();
    }

    void addOdd(Complex a)
    {
        l[2] += a.real() * a.real();
        l[3] += a.imag() * a.imag();
    }

    /** Add the @p len (even) amplitudes at the even index @p a. */
    void addPairs(const Complex *a, uint64_t len)
    {
        for (uint64_t i = 0; i < len; i += 2) {
            addEven(a[i]);
            addOdd(a[i + 1]);
        }
    }

    double fold() const { return ((l[0] + l[1]) + l[2]) + l[3]; }
};

/** For q = 0 only odd indices are set, so the even lanes stay 0. */
double
scalarPopulationOne(const Complex *amps, uint64_t dim, QubitId q)
{
    const uint64_t bit = uint64_t{1} << q;
    Lanes one;
    if (bit == 1) {
        for (uint64_t i = 1; i < dim; i += 2)
            one.addOdd(amps[i]);
    } else {
        for (uint64_t base = bit; base < dim; base += 2 * bit)
            one.addPairs(amps + base, bit);
    }
    return one.fold();
}

dense::Populations
scalarPopulations(const Complex *amps, uint64_t dim, QubitId q)
{
    const uint64_t bit = uint64_t{1} << q;
    Lanes zero, one;
    if (bit == 1) {
        for (uint64_t i = 0; i < dim; i += 2) {
            zero.addEven(amps[i]);
            one.addOdd(amps[i + 1]);
        }
    } else {
        for (uint64_t base = 0; base < dim; base += 2 * bit) {
            zero.addPairs(amps + base, bit);
            one.addPairs(amps + base + bit, bit);
        }
    }
    return {zero.fold(), one.fold()};
}

void
scalarCollapse(Complex *amps, uint64_t dim, QubitId q, bool outcome,
               double scale)
{
    const uint64_t bit = uint64_t{1} << q;
    const uint64_t keep = outcome ? bit : 0;
    for (uint64_t base = 0; base < dim; base += 2 * bit) {
        Complex *kept = amps + base + keep;
        Complex *dropped = amps + base + (bit - keep);
        for (uint64_t i = 0; i < bit; i++) {
            kept[i] = {kept[i].real() * scale, kept[i].imag() * scale};
            dropped[i] = Complex{};
        }
    }
}

/**
 * Swap the @p lo-long amplitude runs at offsets @p off_a and @p off_b
 * of every block of @p dim that has both the @p lo and the @p hi bit
 * clear (lo < hi; each offset is a sum of lo and hi).
 */
void
scalarSwapRuns(Complex *amps, uint64_t dim, uint64_t lo, uint64_t hi,
               uint64_t off_a, uint64_t off_b)
{
    for (uint64_t a = 0; a < dim; a += 2 * hi) {
        for (uint64_t b = a; b < a + hi; b += 2 * lo)
            std::swap_ranges(amps + b + off_a, amps + b + off_a + lo,
                             amps + b + off_b);
    }
}

void
scalarApplyCX(Complex *amps, uint64_t dim, QubitId control,
              QubitId target)
{
    const uint64_t cbit = uint64_t{1} << control;
    const uint64_t tbit = uint64_t{1} << target;
    scalarSwapRuns(amps, dim, std::min(cbit, tbit), std::max(cbit, tbit),
                   cbit, cbit | tbit);
}

void
scalarApplySwap(Complex *amps, uint64_t dim, QubitId a, QubitId b)
{
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    scalarSwapRuns(amps, dim, std::min(abit, bbit), std::max(abit, bbit),
                   abit, bbit);
}

const dense::KernelSet kScalarKernels{
    "scalar",            scalarApply1Q,     scalarApplyPhase,
    scalarPopulationOne, scalarPopulations, scalarCollapse,
    scalarApplyCX,       scalarApplySwap};

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

/** Lanes::fold() of a vector accumulator. */
DENSE_AVX2 inline double
foldLanes(__m256d acc)
{
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
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
    return foldLanes(acc);
}

DENSE_AVX2 dense::Populations
avx2Populations(const Complex *amps, uint64_t dim, QubitId q)
{
    const auto *d = reinterpret_cast<const double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    if (bit == 1) {
        // One accumulator: its even lanes are the |0> lanes, its odd
        // lanes the |1> lanes; blending zeros into the other pair
        // gives each half exactly its own four-lane fold.
        __m256d acc = _mm256_setzero_pd();
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
        }
        const __m256d zero = _mm256_setzero_pd();
        return {foldLanes(_mm256_blend_pd(acc, zero, 0b1100)),
                foldLanes(_mm256_blend_pd(zero, acc, 0b1100))};
    }
    // The |0> and |1> runs of a block sit bit apart; walking them side
    // by side keeps two independent add chains in flight, each in
    // ascending index order.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (uint64_t base = 0; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i += 2) {
            const __m256d v0 = _mm256_loadu_pd(d + 2 * i);
            const __m256d v1 = _mm256_loadu_pd(d + 2 * (i + bit));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, v0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, v1));
        }
    }
    return {foldLanes(acc0), foldLanes(acc1)};
}

DENSE_AVX2 void
avx2Collapse(Complex *amps, uint64_t dim, QubitId q, bool outcome,
             double scale)
{
    auto *d = reinterpret_cast<double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    const __m256d s = _mm256_set1_pd(scale);
    if (bit == 1) {
        // Each vector holds one |0> and one |1> amplitude: scale both
        // and mask the dropped one to +0.0.
        const __m256d keep =
            _mm256_castsi256_pd(outcome ? _mm256_setr_epi64x(0, 0, -1, -1)
                                        : _mm256_setr_epi64x(-1, -1, 0, 0));
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            _mm256_storeu_pd(d + 2 * i,
                             _mm256_and_pd(_mm256_mul_pd(v, s), keep));
        }
        return;
    }
    const __m256d zero = _mm256_setzero_pd();
    const uint64_t keep = outcome ? bit : 0;
    if (bit < 8) {
        // Short runs: one loop over both keeps the trip count up.
        for (uint64_t base = 0; base < dim; base += 2 * bit) {
            double *kept = d + 2 * (base + keep);
            double *dropped = d + 2 * (base + bit - keep);
            for (uint64_t i = 0; i < 2 * bit; i += 4) {
                _mm256_storeu_pd(
                    kept + i, _mm256_mul_pd(_mm256_loadu_pd(kept + i), s));
                _mm256_storeu_pd(dropped + i, zero);
            }
        }
        return;
    }
    // Long runs: walk each block's two runs one after the other, in
    // address order; storing to both in one loop measured up to 2x
    // slower from runs of 16 amplitudes up.
    for (uint64_t base = 0; base < dim; base += bit) {
        double *run = d + 2 * base;
        if ((base & bit) == keep) {
            for (uint64_t i = 0; i < 2 * bit; i += 4)
                _mm256_storeu_pd(
                    run + i, _mm256_mul_pd(_mm256_loadu_pd(run + i), s));
        } else {
            for (uint64_t i = 0; i < 2 * bit; i += 4)
                _mm256_storeu_pd(run + i, zero);
        }
    }
}

/**
 * scalarSwapRuns with 256-bit moves.  Runs of one amplitude (one
 * qubit is 0) swap as single 128-bit amplitudes: blending them into
 * 256-bit vectors rewrites the unchanged neighbours too and measured
 * 10-30% slower.
 */
DENSE_AVX2 void
avx2SwapRuns(Complex *amps, uint64_t dim, uint64_t lo, uint64_t hi,
             uint64_t off_a, uint64_t off_b)
{
    auto *d = reinterpret_cast<double *>(amps);
    if (lo == 1) {
        for (uint64_t a = 0; a < dim; a += 2 * hi) {
            for (uint64_t b = a; b < a + hi; b += 2) {
                double *x = d + 2 * (b + off_a);
                double *y = d + 2 * (b + off_b);
                const __m128d vx = _mm_loadu_pd(x);
                const __m128d vy = _mm_loadu_pd(y);
                _mm_storeu_pd(x, vy);
                _mm_storeu_pd(y, vx);
            }
        }
        return;
    }
    for (uint64_t a = 0; a < dim; a += 2 * hi) {
        for (uint64_t b = a; b < a + hi; b += 2 * lo) {
            double *x = d + 2 * (b + off_a);
            double *y = d + 2 * (b + off_b);
            for (uint64_t i = 0; i < 2 * lo; i += 4) {
                const __m256d vx = _mm256_loadu_pd(x + i);
                const __m256d vy = _mm256_loadu_pd(y + i);
                _mm256_storeu_pd(x + i, vy);
                _mm256_storeu_pd(y + i, vx);
            }
        }
    }
}

DENSE_AVX2 void
avx2ApplyCX(Complex *amps, uint64_t dim, QubitId control, QubitId target)
{
    const uint64_t cbit = uint64_t{1} << control;
    const uint64_t tbit = uint64_t{1} << target;
    if (tbit != 1) {
        avx2SwapRuns(amps, dim, std::min(cbit, tbit),
                     std::max(cbit, tbit), cbit, cbit | tbit);
        return;
    }
    // Target 0: each control-set vector swaps its two halves.
    auto *d = reinterpret_cast<double *>(amps);
    for (uint64_t base = cbit; base < dim; base += 2 * cbit) {
        for (uint64_t i = base; i < base + cbit; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            _mm256_storeu_pd(d + 2 * i, _mm256_permute2f128_pd(v, v, 0x01));
        }
    }
}

DENSE_AVX2 void
avx2ApplySwap(Complex *amps, uint64_t dim, QubitId a, QubitId b)
{
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    avx2SwapRuns(amps, dim, std::min(abit, bbit), std::max(abit, bbit),
                 abit, bbit);
}

#undef DENSE_AVX2

const dense::KernelSet kAvx2Kernels{
    "avx2",            avx2Apply1Q,     avx2ApplyPhase,
    avx2PopulationOne, avx2Populations, avx2Collapse,
    avx2ApplyCX,       avx2ApplySwap};

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
    Complex *amps = amps_.data();
    // Copy each |1>_q amplitude onto its |0>_q partner and sum the
    // moved weights in norm()'s lanes as they land; the collapse then
    // zeroes the |1>_q half and rescales the moved one.
    Lanes moved;
    if (bit == 1) {
        for (uint64_t i = 0; i < dim; i += 2) {
            amps[i] = amps[i + 1];
            moved.addEven(amps[i]);
        }
    } else {
        for (uint64_t base = 0; base < dim; base += 2 * bit) {
            std::copy_n(amps + base + bit, bit, amps + base);
            moved.addPairs(amps + base, bit);
        }
    }
    collapseTo(q, false, moved.fold());
}

void
StateVector::applyCX(QubitId control, QubitId target)
{
    touch();
    dense::activeKernels().applyCX(amps_.data(), amps_.size(), control,
                                   target);
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
    dense::activeKernels().applySwap(amps_.data(), amps_.size(), a, b);
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
StateVector::collapseTo(QubitId q, bool outcome, double kept)
{
    touch();
    const double n = std::sqrt(kept);
    require(n > 1e-300, "cannot normalize a zero state");
    dense::activeKernels().collapse(amps_.data(), amps_.size(), q,
                                    outcome, 1.0 / n);
    return outcome;
}

bool
StateVector::measureCollapse(QubitId q, Rng &rng)
{
    const dense::Populations p =
        dense::activeKernels().populations(amps_.data(), amps_.size(), q);
    const bool outcome = rng.bernoulli(p.p1);
    return collapseTo(q, outcome, outcome ? p.p1 : p.p0);
}

bool
StateVector::measureCollapse(QubitId q, double uniform_draw)
{
    const dense::Populations p =
        dense::activeKernels().populations(amps_.data(), amps_.size(), q);
    const bool outcome = uniform_draw < p.p1;
    return collapseTo(q, outcome, outcome ? p.p1 : p.p0);
}

double
StateVector::norm() const
{
    Lanes sum;
    sum.addPairs(amps_.data(), amps_.size());
    return std::sqrt(sum.fold());
}

void
StateVector::normalize()
{
    touch();
    const double n = norm();
    require(n > 1e-300, "cannot normalize a zero state");
    const double inv = 1.0 / n;
    for (Complex &a : amps_)
        a = {a.real() * inv, a.imag() * inv};
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
