/**
 * @file
 * The dense state-vector hot kernels behind StateVector, as
 * interchangeable sets chosen once per process.
 *
 * Every x86-64 build carries both the portable scalar bodies and
 * explicit AVX2 bodies (compiled with a per-function target
 * attribute, without FMA); the AVX2 set is used when the CPU reports
 * AVX2.  Both sets perform the same floating-point operations in the
 * same order, so which set runs never changes a result bit:
 *  - apply1Q and applyPhase write complex products as explicit real
 *    arithmetic on both sets;
 *  - populationOne and populations sum |a|^2 into four fixed lanes
 *    (re^2 and im^2 of the even and of the odd member of each aligned
 *    index pair, each in ascending index order) and fold them as
 *    ((l0 + l1) + l2) + l3 — the order StateVector::norm() sums in;
 *  - collapse multiplies each kept amplitude's parts by one scale;
 *  - applyCX and applySwap are permutations and make no floating-point
 *    operation at all (the AVX2 bodies move whole runs of amplitudes
 *    with vector loads and stores).
 * Private to the simulator; exposed for the kernel-equivalence tests
 * and the kernel microbenchmarks.
 */

#ifndef ADAPT_SIM_DENSE_KERNELS_HH
#define ADAPT_SIM_DENSE_KERNELS_HH

#include <cstdint>

#include "common/matrix2.hh"
#include "common/types.hh"

namespace adapt::dense
{

/** Squared norms of the |0>_q and the |1>_q half of a state. */
struct Populations
{
    double p0;
    double p1;
};

/** One implementation of each dense hot kernel over a raw amplitude
 *  array of @p dim = 2^n entries (qubit 0 is the low index bit). */
struct KernelSet
{
    /** "avx2" or "scalar". */
    const char *isa;
    /** amps <- (u on qubit q) amps. */
    void (*apply1Q)(Complex *amps, uint64_t dim, const Matrix2 &u,
                    QubitId q);
    /** Multiply every |1>_q amplitude by @p factor. */
    void (*applyPhase)(Complex *amps, uint64_t dim, QubitId q,
                       Complex factor);
    /** Sum of |a|^2 over the |1>_q amplitudes. */
    double (*populationOne)(const Complex *amps, uint64_t dim,
                            QubitId q);
    /** Both halves' sums in one pass; p1 has populationOne's bits. */
    Populations (*populations)(const Complex *amps, uint64_t dim,
                               QubitId q);
    /** Zero every amplitude whose q bit is not @p outcome and multiply
     *  the others by @p scale (the measurement collapse). */
    void (*collapse)(Complex *amps, uint64_t dim, QubitId q,
                     bool outcome, double scale);
    /** Swap each |1>_c|0>_t amplitude with its |1>_c|1>_t partner.
     *  @pre control != target. */
    void (*applyCX)(Complex *amps, uint64_t dim, QubitId control,
                    QubitId target);
    /** Swap each |1>_a|0>_b amplitude with its |0>_a|1>_b partner.
     *  @pre a != b. */
    void (*applySwap)(Complex *amps, uint64_t dim, QubitId a, QubitId b);
};

/** The portable kernels (always available). */
const KernelSet &scalarKernels();

/** The AVX2 kernels, or nullptr when this binary has none or the CPU
 *  does not support AVX2. */
const KernelSet *avx2Kernels();

/** The set StateVector uses: AVX2 when available, else scalar. */
const KernelSet &activeKernels();

} // namespace adapt::dense

#endif // ADAPT_SIM_DENSE_KERNELS_HH
