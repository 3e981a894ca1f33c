/**
 * @file
 * The dense state-vector hot kernels behind StateVector, as
 * interchangeable sets chosen once per process.
 *
 * Every x86-64 build carries both the portable scalar bodies and
 * explicit AVX2 bodies (compiled with a per-function target
 * attribute, without FMA); the AVX2 set is used when the CPU reports
 * AVX2.  Both sets perform the same floating-point operations in the
 * same order — populationOne included, which sums into four fixed
 * accumulators on every ISA — so which set runs never changes a
 * result bit.  Private to the simulator; exposed for the
 * kernel-equivalence tests and the kernel microbenchmarks.
 */

#ifndef ADAPT_SIM_DENSE_KERNELS_HH
#define ADAPT_SIM_DENSE_KERNELS_HH

#include <cstdint>

#include "common/matrix2.hh"
#include "common/types.hh"

namespace adapt::dense
{

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
