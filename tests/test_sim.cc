/**
 * @file
 * Tests for the simulators: state-vector gate semantics and sampling,
 * stabilizer tableau correctness, and cross-backend agreement on
 * random Clifford circuits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/dense_kernels.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"
#include "test_util.hh"

using namespace adapt;
using adapt::testutil::tvDistance;

// ----------------------------------------------------------- StateVector

TEST(StateVec, StartsInGroundState)
{
    StateVector s(3);
    EXPECT_NEAR(std::abs(s.amplitude(0) - Complex(1, 0)), 0.0, 1e-12);
    EXPECT_NEAR(s.probability(5), 0.0, 1e-12);
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVec, HadamardMakesUniformSuperposition)
{
    StateVector s(1);
    s.apply1Q(gateMatrix(GateType::H), 0);
    EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.5, 1e-12);
}

TEST(StateVec, BellStateCorrelations)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::H), 0);
    s.applyCX(0, 1);
    EXPECT_NEAR(s.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(0b01), 0.0, 1e-12);
    EXPECT_NEAR(s.probability(0b10), 0.0, 1e-12);
}

TEST(StateVec, CxRespectsControl)
{
    StateVector s(2);
    s.applyCX(0, 1); // control |0>: no-op
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.applyCX(0, 1); // control |1>: flips target
    EXPECT_NEAR(s.probability(0b11), 1.0, 1e-12);
}

TEST(StateVec, SwapExchangesQubits)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.applySwap(0, 1);
    EXPECT_NEAR(s.probability(0b10), 1.0, 1e-12);
}

TEST(StateVec, CzPhasesOnlyOneOne)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::H), 0);
    s.apply1Q(gateMatrix(GateType::H), 1);
    s.applyCZ(0, 1);
    // |11> amplitude must be negative, all same magnitude.
    EXPECT_NEAR(s.amplitude(3).real(), -0.5, 1e-12);
    EXPECT_NEAR(s.amplitude(0).real(), 0.5, 1e-12);
}

TEST(StateVec, ApplyPhaseEqualsRz)
{
    StateVector a(2), b(2);
    a.apply1Q(gateMatrix(GateType::H), 1);
    b.apply1Q(gateMatrix(GateType::H), 1);
    a.applyPhase(1, 0.73);
    b.apply1Q(gateMatrix(GateType::RZ, {0.73}), 1);
    for (uint64_t i = 0; i < 4; i++) {
        // Equal up to the RZ global phase e^{-i 0.73/2}.
        const Complex ratio =
            b.amplitude(i) != Complex{}
                ? a.amplitude(i) / b.amplitude(i)
                : Complex{1.0, 0.0};
        EXPECT_NEAR(std::abs(ratio), 1.0, 1e-9);
    }
    EXPECT_NEAR(a.populationOne(1), b.populationOne(1), 1e-12);
}

TEST(StateVec, PopulationOne)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::RY, {kPi / 3.0}), 0);
    EXPECT_NEAR(s.populationOne(0), std::pow(std::sin(kPi / 6.0), 2),
                1e-12);
    EXPECT_NEAR(s.populationOne(1), 0.0, 1e-12);
}

TEST(StateVec, SampleMatchesProbabilities)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::RY, {2.0 * kPi / 3.0}), 0);
    Rng rng(3);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        ones += (s.sample(rng) & 1) != 0;
    EXPECT_NEAR(static_cast<double>(ones) / n, s.populationOne(0),
                0.02);
}

TEST(StateVec, MeasureCollapseProjects)
{
    Rng rng(4);
    int ones = 0;
    for (int trial = 0; trial < 500; trial++) {
        StateVector s(2);
        s.apply1Q(gateMatrix(GateType::H), 0);
        s.applyCX(0, 1);
        const bool first = s.measureCollapse(0, rng);
        const bool second = s.measureCollapse(1, rng);
        EXPECT_EQ(first, second); // Bell correlations survive collapse
        ones += first;
    }
    EXPECT_NEAR(ones / 500.0, 0.5, 0.08);
}

TEST(StateVec, AmplitudeDampingDecaysExcitedState)
{
    Rng rng(5);
    const double gamma = 0.4;
    int decayed = 0;
    const int n = 4000;
    for (int i = 0; i < n; i++) {
        StateVector s(1);
        s.apply1Q(gateMatrix(GateType::X), 0);
        s.applyAmplitudeDamping(0, gamma, rng);
        decayed += s.populationOne(0) < 0.5;
    }
    EXPECT_NEAR(static_cast<double>(decayed) / n, gamma, 0.03);
}

TEST(StateVec, AmplitudeDampingPreservesGroundState)
{
    Rng rng(6);
    StateVector s(1);
    s.applyAmplitudeDamping(0, 0.9, rng);
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
}

TEST(StateVec, DecayJumpResetsQubit)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.apply1Q(gateMatrix(GateType::H), 1);
    s.applyDecayJump(0);
    EXPECT_NEAR(s.populationOne(0), 0.0, 1e-12);
    EXPECT_NEAR(s.populationOne(1), 0.5, 1e-12); // untouched
}

TEST(StateVec, RejectsOversizedRegisters)
{
    EXPECT_THROW(StateVector(40), UsageError);
}

// ---------------------------------------------------------- dense kernels

namespace
{

/** Register sizes the kernel checks sweep: both AVX2 branch shapes
 *  (q = 0 and strided) and the 1-qubit edge. */
constexpr int kKernelSizes[] = {1, 2, 3, 5, 8};

std::vector<Complex>
randomAmplitudes(int n, Rng &rng)
{
    std::vector<Complex> amps(size_t{1} << n);
    for (Complex &a : amps)
        a = Complex(rng.normal(), rng.normal());
    return amps;
}

Matrix2
randomUnitary(Rng &rng)
{
    return gateMatrix(GateType::RZ, {rng.uniform(-kPi, kPi)}) *
           gateMatrix(GateType::RY, {rng.uniform(-kPi, kPi)}) *
           gateMatrix(GateType::RZ, {rng.uniform(-kPi, kPi)}) *
           std::polar(1.0, rng.uniform(-kPi, kPi));
}

bool
sameBits(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) ==
               0;
}

/** A normalized random StateVector (and its amplitudes). */
StateVector
randomState(int n, Rng &rng)
{
    const std::vector<Complex> amps = randomAmplitudes(n, rng);
    StateVector s(n);
    s.setAmplitudes(amps.data(), amps.size());
    s.normalize();
    return s;
}

std::vector<Complex>
amplitudesOf(const StateVector &s)
{
    return {s.data(), s.data() + s.dim()};
}

/** normalize() of @p amps, the unfused reference tail. */
std::vector<Complex>
normalized(int n, const std::vector<Complex> &amps)
{
    StateVector ref(n);
    ref.setAmplitudes(amps.data(), amps.size());
    ref.normalize();
    return amplitudesOf(ref);
}

} // namespace

TEST(DenseKernels, ActiveSetIsAvx2WhenTheCpuHasIt)
{
    const dense::KernelSet *avx2 = dense::avx2Kernels();
    EXPECT_EQ(&dense::activeKernels(),
              avx2 != nullptr ? avx2 : &dense::scalarKernels());
    EXPECT_STREQ(denseKernelIsa(), dense::activeKernels().isa);
}

TEST(DenseKernels, ScalarAndAvx2AreBitIdentical)
{
    const dense::KernelSet *avx2 = dense::avx2Kernels();
    if (avx2 == nullptr)
        GTEST_SKIP() << "no AVX2 kernels on this CPU";
    const dense::KernelSet &scalar = dense::scalarKernels();
    Rng rng(11);
    for (const int n : kKernelSizes) {
        const uint64_t dim = uint64_t{1} << n;
        for (QubitId q = 0; q < n; q++) {
            for (int trial = 0; trial < 4; trial++) {
                const std::vector<Complex> start =
                    randomAmplitudes(n, rng);
                const Matrix2 u = randomUnitary(rng);
                const Complex factor =
                    std::exp(kImag * rng.uniform(-kPi, kPi));

                std::vector<Complex> a = start, b = start;
                scalar.apply1Q(a.data(), dim, u, q);
                avx2->apply1Q(b.data(), dim, u, q);
                EXPECT_TRUE(sameBits(a, b))
                    << "apply1Q n=" << n << " q=" << q;

                scalar.applyPhase(a.data(), dim, q, factor);
                avx2->applyPhase(b.data(), dim, q, factor);
                EXPECT_TRUE(sameBits(a, b))
                    << "applyPhase n=" << n << " q=" << q;

                const double pa = scalar.populationOne(a.data(), dim, q);
                const double pb = avx2->populationOne(a.data(), dim, q);
                EXPECT_EQ(std::memcmp(&pa, &pb, sizeof pa), 0)
                    << "populationOne n=" << n << " q=" << q;
            }
        }
    }
}

TEST(StateVec, FusedCollapseMatchesZeroThenNormalize)
{
    Rng rng(12);
    for (const int n : kKernelSizes) {
        for (QubitId q = 0; q < n; q++) {
            for (const bool outcome : {false, true}) {
                StateVector s = randomState(n, rng);
                std::vector<Complex> ref = amplitudesOf(s);
                const uint64_t bit = uint64_t{1} << q;
                for (uint64_t i = 0; i < ref.size(); i++) {
                    if (((i & bit) != 0) != outcome)
                        ref[i] = 0.0;
                }
                // A draw below every p1 forces outcome 1, above every
                // p1 outcome 0.
                EXPECT_EQ(s.measureCollapse(q, outcome ? -1.0 : 2.0),
                          outcome);
                EXPECT_TRUE(sameBits(amplitudesOf(s), normalized(n, ref)))
                    << "collapse n=" << n << " q=" << q
                    << " outcome=" << outcome;
            }
        }
    }
}

TEST(StateVec, FusedDecayJumpMatchesMoveThenNormalize)
{
    Rng rng(13);
    for (const int n : kKernelSizes) {
        for (QubitId q = 0; q < n; q++) {
            StateVector s = randomState(n, rng);
            std::vector<Complex> ref = amplitudesOf(s);
            const uint64_t bit = uint64_t{1} << q;
            for (uint64_t i = 0; i < ref.size(); i++) {
                if ((i & bit) != 0) {
                    ref[i & ~bit] = ref[i];
                    ref[i] = 0.0;
                }
            }
            s.applyDecayJump(q);
            EXPECT_TRUE(sameBits(amplitudesOf(s), normalized(n, ref)))
                << "decay jump n=" << n << " q=" << q;
        }
    }
}

// ------------------------------------------------------ idealDistribution

TEST(IdealDistribution, GhzOutput)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.measureAll();
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b000), 0.5, 1e-12);
    EXPECT_NEAR(d.probability(0b111), 0.5, 1e-12);
    EXPECT_EQ(d.support(), 2u);
}

TEST(IdealDistribution, ClbitRemapping)
{
    Circuit c(2, 2);
    c.x(0);
    c.measure(0, 1); // qubit 0 -> classical bit 1
    c.measure(1, 0);
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b10), 1.0, 1e-12);
}

TEST(IdealDistribution, RestrictionIgnoresIdleQubits)
{
    // 24-qubit register, only 2 active: must not allocate 2^24.
    Circuit c(24, 2);
    c.h(20);
    c.cx(20, 21);
    c.measure(20, 0);
    c.measure(21, 1);
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(d.probability(0b11), 0.5, 1e-12);
}

TEST(IdealDistribution, RequiresMeasurement)
{
    Circuit c(1);
    c.h(0);
    EXPECT_THROW(idealDistribution(c), UsageError);
}

// ------------------------------------------------------------ Stabilizer

TEST(Stabilizer, DeterministicGroundStateMeasurement)
{
    StabilizerState s(3);
    Rng rng(1);
    EXPECT_TRUE(s.isDeterministic(0));
    EXPECT_FALSE(s.measure(0, rng));
    EXPECT_FALSE(s.measure(2, rng));
}

TEST(Stabilizer, XFlipsMeasurement)
{
    StabilizerState s(2);
    Rng rng(2);
    s.applyX(1);
    EXPECT_FALSE(s.measure(0, rng));
    EXPECT_TRUE(s.measure(1, rng));
}

TEST(Stabilizer, HadamardRandomizesOutcome)
{
    Rng rng(3);
    int ones = 0;
    for (int i = 0; i < 2000; i++) {
        StabilizerState s(1);
        s.applyH(0);
        EXPECT_FALSE(s.isDeterministic(0));
        ones += s.measure(0, rng);
    }
    EXPECT_NEAR(ones / 2000.0, 0.5, 0.04);
}

TEST(Stabilizer, MeasurementCollapses)
{
    Rng rng(4);
    for (int i = 0; i < 100; i++) {
        StabilizerState s(1);
        s.applyH(0);
        const bool first = s.measure(0, rng);
        // Re-measurement must be deterministic and equal.
        EXPECT_TRUE(s.isDeterministic(0));
        EXPECT_EQ(s.measure(0, rng), first);
    }
}

TEST(Stabilizer, BellPairCorrelations)
{
    Rng rng(5);
    int ones = 0;
    for (int i = 0; i < 2000; i++) {
        StabilizerState s(2);
        s.applyH(0);
        s.applyCX(0, 1);
        const bool a = s.measure(0, rng);
        const bool b = s.measure(1, rng);
        EXPECT_EQ(a, b);
        ones += a;
    }
    EXPECT_NEAR(ones / 2000.0, 0.5, 0.04);
}

TEST(Stabilizer, SGateTurnsXIntoY)
{
    // |+> -S-> |+i>: measuring in Z stays uniform; applying Sdg H
    // brings it back to |0>... verify via the full sequence.
    Rng rng(6);
    for (int i = 0; i < 50; i++) {
        StabilizerState s(1);
        s.applyH(0);
        s.applyS(0);
        s.applySdg(0);
        s.applyH(0);
        EXPECT_FALSE(s.measure(0, rng));
    }
}

TEST(Stabilizer, SxMatchesDefinition)
{
    // SX^2 = X: |0> -SX-SX-> |1>.
    Rng rng(7);
    StabilizerState s(1);
    s.applySX(0);
    s.applySX(0);
    EXPECT_TRUE(s.measure(0, rng));

    StabilizerState t(1);
    t.applySX(0);
    t.applySXdg(0);
    EXPECT_FALSE(t.measure(0, rng));
}

TEST(Stabilizer, WideRegistersWork)
{
    // 100-qubit GHZ: the Table 2 scalability case.
    Rng rng(8);
    StabilizerState s(100);
    s.applyH(0);
    for (int q = 0; q + 1 < 100; q++)
        s.applyCX(q, q + 1);
    const bool first = s.measure(0, rng);
    for (int q = 1; q < 100; q++)
        EXPECT_EQ(s.measure(q, rng), first);
}

TEST(Stabilizer, RejectsNonCliffordGate)
{
    StabilizerState s(1);
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {0.3}}), UsageError);
}

// ----------------------------------------- statevector <-> stabilizer

namespace
{

/** Random Clifford circuit over n qubits with terminal measurement. */
Circuit
randomCliffordCircuit(int n, int depth, Rng &rng)
{
    Circuit c(n);
    for (int layer = 0; layer < depth; layer++) {
        const int choice = static_cast<int>(rng.uniformInt(7));
        const auto q =
            static_cast<QubitId>(rng.uniformInt(
                static_cast<uint64_t>(n)));
        switch (choice) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.x(q); break;
          case 3: c.sx(q); break;
          case 4: c.sdg(q); break;
          case 5: c.z(q); break;
          default: {
            auto q2 = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(n)));
            if (q2 == q)
                q2 = (q + 1) % n;
            c.cx(q, q2);
            break;
          }
        }
    }
    c.measureAll();
    return c;
}

} // namespace

/** Property test: tableau sampling agrees with the exact dense
 *  distribution on random Clifford circuits. */
class CliffordAgreementTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CliffordAgreementTest, SampledMatchesExact)
{
    Rng rng(9000 + GetParam());
    const Circuit c = randomCliffordCircuit(4, 40, rng);
    const Distribution exact = idealDistribution(c);
    Rng sample_rng(77 + GetParam());
    const Distribution sampled = cliffordSample(c, 6000, sample_rng);
    EXPECT_LT(tvDistance(exact, sampled), 0.06);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, CliffordAgreementTest,
                         ::testing::Range(0, 12));

TEST(CliffordSample, RejectsNonClifford)
{
    Circuit c(1);
    c.t(0);
    c.measureAll();
    Rng rng(1);
    EXPECT_THROW(cliffordSample(c, 10, rng), UsageError);
}

TEST(CliffordSample, HandlesCliffordRotations)
{
    Circuit c(2);
    c.rz(kPi / 2.0, 0);
    c.rx(kPi, 0);
    c.ry(kPi / 2.0, 1);
    c.measureAll();
    const Distribution exact = idealDistribution(c);
    Rng rng(11);
    const Distribution sampled = cliffordSample(c, 4000, rng);
    EXPECT_LT(tvDistance(exact, sampled), 0.06);
}

// ------------------------------------------- tableau property tests

namespace
{

/** Drive a tableau into a random stabilizer state. */
void
randomizeTableau(StabilizerState &s, int gates, Rng &rng)
{
    const int n = s.numQubits();
    for (int i = 0; i < gates; i++) {
        const auto q = static_cast<QubitId>(
            rng.uniformInt(static_cast<uint64_t>(n)));
        switch (rng.uniformInt(6)) {
          case 0: s.applyH(q); break;
          case 1: s.applyS(q); break;
          case 2: s.applyX(q); break;
          case 3: s.applySX(q); break;
          case 4: s.applySdg(q); break;
          default: {
            if (n < 2)
                break;
            auto q2 = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(n)));
            if (q2 == q)
                q2 = (q + 1) % n;
            s.applyCX(q, q2);
            break;
          }
        }
    }
}

} // namespace

/** Generator identities must hold exactly at the representation
 *  level on random tableaus, including wide multi-word registers. */
class TableauIdentityTest : public ::testing::TestWithParam<int>
{
  protected:
    /** Widths cross the 64-qubit word boundary on the last cases. */
    int
    width() const
    {
        const int widths[] = {1, 2, 5, 8, 64, 65, 100};
        return widths[GetParam() % 7];
    }

    StabilizerState
    randomState() const
    {
        StabilizerState s(width());
        Rng rng(4200 + GetParam());
        randomizeTableau(s, 40 + 8 * width(), rng);
        return s;
    }
};

TEST_P(TableauIdentityTest, HTwiceIsIdentity)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() - 1; // last qubit: top word
    s.applyH(q);
    EXPECT_FALSE(s == reference);
    s.applyH(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, SFourTimesIsIdentity)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() / 2;
    for (int i = 0; i < 4; i++)
        s.applyS(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, SdgUndoesSAndSXdgUndoesSX)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() - 1;
    s.applyS(q);
    s.applySdg(q);
    EXPECT_TRUE(s == reference);
    s.applySX(q);
    s.applySXdg(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, PauliConjugationThroughCx)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    // CX (X_c ⊗ I) = (X_c ⊗ X_t) CX  and  CX (I ⊗ Z_t) = (Z_c ⊗ Z_t) CX.
    const QubitId c = 0, t = width() - 1; // spans the word boundary
    StabilizerState a = randomState();
    StabilizerState b = a;

    a.applyX(c);
    a.applyCX(c, t);
    b.applyCX(c, t);
    b.applyX(c);
    b.applyX(t);
    EXPECT_TRUE(a == b);

    a.applyZ(t);
    a.applyCX(c, t);
    b.applyCX(c, t);
    b.applyZ(c);
    b.applyZ(t);
    EXPECT_TRUE(a == b);
}

TEST_P(TableauIdentityTest, CzIsSymmetricAndSelfInverse)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    const QubitId p = 0, q = width() - 1;
    StabilizerState a = randomState();
    StabilizerState b = a;
    const StabilizerState reference = a;

    a.applyCZ(p, q);
    b.applyCZ(q, p);
    EXPECT_TRUE(a == b);
    a.applyCZ(p, q);
    EXPECT_TRUE(a == reference);
}

TEST_P(TableauIdentityTest, SwapConjugatesOperands)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    // Swap(a,b) X_a = X_b Swap(a,b), and Swap is self-inverse.
    const QubitId p = 0, q = width() - 1;
    StabilizerState a = randomState();
    StabilizerState b = a;
    const StabilizerState reference = a;

    a.applyX(p);
    a.applySwap(p, q);
    b.applySwap(p, q);
    b.applyX(q);
    EXPECT_TRUE(a == b);

    a.applySwap(p, q); // cancels the first swap, leaving X_p
    a.applyX(p);       // undo
    a.applySwap(p, q);
    a.applySwap(p, q);
    EXPECT_TRUE(a == reference);
}

TEST_P(TableauIdentityTest, IsDeterministicConsistentWithMeasure)
{
    StabilizerState s = randomState();
    Rng rng(77 + GetParam());
    for (QubitId q = 0; q < width(); q++) {
        const bool deterministic = s.isDeterministic(q);
        const double p1 = s.populationOne(q);
        EXPECT_EQ(deterministic, p1 == 0.0 || p1 == 1.0);
        const bool first = s.measure(q, rng);
        if (deterministic)
            EXPECT_EQ(first, p1 == 1.0);
        // After any measurement the qubit is collapsed: repeated
        // measurement is deterministic and repeatable.
        EXPECT_TRUE(s.isDeterministic(q));
        EXPECT_EQ(s.measure(q, rng), first);
        EXPECT_EQ(s.populationOne(q), first ? 1.0 : 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTableaus, TableauIdentityTest,
                         ::testing::Range(0, 14));

TEST(StabilizerWide, WordBoundaryEntanglement)
{
    // Bell pairs straddling the 64-qubit word boundary must show
    // exact correlations, exercising the multi-word bit packing.
    Rng rng(9);
    for (const auto &[a, b] : std::initializer_list<
             std::pair<QubitId, QubitId>>{{63, 64}, {0, 99}, {62, 65}}) {
        for (int trial = 0; trial < 20; trial++) {
            StabilizerState s(100);
            s.applyH(a);
            s.applyCX(a, b);
            EXPECT_EQ(s.measure(a, rng), s.measure(b, rng));
        }
    }
}

TEST(StabilizerWide, PostselectForcesOutcome)
{
    StabilizerState s(100);
    s.applyH(64);
    s.postselect(64, true);
    Rng rng(10);
    EXPECT_TRUE(s.isDeterministic(64));
    EXPECT_TRUE(s.measure(64, rng));
    // Postselecting the impossible branch of a collapsed qubit throws.
    EXPECT_THROW(s.postselect(64, false), UsageError);
}

TEST(StabilizerWide, ResetRestoresGroundState)
{
    StabilizerState s(70);
    Rng rng(11);
    randomizeTableau(s, 300, rng);
    s.reset();
    EXPECT_TRUE(s == StabilizerState(70));
    for (QubitId q = 0; q < 70; q++)
        EXPECT_EQ(s.populationOne(q), 0.0);
}

// -------------------------------------- non-Clifford angle rejection

TEST(StabilizerRejection, NonQuarterRotationAnglesThrow)
{
    StabilizerState s(1);
    // Regression: near-Clifford angles must throw, never be silently
    // rounded onto the group.
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {0.3}}), UsageError);
    EXPECT_THROW(s.applyGate({GateType::RX, {0}, {kPi / 2.0 + 1e-5}}),
                 UsageError);
    EXPECT_THROW(s.applyGate({GateType::RY, {0}, {kPi / 4.0}}),
                 UsageError);
    EXPECT_THROW(s.applyGate({GateType::U1, {0}, {1.0}}), UsageError);
    EXPECT_THROW(
        s.applyGate({GateType::U3, {0}, {kPi / 2.0 + 1e-5, 0.0, 0.0}}),
        UsageError);
    EXPECT_THROW(s.applyGate({GateType::T, {0}}), UsageError);
}

TEST(StabilizerRejection, NonFiniteAnglesThrow)
{
    StabilizerState s(1);
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {nan}}), UsageError);
    EXPECT_THROW(s.applyGate({GateType::RX, {0}, {inf}}), UsageError);
    EXPECT_FALSE(isCliffordAngle(nan));
    EXPECT_FALSE(isCliffordAngle(inf));
}

TEST(StabilizerRejection, ExactQuarterTurnsStillApply)
{
    // The rejection must not break legal Clifford rotations.
    Rng rng(12);
    StabilizerState s(1);
    s.applyGate({GateType::RX, {0}, {kPi}});
    EXPECT_TRUE(s.measure(0, rng));
    EXPECT_EQ(cliffordQuarterTurns(-kPi / 2.0), 3);
    EXPECT_EQ(cliffordQuarterTurns(4.0 * kPi), 0);
    // Angles within the documented 1e-9 quarter-turn tolerance count
    // as exact quarter turns.
    EXPECT_EQ(cliffordQuarterTurns(kPi / 2.0 + 1e-12), 1);
}
