/**
 * @file
 * Shot-execution throughput of the Monte-Carlo noise engine.
 *
 * The paper's every figure and table is an estimate over thousands of
 * noisy shots, so shots/second through NoisyMachine::run *is* the
 * repo's end-to-end speed.  This binary measures it on a 10-qubit
 * QAOA workload at 4096 shots per run — the acceptance workload for
 * the parallel engine — across thread counts (1 = the serial
 * baseline), plus the single-shot statevector kernels underneath.
 *
 * Since the compile-once rework it also records:
 *  - interpreted vs. compiled dense replay (ExecMode knob) at two
 *    scales: the decoy scale — QAOA-5 on ibmq_rome, bare and
 *    All-DD-padded, i.e. the non-Clifford seeded-decoy shape the
 *    ADAPT search executes by the thousands — and the full
 *    27-qubit-device QAOA-10 routing.  At the decoy scale the
 *    per-shot interpreter work (pulse-product composition, exp()
 *    noise constants, allocations) rivals the small state sweeps and
 *    compile-once replay is >= 2-3x faster (the PR's acceptance
 *    number, recorded in BENCH_pr4.json); on the 14-active-qubit
 *    routing the 2^14-amplitude sweeps dominate both paths and the
 *    gap narrows — that regime is what the SIMD kernels attack;
 *  - the checkpointed compiled replay's occupancy: the headline rows
 *    record the checkpointed shot count and no-error fraction next
 *    to the compiled speed, so a recorded number can be read against
 *    how many shots started from the reference (OU-phase and
 *    >12-qubit jobs replay from |0...0> and record zero checkpointed
 *    shots);
 *  - the batch frame engine on a 50q/100q T1 characterization;
 *  - one-time job preparation (plan lowering + compilation), to show
 *    amortization across shots;
 *  - the apply1Q / applyPhase / populationOne kernels at 2^16
 *    amplitudes, and applyCX and the measure (populations + collapse)
 *    at 2^5..2^16, timed for every kernel set the host can run (the
 *    portable scalar set always, the AVX2 set when the CPU has it)
 *    from one binary; the "simd" counter marks each row, and the
 *    banner names the set the shot-throughput rows ran.
 *
 * Thread count is the benchmark argument; 0 means auto
 * (ADAPT_NUM_THREADS or hardware concurrency).
 */

#include "bench_common.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "sim/dense_kernels.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"

using namespace adapt;

namespace
{

constexpr int kShots = 4096;

/** One shared device so transpilation and execution see the same
 *  calibration. */
const Device &
device()
{
    static const Device d = Device::ibmqToronto();
    return d;
}

/** The acceptance workload: QAOA-10 compiled for ibmq_toronto. */
const CompiledProgram &
program()
{
    static const CompiledProgram p =
        transpile(makeQaoa(10, QaoaGraph::A), device(),
                  device().calibration(0));
    return p;
}

const NoisyMachine &
machine()
{
    static const NoisyMachine m(device());
    return m;
}

/** The DD-heavy variant: every qubit XY4-padded (dense pulse
 *  trains), i.e. what ADAPT actually executes at scale. */
const ScheduledCircuit &
paddedSchedule()
{
    static const ScheduledCircuit s = insertDDAll(
        program().schedule, machine().calibration(), DDOptions{});
    return s;
}

/** Decoy-scale device + workload: a 5-qubit non-Clifford circuit on
 *  ibmq_rome, the shape (and state-vector size) of the seeded decoy
 *  circuits the ADAPT search scores by the thousands. */
const Device &
decoyDevice()
{
    static const Device d = Device::ibmqRome();
    return d;
}

const NoisyMachine &
decoyMachine()
{
    static const NoisyMachine m(decoyDevice());
    return m;
}

const ScheduledCircuit &
decoySchedule()
{
    static const ScheduledCircuit s =
        transpile(makeQaoa(5, QaoaGraph::A), decoyDevice(),
                  decoyDevice().calibration(0))
            .schedule;
    return s;
}

const ScheduledCircuit &
decoyPaddedSchedule()
{
    static const ScheduledCircuit s = insertDDAll(
        decoySchedule(), decoyMachine().calibration(), DDOptions{});
    return s;
}

/** Pauli-only decoy machine (gate/measure/T1/white-dephasing noise,
 *  OU drift off).  With no per-shot OU phases the whole event-free
 *  prefix is shot-invariant, so the job replays each shot from the
 *  reference checkpoints.
 *  (QAOA decoys are non-Clifford, so this config still runs the
 *  dense backend in production.) */
const NoisyMachine &
decoyPauliMachine()
{
    static const NoisyMachine m(decoyDevice(), 0,
                                NoiseFlags::pauliOnly());
    return m;
}

/** 1.0 for the AVX2 kernel set, 0.0 for scalar. */
double
simdFlag(const dense::KernelSet &kernels)
{
    return std::strcmp(kernels.isa, "avx2") == 0 ? 1.0 : 0.0;
}

void
runThroughput(benchmark::State &state, const NoisyMachine &m,
              const ScheduledCircuit &sched, ExecMode mode,
              int threads, int shots)
{
    const PreparedCircuit prepared =
        m.prepare(sched, BackendKind::Dense);
    uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.run(prepared, shots, ++seed, threads, mode));
    }
    state.SetItemsProcessed(state.iterations() * shots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * shots,
        benchmark::Counter::kIsRate);
    state.counters["simd"] = simdFlag(dense::activeKernels());
}

void
BM_ShotThroughput(benchmark::State &state)
{
    runThroughput(state, machine(), program().schedule,
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_ShotThroughputInterpreted(benchmark::State &state)
{
    runThroughput(state, machine(), program().schedule,
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

/** Fewer shots on the DD-padded 14-active-qubit pair: one iteration
 *  stays affordable in the CI smoke run. */
constexpr int kPaddedShots = 1024;

void
BM_ShotThroughputDD(benchmark::State &state)
{
    runThroughput(state, machine(), paddedSchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kPaddedShots);
}

void
BM_ShotThroughputDDInterpreted(benchmark::State &state)
{
    runThroughput(state, machine(), paddedSchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kPaddedShots);
}

void
BM_DecoyShotThroughput(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoySchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputInterpreted(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoySchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputDD(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoyPaddedSchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputDDInterpreted(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoyPaddedSchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

/** One-time job preparation (plan lowering + shot-program
 *  compilation) — the cost amortized over a job's shots. */
void
BM_PrepareCompile(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            machine().prepare(paddedSchedule(), BackendKind::Dense));
    }
}

/** Ideal-distribution path: fused 1Q gates + flat accumulation. */
void
BM_IdealDistribution(benchmark::State &state)
{
    const Circuit &physical = program().physical;
    for (auto _ : state)
        benchmark::DoNotOptimize(idealDistribution(physical));
}

/** An @p n-qubit register in the uniform superposition. */
std::vector<Complex>
uniformAmplitudes(int n = 16)
{
    const size_t dim = size_t{1} << n;
    return std::vector<Complex>(
        dim, Complex(1.0 / std::sqrt(static_cast<double>(dim))));
}

/** Single-qubit kernel, stride-1 (q = 0) vs. strided (high qubit). */
void
BM_Apply1Q(benchmark::State &state, const dense::KernelSet *kernels)
{
    const auto q = static_cast<QubitId>(state.range(0));
    std::vector<Complex> amps = uniformAmplitudes();
    const Matrix2 h = gateMatrix(GateType::H);
    for (auto _ : state) {
        kernels->apply1Q(amps.data(), amps.size(), h, q);
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.counters["simd"] = simdFlag(*kernels);
}

/** Diagonal idle-phase kernel. */
void
BM_ApplyPhase(benchmark::State &state, const dense::KernelSet *kernels)
{
    const auto q = static_cast<QubitId>(state.range(0));
    std::vector<Complex> amps = uniformAmplitudes();
    const Complex factor = std::exp(kImag * 1e-3);
    for (auto _ : state) {
        kernels->applyPhase(amps.data(), amps.size(), q, factor);
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.counters["simd"] = simdFlag(*kernels);
}

/** Marginal-population reduction (measure + T1 jump hot path). */
void
BM_PopulationOne(benchmark::State &state,
                 const dense::KernelSet *kernels)
{
    const auto q = static_cast<QubitId>(state.range(0));
    const std::vector<Complex> amps = uniformAmplitudes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels->populationOne(amps.data(), amps.size(), q));
    }
    state.counters["simd"] = simdFlag(*kernels);
}

/** CX permutation; args are (qubits, control, target). */
void
BM_ApplyCX(benchmark::State &state, const dense::KernelSet *kernels)
{
    const auto control = static_cast<QubitId>(state.range(1));
    const auto target = static_cast<QubitId>(state.range(2));
    std::vector<Complex> amps =
        uniformAmplitudes(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        kernels->applyCX(amps.data(), amps.size(), control, target);
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.counters["simd"] = simdFlag(*kernels);
}

/**
 * One mid-circuit measure as StateVector makes it: the populations
 * pass, then the collapse pass.  Args are (qubits, q).  After the
 * first iteration the state is already collapsed, so later ones keep
 * the same branch with scale 1; the two sweeps cost the same.
 */
void
BM_Measure(benchmark::State &state, const dense::KernelSet *kernels)
{
    const auto q = static_cast<QubitId>(state.range(1));
    std::vector<Complex> amps =
        uniformAmplitudes(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const dense::Populations p =
            kernels->populations(amps.data(), amps.size(), q);
        const bool outcome = p.p1 >= p.p0;
        kernels->collapse(amps.data(), amps.size(), q, outcome,
                          1.0 / std::sqrt(outcome ? p.p1 : p.p0));
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.counters["simd"] = simdFlag(*kernels);
}

void
registerThroughput(const char *name,
                   void (*fn)(benchmark::State &),
                   bool thread_sweep)
{
    auto *bench = benchmark::RegisterBenchmark(name, fn);
    bench->Unit(benchmark::kMillisecond)->UseRealTime();
    bench->Arg(1); // serial baseline
    if (!thread_sweep)
        return;
    const int hw = defaultThreads();
    for (int t = 2; t <= hw; t *= 2)
        bench->Arg(t);
    if (hw > 1)
        bench->Arg(0); // auto
}

void
registerBenchmarks()
{
    registerThroughput("BM_ShotThroughput", BM_ShotThroughput, true);
    registerThroughput("BM_ShotThroughputInterpreted",
                       BM_ShotThroughputInterpreted, false);
    registerThroughput("BM_ShotThroughputDD", BM_ShotThroughputDD,
                       true);
    registerThroughput("BM_ShotThroughputDDInterpreted",
                       BM_ShotThroughputDDInterpreted, false);
    registerThroughput("BM_DecoyShotThroughput",
                       BM_DecoyShotThroughput, true);
    registerThroughput("BM_DecoyShotThroughputInterpreted",
                       BM_DecoyShotThroughputInterpreted, false);
    registerThroughput("BM_DecoyShotThroughputDD",
                       BM_DecoyShotThroughputDD, true);
    registerThroughput("BM_DecoyShotThroughputDDInterpreted",
                       BM_DecoyShotThroughputDDInterpreted, false);
    benchmark::RegisterBenchmark("BM_PrepareCompile",
                                 BM_PrepareCompile)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("BM_IdealDistribution",
                                 BM_IdealDistribution)
        ->Unit(benchmark::kMicrosecond);
    for (const dense::KernelSet *kernels :
         {&dense::scalarKernels(), dense::avx2Kernels()}) {
        if (kernels == nullptr)
            continue;
        const std::string isa = kernels->isa;
        for (auto *kernel :
             {benchmark::RegisterBenchmark(
                  ("BM_Apply1Q/" + isa).c_str(), BM_Apply1Q, kernels),
              benchmark::RegisterBenchmark(
                  ("BM_ApplyPhase/" + isa).c_str(), BM_ApplyPhase,
                  kernels),
              benchmark::RegisterBenchmark(
                  ("BM_PopulationOne/" + isa).c_str(),
                  BM_PopulationOne, kernels)}) {
            kernel->Arg(0)->Arg(15)->Unit(benchmark::kMicrosecond);
        }
        auto *cx = benchmark::RegisterBenchmark(
            ("BM_ApplyCX/" + isa).c_str(), BM_ApplyCX, kernels);
        auto *measure = benchmark::RegisterBenchmark(
            ("BM_Measure/" + isa).c_str(), BM_Measure, kernels);
        for (const int64_t n : {5, 8, 11, 14, 16}) {
            // Target 0, control 0, and two high qubits (long runs).
            cx->Args({n, 1, 0})->Args({n, 0, n - 1})->Args(
                {n, n - 1, n - 2});
            measure->Args({n, 0})->Args({n, n - 1});
        }
        cx->Unit(benchmark::kMicrosecond);
        measure->Unit(benchmark::kMicrosecond);
    }
}

/** Record one headline interpreted / compiled pair directly (the
 *  registered benchmarks re-measure the same points with more rigor;
 *  these rows make the BENCH_*.json record self-contained).  The
 *  compiled row also carries how many shots took the checkpointed
 *  replay and the fraction of those whose draw pass fired nothing,
 *  so a recorded speedup can be read against how much of the run
 *  started from the no-error reference. */
void
recordHeadline(const char *name, const NoisyMachine &m,
               const ScheduledCircuit &sched, int shots)
{
    const PreparedCircuit prepared =
        m.prepare(sched, BackendKind::Dense);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        m.run(prepared, shots, 7, 1, ExecMode::Interpreted));
    const auto t1 = std::chrono::steady_clock::now();
    DenseBatchStats stats;
    {
        const RunOutcome out = m.runPartial(prepared, shots, 7, 1,
                                            RunControl{});
        benchmark::DoNotOptimize(&out.dist);
        stats = out.denseStats;
    }
    const auto t2 = std::chrono::steady_clock::now();
    const double interpreted =
        std::chrono::duration<double>(t1 - t0).count() / shots;
    const double compiled =
        std::chrono::duration<double>(t2 - t1).count() / shots;

    benchio::Case &row =
        benchio::record(name)
            .metric("shots", shots)
            .metric("interpreted_ns_per_shot", interpreted * 1e9)
            .metric("compiled_ns_per_shot", compiled * 1e9)
            .metric("interpreted_shots_per_sec", 1.0 / interpreted)
            .metric("compiled_shots_per_sec", 1.0 / compiled)
            .metric("speedup_compiled_vs_interpreted",
                    interpreted / compiled);
    // Occupancy: zero checkpointed shots means the job was
    // ineligible (OU phases, or a register wider than
    // ShotReplayer::kMaxBatchQubits) and replayed every shot from
    // |0...0>.
    row.metric("checkpointed_shots", static_cast<double>(stats.shots))
        .metric("no_error_shot_fraction",
                stats.shots > 0
                    ? static_cast<double>(stats.noErrorShots) /
                          static_cast<double>(stats.shots)
                    : 0.0);
    std::printf("%-28s %9.0f ns/shot interpreted, %8.0f compiled "
                "(%.2fx), %5.1f%% checkpointed\n",
                name, interpreted * 1e9, compiled * 1e9,
                interpreted / compiled,
                100.0 * static_cast<double>(stats.shots) / shots);
}

/** Whole-device T1/idle characterization at width @p n — the frame
 *  engine's plane-bound shape (every qubit excited, idled, read
 *  out), the 50q/100q sweep workload. */
ScheduledCircuit
buildT1Characterization(const Device &device, int n)
{
    Circuit c(n);
    for (QubitId q = 0; q < n; q++) {
        c.x(q);
        c.delay(20000.0, q);
    }
    c.measureAll();
    return schedule(c, device.topology(), device.calibration(0),
                    ScheduleMode::Asap);
}

/** Seconds per shot of the batch frame engine on the whole-device
 *  T1 characterization at 50 and 100 qubits. */
void
recordFrameCharacterization()
{
    for (const int n : {50, 100}) {
        const Device device =
            Device::synthetic(Topology::linear(n), 200 + n);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const PreparedCircuit prepared = machine.prepare(
            buildT1Characterization(device, n),
            BackendKind::Stabilizer);
        const int shots = n <= 50 ? 1 << 13 : 1 << 12;
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(machine.run(prepared, shots, 7, 1));
        const auto t1 = std::chrono::steady_clock::now();
        const double sec =
            std::chrono::duration<double>(t1 - t0).count() / shots;
        benchio::record("frame_t1_characterization_" +
                        std::to_string(n) + "q")
            .metric("shots", shots)
            .metric("ns_per_shot", sec * 1e9)
            .metric("shots_per_sec", 1.0 / sec);
        std::printf("frame %3dq: %7.0f ns/shot (%d lanes per pass)\n",
                    n, sec * 1e9, kFrameLanes);
    }
}

void
runExperiment()
{
    benchio::open("shot_throughput",
                  "dense shot replay — interpreted vs compiled "
                  "(ns per shot and shots/sec, 1 thread, with "
                  "checkpoint occupancy) at decoy and device scale, "
                  "plus the frame engine at 50 and 100 qubits");
    banner("Shot throughput",
           "parallel Monte-Carlo engine, QAOA-10 on ibmq_toronto");
    std::printf("shots per run: %d, hardware threads: %u, "
                "ADAPT_NUM_THREADS resolves to %d\n",
                kShots, std::thread::hardware_concurrency(),
                defaultThreads());
    std::printf("dense kernels: %s; DD-padded variants carry %d "
                "(toronto) / %d (rome decoy-scale) DD pulses\n",
                denseKernelIsa(), ddPulseCount(paddedSchedule()),
                ddPulseCount(decoyPaddedSchedule()));
    recordHeadline("qaoa5_rome_decoy_scale", decoyMachine(),
                   decoySchedule(), kShots);
    recordHeadline("qaoa5_rome_decoy_scale_dd", decoyMachine(),
                   decoyPaddedSchedule(), kShots);
    // Same circuits with OU drift off (NoiseFlags::pauliOnly): the
    // only configuration of the two that takes the checkpointed
    // replay.
    recordHeadline("qaoa5_rome_decoy_scale_pauli",
                   decoyPauliMachine(), decoySchedule(), kShots);
    recordHeadline("qaoa5_rome_decoy_scale_dd_pauli",
                   decoyPauliMachine(), decoyPaddedSchedule(),
                   kShots);
    // Above the kMaxBatchQubits cap: records the from-|0...0> replay
    // (occupancy metrics zero) next to the small-register rows.
    recordHeadline("qaoa10_toronto", machine(), program().schedule,
                   kPaddedShots);
    recordFrameCharacterization();
    registerBenchmarks();
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
