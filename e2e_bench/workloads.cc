#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "adapt/decoy.hh"
#include "adapt/policies.hh"
#include "adapt/search.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "dd/sequences.hh"
#include "noise/program_cache.hh"
#include "serve/job_server.hh"
#include "serve/shard_executor.hh"
#include "serve/wire.hh"
#include "sim/statevector.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

namespace e2e
{

namespace
{

using namespace adapt;
using serve::JobId;
using serve::JobServer;
using serve::JobState;

constexpr int kRuntimeBestBudget = 6;
constexpr int kSetupReps = 21;
constexpr double kOverrunShare = 1.25;
constexpr Policy kPolicies[] = {Policy::NoDD, Policy::AllDD,
                                Policy::Adapt, Policy::RuntimeBest};

/** Width of the synthetic-grid BV program in pauli_ablation. */
constexpr int kGridBvQubits = 22;

/** serve_open traffic: one program job per kServeMixPeriod jobs,
 *  shots, the fixed rate, and the rounds of fixed-rate arrivals and
 *  bursts.  The rate is a third of the ~20 jobs/s capacity measured on
 *  a quiet 4-vCPU host; a host slowed by its neighbours to half that
 *  capacity is then still below saturation at this rate.  The
 *  fixed-rate arrivals span kServeFixedShare x --seconds in all: at
 *  --seconds 20 that is 154 jobs, 19 of them program jobs, so the
 *  tail rank (10 samples beyond) lands mid-way through the program
 *  jobs rather than at the edge of that cluster. */
constexpr int kServeMixPeriod = 8;
constexpr int kServeShots = 2000;
constexpr double kServeRatePerS = 7.0;
constexpr double kServeFixedShare = 1.1;
constexpr int kServeRounds = 12;
constexpr int kServeBurstJobs = kServeMixPeriod;
/** Program jobs cycle through this many execution seeds, so the
 *  in-process run() oracle of every sharded job costs this many runs
 *  rather than one per job.  The server keeps no results, so a
 *  repeated seed is repeated work. */
constexpr int kServeProgramSeeds = 4;
const char *const kTenants[] = {"a", "a", "a", "b", "c"};
const std::map<std::string, int> kTenantWeight = {
    {"a", 3}, {"b", 1}, {"c", 1}};

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** A device and the machine built on it (the machine keeps a
 *  reference to the device, so both live together). */
struct Target
{
    std::unique_ptr<Device> device;
    std::unique_ptr<NoisyMachine> machine;

    Target(Device d, NoiseFlags flags)
        : device(std::make_unique<Device>(std::move(d))),
          machine(std::make_unique<NoisyMachine>(*device, 0, flags))
    {
    }
};

struct Program
{
    std::string name;
    Circuit circuit{1};
    Answer answer;
    DecoyKind decoy = DecoyKind::Seeded;
    const Target *target = nullptr;
    /** Too wide for a dense ideal: the noise-free output is sampled
     *  on the tableau instead (Clifford programs only). */
    bool wide = false;
};

/** Known noise-free answer of a Table 4 program. */
Answer
answerFor(const std::string &name, const Circuit &c)
{
    const int n = c.numQubits();
    if (name == "BV-7")
        return {Answer::Kind::Exact, 0b101011, 0};
    if (name == "BV-8")
        return {Answer::Kind::Exact, 0b1011011, 0};
    if (name.rfind("QFT-", 0) == 0) {
        uint64_t x = 0;
        for (int q = 0; q < n; q += 2)
            x |= uint64_t{1} << q;
        if (name.back() == 'A')
            return {Answer::Kind::Exact, x, 0};
        const auto peak = static_cast<uint64_t>(
            std::llround(static_cast<double>(x) / 2.0 + 0.37));
        return {Answer::Kind::Mode, peak & ((uint64_t{1} << n) - 1), 0};
    }
    if (name.rfind("QAOA-", 0) == 0)
        return {Answer::Kind::Complement, 0, c.numClbits()};
    if (name == "QPEA-5")
        return {Answer::Kind::Exact, 2, 0}; // phase 1/8, 4 counting bits
    throw std::invalid_argument("no known answer for " + name);
}

/** The programs, machines and shot counts of one workload. */
struct Suite
{
    std::vector<std::unique_ptr<Target>> targets;
    std::vector<Program> programs;
    int decoyShots = 2000;
    int finalShots = 4000;
    /** Index of the program whose final job the serve probe runs
     *  in-process and sharded. */
    size_t largeProgram = 0;
    /** Seconds of one untraced pass on a quiet 4-vCPU host; sets how
     *  many passes a run makes. */
    double nominalPassS = 1.0;
};

Suite
buildSuite(const std::string &workload)
{
    Suite s;
    auto table4 = [](const std::string &name) {
        for (Workload &w : paperBenchmarks()) {
            if (w.name == name)
                return w.circuit;
        }
        throw std::invalid_argument("unknown program " + name);
    };
    auto add = [&](const std::string &name, Circuit c, const Target *t,
                   DecoyKind decoy) {
        Program p;
        p.name = name;
        p.answer = answerFor(name, c);
        p.circuit = std::move(c);
        p.target = t;
        p.decoy = decoy;
        s.programs.push_back(std::move(p));
    };

    if (workload == "paper_small" || workload == "paper_qaoa10" ||
        workload == "serve_open") {
        s.targets.push_back(std::make_unique<Target>(
            Device::ibmqToronto(), NoiseFlags::all()));
        const Target *t = s.targets.back().get();
        if (workload == "paper_small") {
            for (Workload &w : paperBenchmarks()) {
                if (w.circuit.numQubits() <= 8)
                    add(w.name, std::move(w.circuit), t,
                        DecoyKind::Seeded);
            }
            s.largeProgram = 4; // QFT-7A
            s.nominalPassS = 7.5;
        } else if (workload == "paper_qaoa10") {
            add("QAOA-10A", table4("QAOA-10A"), t, DecoyKind::Seeded);
            add("QAOA-10B", table4("QAOA-10B"), t, DecoyKind::Seeded);
            s.decoyShots = 200; // Fig. 13 sizes
            s.finalShots = 450;
            s.largeProgram = 1;
            s.nominalPassS = 6.9;
        } else {
            add("QFT-6A", table4("QFT-6A"), t, DecoyKind::Seeded);
            add("QAOA-10B", table4("QAOA-10B"), t, DecoyKind::Seeded);
            s.finalShots = kServeShots;
            s.largeProgram = 1;
        }
    } else if (workload == "pauli_ablation") {
        s.targets.push_back(std::make_unique<Target>(
            Device::ibmqToronto(), NoiseFlags::pauliOnly()));
        s.targets.push_back(std::make_unique<Target>(
            Device::synthetic(Topology::grid(7, 7)),
            NoiseFlags::pauliOnly()));
        add("QFT-7A", table4("QFT-7A"), s.targets[0].get(),
            DecoyKind::Seeded);
        add("QAOA-8B", table4("QAOA-8B"), s.targets[0].get(),
            DecoyKind::Seeded);
        const uint64_t secret = 0xB6DB6DB6DB6DB6DBull &
                                ((uint64_t{1} << (kGridBvQubits - 1)) - 1);
        Program bv;
        bv.name = "BV-" + std::to_string(kGridBvQubits) + "-grid7x7";
        bv.circuit = makeBernsteinVazirani(kGridBvQubits, secret);
        bv.answer = {Answer::Kind::Exact, secret, 0};
        bv.decoy = DecoyKind::Clifford;
        bv.target = s.targets[1].get();
        bv.wide = true;
        s.programs.push_back(std::move(bv));
        s.largeProgram = 2;
        s.nominalPassS = 3.2;
    } else {
        throw std::invalid_argument("unknown workload " + workload);
    }
    return s;
}

/** The set-up repeated kSetupReps times: device and calibration,
 *  machine, circuit generation, and a pool spin-up. */
Suite
setUpSuite(const std::string &workload, std::vector<double> &setup_s)
{
    Suite suite;
    for (int rep = 0; rep < kSetupReps; rep++) {
        // A short idle gap first, so that each set-up meets the
        // processor as the one set-up at process start does.  Back to
        // back, the repetitions ran warm and switched between two
        // speeds in streaks (1.1 and 1.9 ms on paper_small), so the
        // median jumped between runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const double t0 = now();
        suite = buildSuite(workload);
        ThreadPool pool(defaultThreads());
        pool.run(pool.size(), [](int) {});
        setup_s.push_back(now() - t0);
    }
    return suite;
}

/** Seed of the choices that decide which circuits a pass runs. */
constexpr uint64_t kDecisionSeed = 2021;

/**
 * Policy options of program @p i.  The ADAPT search's decoy runs pick
 * its mask, and Runtime-Best's seed samples its candidate masks, so
 * both stay pinned: the masks, and with them the amount of work, are
 * the same for every workload seed.  The workload seed sets the
 * execution seed of the No-DD, All-DD and ADAPT program runs.
 */
PolicyOptions
policyOptions(const Suite &s, const Program &p, uint64_t seed, size_t i)
{
    PolicyOptions o;
    o.shots = s.finalShots;
    o.runtimeBestBudget = kRuntimeBestBudget;
    o.seed = mix(seed, i);
    o.adapt.decoyShots = s.decoyShots;
    o.adapt.seed = mix(kDecisionSeed, 2 * i + 1);
    o.adapt.decoy.kind = p.decoy;
    return o;
}

Distribution
idealOf(const Program &p, const CompiledProgram &compiled)
{
    return p.wide ? decoyIdealOutput(compiled.physical, 1000)
                  : idealDistribution(compiled.physical);
}

/** The decoy of @p compiled wrapped as a program with the input's
 *  layouts, so applyMask lifts candidate masks exactly as the search
 *  does. */
CompiledProgram
decoyProgram(const CompiledProgram &compiled, const Program &p)
{
    DecoyOptions dopts;
    dopts.kind = p.decoy;
    const Decoy decoy = makeDecoy(compiled.physical, dopts);
    const NoisyMachine &m = *p.target->machine;
    CompiledProgram out(decoy.circuit,
                        reschedule(decoy.circuit, m.device(),
                                   m.calibration()));
    out.initialLayout = compiled.initialLayout;
    out.finalLayout = compiled.finalLayout;
    out.logicalQubits = compiled.logicalQubits;
    return out;
}

/** adaptSearch's first neighbourhood: the 2^k masks over the k
 *  logical qubits whose hosts idle longest (search.cc's order). */
std::vector<std::vector<bool>>
firstNeighbourhood(const CompiledProgram &compiled, int size = 4)
{
    const int n = compiled.logicalQubits;
    std::vector<QubitId> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    auto idle = [&](QubitId q) {
        return compiled.schedule.totalIdleTime(
            compiled.initialLayout.logicalToPhysical[static_cast<size_t>(q)]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](QubitId a, QubitId b) { return idle(a) > idle(b); });
    const int k = std::min(size, n);
    std::vector<std::vector<bool>> masks;
    for (uint32_t combo = 0; combo < (uint32_t{1} << k); combo++) {
        std::vector<bool> mask(static_cast<size_t>(n), false);
        for (int b = 0; b < k; b++)
            mask[static_cast<size_t>(order[static_cast<size_t>(b)])] =
                (combo >> b) & 1;
        masks.push_back(std::move(mask));
    }
    return masks;
}

// ------------------------------------------------------------ loop pass

struct PassResult
{
    double wall = 0.0;
    double decision = 0.0;
    std::vector<double> jobMs; //!< one per (program, policy)
    std::vector<std::string> jobNames;
    int swaps = 0;
    int decoysExecuted = 0;
};

/**
 * One full four-policy pass over the suite: for every program in
 * turn, transpile, the noise-free answer, then No-DD, All-DD, ADAPT
 * and Runtime-Best, each waiting for its result.  The process-shared
 * skeleton cache is emptied first, so every pass pays the cold cache
 * a reproduction run pays.
 */
PassResult
loopPass(const Suite &s, uint64_t seed, Tracer &tr, Checker &chk)
{
    if (ProgramCache *cache = ProgramCache::processShared())
        cache->clear();
    PassResult r;
    const double t0 = now();
    const Scope pass(tr, "loop");
    for (size_t i = 0; i < s.programs.size(); i++) {
        const Program &p = s.programs[i];
        const NoisyMachine &m = *p.target->machine;
        const int id = static_cast<int>(i);
        const Scope prog(tr, "program." + p.name, id);

        double a = now();
        const CompiledProgram compiled = [&] {
            const Scope sp(tr, "transpile", id);
            return transpile(p.circuit, m.device(), m.calibration());
        }();
        r.decision += now() - a;
        r.swaps += compiled.swapCount;

        const Distribution ideal = [&] {
            const Scope sp(tr, "sim.ideal", id);
            return idealOf(p, compiled);
        }();
        chk.expect(p.name + " ideal answer", checkAnswer(ideal, p.answer));

        PolicyOptions popts = policyOptions(s, p, seed, i);
        const uint64_t exec_seed = popts.seed;
        for (Policy policy : kPolicies) {
            popts.seed = policy == Policy::RuntimeBest
                             ? mix(kDecisionSeed, 2 * i)
                             : exec_seed;
            const std::string what = p.name + "/" + policyName(policy);
            const double j0 = now();
            const Scope sp(tr, "adapt.policy." + policyName(policy), id);
            PolicyOutcome out;
            if (policy == Policy::Adapt) {
                // evaluatePolicy(Adapt) spelled out so the search can
                // be timed on its own: search, then the final run
                // under the chosen mask.
                if (tr.enabled()) {
                    const Scope d(tr, "adapt.decoy", id);
                    makeDecoy(compiled.physical, popts.adapt.decoy);
                }
                a = now();
                const AdaptResult found = [&] {
                    const Scope q(tr, "adapt.search", id);
                    return adaptSearch(compiled, m, popts.adapt);
                }();
                r.decision += now() - a;
                r.decoysExecuted += found.decoysExecuted;
                const ScheduledCircuit sched = applyMask(
                    compiled, m, popts.adapt.dd, found.logicalMask);
                const Scope run(tr, "noise.run", id);
                out.output = m.run(sched, popts.shots, popts.seed, 0,
                                   popts.adapt.backend);
                out.fidelity = fidelity(ideal, out.output);
            } else {
                out = evaluatePolicy(policy, compiled, m, ideal, popts);
            }
            r.jobMs.push_back((now() - j0) * 1e3);
            r.jobNames.push_back(what);
            chk.attempt();
            chk.expect(what + " shots", checkShots(out.output, popts.shots));
            chk.expect(what + " fidelity",
                       checkFidelity(out.fidelity, out.output));
        }
    }
    r.wall = now() - t0;
    return r;
}

// ------------------------------------------------------- layer probes

/** Per-layer quantities gathered by the traced run's probes. */
struct Layers
{
    double applyMs = 0.0;
    int64_t pulses = 0;
    double prepareMs = 0.0;
    uint64_t cacheHits = 0, cacheLookups = 0;
    double denseWall = 0.0, frameWall = 0.0;
    int64_t denseShots = 0, frameShots = 0;
    double serialSum = 0.0, batchWall = 0.0;
    double t1Cpu = 0.0, t1Wall = 0.0;
    DenseBatchStats dense;
    FrameBatchStats frame;
    int64_t densePartialShots = 0;

    double inprocessMs = 0.0, shardedMs = 0.0, mergeMs = 0.0;
    double encodeNs = 0.0, decodeNs = 0.0, wireBytes = 0.0;
    uint64_t leasesCompleted = 0, leasesReassigned = 0;
};

/**
 * Replay one program's first-neighbourhood decoy batch as
 * applyMask -> prepare -> runBatch, timing each call.  With @p serial
 * (one program per workload, to bound the traced run's length), also
 * run each candidate alone through runPartial(threads=1) (serial time
 * and the RunOutcome occupancy counts), and the batch once more at
 * runBatch(threads=1) for its CPU/wall ratio.
 */
void
replayBatch(const Program &p, const CompiledProgram &compiled,
            const NoisyMachine &m, int shots, uint64_t seed, bool serial,
            Tracer &tr, Checker &chk, Layers &L, int id)
{
    const Scope sp(tr, "replay." + p.name, id);
    const CompiledProgram dp = decoyProgram(compiled, p);
    const std::vector<std::vector<bool>> masks = firstNeighbourhood(dp);
    const size_t n = masks.size();
    const DDOptions dd;

    std::vector<ScheduledCircuit> scheds;
    {
        const Scope s(tr, "dd.apply_mask", id);
        const double t = now();
        for (const auto &mask : masks)
            scheds.push_back(applyMask(dp, m, dd, mask));
        L.applyMs += (now() - t) * 1e3;
    }
    for (const auto &sched : scheds)
        L.pulses += ddPulseCount(sched);

    ProgramCache *cache = ProgramCache::processShared();
    if (cache != nullptr)
        cache->clear();
    const ProgramCache::Stats before =
        cache != nullptr ? cache->stats() : ProgramCache::Stats{};
    std::vector<PreparedCircuit> prepared;
    {
        const Scope s(tr, "noise.prepare", id);
        const double t = now();
        for (const auto &sched : scheds)
            prepared.push_back(m.prepare(sched));
        L.prepareMs += (now() - t) * 1e3;
    }
    if (cache != nullptr) {
        const ProgramCache::Stats after = cache->stats();
        L.cacheHits += after.hits - before.hits;
        L.cacheLookups += (after.hits - before.hits) +
                          (after.misses - before.misses);
    }

    std::vector<uint64_t> seeds(n);
    for (size_t c = 0; c < n; c++)
        seeds[c] = mix(seed, 1000 + c);
    const bool frame = prepared.front().frameBatched();
    std::vector<Distribution> outs;
    {
        const Scope s(tr, frame ? "noise.run_batch.frame"
                                : "noise.run_batch.dense", id);
        const double t = now();
        outs = m.runBatch(prepared, shots, seeds);
        const double wall = now() - t;
        (frame ? L.frameWall : L.denseWall) += wall;
        (frame ? L.frameShots : L.denseShots) +=
            static_cast<int64_t>(n) * shots;
        if (serial)
            L.batchWall += wall;
    }
    for (size_t c = 0; c < n; c++)
        chk.expect(p.name + " replay shots", checkShots(outs[c], shots));
    if (!serial)
        return;
    {
        const Scope s(tr, "noise.run_partial.serial", id);
        for (size_t c = 0; c < n; c++) {
            const double t = now();
            const RunOutcome o =
                m.runPartial(prepared[c], shots, seeds[c], 1);
            L.serialSum += now() - t;
            L.dense.merge(o.denseStats);
            L.frame.merge(o.frameStats);
            if (prepared[c].backend() == BackendKind::Dense)
                L.densePartialShots += shots;
            chk.expect(p.name + " batch == serial",
                       checkIdentical(outs[c], o.dist));
        }
    }
    {
        const Scope s(tr, "noise.run_batch.threads1", id);
        const double c0 = cpuNow(), w0 = now();
        const auto again = m.runBatch(prepared, shots, seeds, 1);
        L.t1Wall += now() - w0;
        L.t1Cpu += cpuNow() - c0;
        chk.expect(p.name + " threads=1 batch",
                   checkIdentical(again.front(), outs.front()));
    }
}

/** Poll-driven observer of JobServer jobs: records when each job is
 *  first seen Running and terminal, independent of submission
 *  order. */
struct JobRec
{
    JobId id = 0;
    double due = 0.0, submitted = 0.0, running = -1.0, done = -1.0;
    bool program = false; //!< device-scale sharded job
    int burst = 0; //!< 0 = fixed-rate phase, else burst number
    uint64_t seed = 0;
    JobState state = JobState::Queued;
    Distribution dist;
};

class Poller
{
  public:
    explicit Poller(JobServer &server)
        : server_(server), thread_([this] { loop(); })
    {
    }
    ~Poller() { stop(); }
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    void add(JobRec rec)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        incoming_.push_back(std::move(rec));
        expected_++;
    }

    /** Block until every added job is terminal. */
    void waitAll()
    {
        while (true) {
            {
                const std::lock_guard<std::mutex> lock(mu_);
                if (finishedCount_ == expected_)
                    return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** Stop polling and hand over the finished records. */
    std::vector<JobRec> stop()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
        return std::move(finished_);
    }

  private:
    void loop()
    {
        std::vector<JobRec> active;
        while (!stop_) {
            {
                const std::lock_guard<std::mutex> lock(mu_);
                for (JobRec &r : incoming_)
                    active.push_back(std::move(r));
                incoming_.clear();
            }
            for (size_t i = 0; i < active.size();) {
                JobRec &r = active[i];
                const JobState st = server_.state(r.id);
                const double t = now();
                if (st == JobState::Running && r.running < 0)
                    r.running = t;
                if (st == JobState::Queued || st == JobState::Running) {
                    i++;
                    continue;
                }
                r.done = t;
                if (r.running < 0)
                    r.running = t;
                serve::JobResult res = server_.wait(r.id);
                r.state = res.state;
                r.dist = std::move(res.dist);
                server_.release(r.id);
                finished_.push_back(std::move(r));
                if (i + 1 != active.size())
                    active[i] = std::move(active.back());
                active.pop_back();
                const std::lock_guard<std::mutex> lock(mu_);
                finishedCount_++;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    JobServer &server_;
    std::mutex mu_;
    std::vector<JobRec> incoming_; // guarded by mu_
    size_t expected_ = 0;          // guarded by mu_
    size_t finishedCount_ = 0;     // guarded by mu_
    std::vector<JobRec> finished_; // poller thread until stop()
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

serve::ServerOptions
serverOptions()
{
    serve::ServerOptions o; // defaults, not the environment
    o.workers = 2;
    o.threadsPerJob = 1;
    o.queueDepth = 512;
    o.shard.workers = 2;
    return o;
}

/** Submit @p rec's job, stamping the submission time. */
bool
submit(JobServer &server, Poller &poller, JobRec rec,
       const serve::JobSpec &spec, const std::string &tenant,
       Checker &chk, std::vector<double> &lag)
{
    const serve::Admission adm =
        server.submit(tenant, spec, kTenantWeight.at(tenant));
    rec.submitted = now();
    lag.push_back((rec.submitted - rec.due) * 1e3);
    chk.attempt();
    if (!adm.accepted) {
        chk.fail("job rejected: " + adm.reason);
        return false;
    }
    rec.id = adm.id;
    poller.add(std::move(rec));
    return true;
}

/** Check finished jobs: full histograms, Done state, and every
 *  sharded job bit-identical to an in-process run() of the same job
 *  and seed. */
void
checkJobs(const std::vector<JobRec> &jobs, const NoisyMachine &m,
          const PreparedCircuit &program, Checker &chk)
{
    std::map<uint64_t, Distribution> oracle; // in-process run() by seed
    for (const JobRec &r : jobs) {
        if (r.state != JobState::Done) {
            chk.fail(std::string("job ended ") + serve::jobStateName(r.state));
            continue;
        }
        chk.expect("job shots", checkShots(r.dist, kServeShots));
        if (r.program) {
            auto it = oracle.find(r.seed);
            if (it == oracle.end())
                it = oracle.emplace(r.seed, m.run(program, kServeShots,
                                                  r.seed)).first;
            chk.expect("sharded job == in-process run()",
                       checkIdentical(r.dist, it->second));
        }
    }
}

/**
 * Serve probe for the loop workloads' traced run: the large program's
 * final job in-process and sharded, its leases' wire frames, the
 * shard-item merge, and a JobServer fed the replayed candidate batch
 * at once.
 */
void
serveProbe(const Program &p, const CompiledProgram &compiled, int shots,
           uint64_t seed, Tracer &tr, Checker &chk, Layers &L,
           std::vector<JobRec> *jobs_out, std::vector<double> *lag_out,
           serve::ServerStats *stats_out, bool with_server)
{
    const NoisyMachine &m = *p.target->machine;
    const Scope sp(tr, "serve.probe");
    const std::vector<bool> all(
        static_cast<size_t>(compiled.logicalQubits), true);
    const ScheduledCircuit sched = applyMask(compiled, m, DDOptions{}, all);
    const PreparedCircuit prepared = m.prepare(sched);
    const uint64_t job_seed = mix(seed, 7);

    Distribution inproc;
    {
        const Scope s(tr, "serve.inprocess");
        const double t = now();
        inproc = m.runPartial(prepared, shots, job_seed, 1).dist;
        L.inprocessMs = (now() - t) * 1e3;
    }
    serve::ShardOptions so;
    so.workers = 2;
    serve::ShardExecutor sharder(m, so);
    if (!sharder.available()) {
        chk.fail("shard worker binary not found");
        return;
    }
    sharder.runSharded(prepared, sched, 64, job_seed); // spawn workers
    const serve::ShardStats s0 = sharder.stats();
    {
        const Scope s(tr, "serve.sharded");
        const double t = now();
        const RunOutcome o =
            sharder.runSharded(prepared, sched, shots, job_seed);
        L.shardedMs = (now() - t) * 1e3;
        chk.expect("probe sharded == in-process",
                   checkIdentical(o.dist, inproc));
    }
    const serve::ShardStats s1 = sharder.stats();
    L.leasesCompleted = s1.leasesCompleted - s0.leasesCompleted;
    L.leasesReassigned = s1.leasesReassigned - s0.leasesReassigned;
    sharder.shutdown();

    // The same job's shard items, lease by lease, then the merge.
    const int64_t blocks = m.shardBlockCount(prepared, shots);
    const int64_t lease_blocks = so.leaseBlocks;
    std::vector<std::pair<uint64_t, uint64_t>> items, first;
    for (int64_t lo = 0; lo < blocks; lo += lease_blocks) {
        auto part = m.runShardRange(prepared, shots, lo,
                                    std::min(blocks, lo + lease_blocks),
                                    job_seed);
        if (lo == 0)
            first = part;
        items.insert(items.end(), part.begin(), part.end());
    }
    {
        const Scope s(tr, "noise.merge");
        const double t = now();
        const Distribution merged = mergeShardItems(std::move(items));
        L.mergeMs = (now() - t) * 1e3;
        chk.expect("merged shard items == in-process",
                   checkIdentical(merged, inproc));
    }

    // Lease and result frames of the first lease.
    serve::wire::LeaseMsg lease;
    lease.jobKey = job_seed;
    lease.blockHi = std::min(blocks, lease_blocks);
    serve::wire::ResultMsg result;
    result.jobKey = job_seed;
    result.items = first;
    constexpr int kReps = 2000;
    {
        const Scope s(tr, "serve.wire");
        size_t bytes = 0;
        double t = now();
        for (int k = 0; k < kReps; k++) {
            bytes = serve::wire::encodeFrame(
                        serve::wire::FrameType::Lease,
                        serve::wire::encodeLease(lease)).size() +
                    serve::wire::encodeFrame(
                        serve::wire::FrameType::Result,
                        serve::wire::encodeResult(result)).size();
        }
        L.encodeNs = (now() - t) * 1e9 / kReps;
        L.wireBytes = static_cast<double>(bytes);
        const auto lp = serve::wire::encodeLease(lease);
        const auto rp = serve::wire::encodeResult(result);
        size_t decoded = 0;
        t = now();
        for (int k = 0; k < kReps; k++) {
            decoded += serve::wire::crc32(lp.data(), lp.size()) & 1;
            decoded += serve::wire::crc32(rp.data(), rp.size()) & 1;
            decoded += serve::wire::decodeLease(lp).blockHi > 0;
            decoded += serve::wire::decodeResult(rp).items.size();
        }
        L.decodeNs = (now() - t) * 1e9 / kReps;
        chk.expect("wire round trip",
                   serve::wire::decodeResult(rp).items == first
                       ? "" : "result items changed in transit");
        if (decoded == 0)
            chk.fail("wire decode produced nothing");
    }

    if (!with_server)
        return;
    // JobServer fed the replayed candidates plus the sharded job, all
    // due at once.
    const Scope s(tr, "serve.server");
    const CompiledProgram dp = decoyProgram(compiled, p);
    std::vector<PreparedCircuit> cands;
    for (const auto &mask : firstNeighbourhood(dp))
        cands.push_back(m.prepare(applyMask(dp, m, DDOptions{}, mask)));
    JobServer server(m, serverOptions());
    Poller poller(server);
    const double due = now();
    auto spec_of = [&](const PreparedCircuit &pc, uint64_t js) {
        serve::JobSpec spec;
        spec.prepared = pc;
        spec.shots = kServeShots;
        spec.seed = js;
        return spec;
    };
    for (size_t c = 0; c < cands.size(); c++) {
        JobRec rec;
        rec.due = due;
        rec.seed = mix(seed, 3000 + c);
        submit(server, poller, rec, spec_of(cands[c], rec.seed),
               kTenants[c % 5], chk, *lag_out);
    }
    JobRec big;
    big.due = due;
    big.program = true;
    big.seed = job_seed;
    serve::JobSpec spec = spec_of(prepared, job_seed);
    spec.sched = std::make_shared<ScheduledCircuit>(sched);
    submit(server, poller, big, spec, "b", chk, *lag_out);
    poller.waitAll();
    *jobs_out = poller.stop();
    *stats_out = server.stats();
    checkJobs(*jobs_out, m, prepared, chk);
}

// ------------------------------------------------------------ serve_open

/** The prepared traffic of serve_open. */
struct Traffic
{
    std::vector<PreparedCircuit> decoys; //!< QFT-6A decoy candidates
    PreparedCircuit program;             //!< QAOA-10B, all-qubit DD
    std::shared_ptr<const ScheduledCircuit> programSched;
};

Traffic
buildTraffic(const Suite &s)
{
    Traffic t;
    const Program &qft = s.programs[0];
    const Program &qaoa = s.programs[1];
    const NoisyMachine &m = *qft.target->machine;
    const CompiledProgram c0 =
        transpile(qft.circuit, m.device(), m.calibration());
    const CompiledProgram dp = decoyProgram(c0, qft);
    for (const auto &mask : firstNeighbourhood(dp))
        t.decoys.push_back(m.prepare(applyMask(dp, m, DDOptions{}, mask)));
    const CompiledProgram c1 =
        transpile(qaoa.circuit, m.device(), m.calibration());
    const std::vector<bool> all(static_cast<size_t>(c1.logicalQubits),
                                true);
    t.programSched = std::make_shared<ScheduledCircuit>(
        applyMask(c1, m, DDOptions{}, all));
    t.program = m.prepare(*t.programSched);
    return t;
}

struct ServeResult
{
    std::vector<double> latencyMs; //!< fixed phase, from due time
    std::vector<double> lagMs;
    std::vector<double> burstWall, burstDecoyWall;
    std::vector<JobRec> jobs;
    serve::ServerStats stats;
};

/**
 * One serve_open pass of kServeRounds rounds.  A round is a segment of
 * jittered periodic arrivals at kServeRatePerS, drained, then a burst
 * of kServeBurstJobs jobs due at once, drained.  Interleaving the two
 * phases spreads both over the whole run, so a slow stretch of a
 * shared host weighs on every metric alike instead of on one phase.
 * At the fixed rate every kServeMixPeriod-th job is the sharded
 * program job; the rest are in-process decoy candidates.  A burst is
 * one program job, submitted first and so dispatched first, and seven
 * decoy jobs: one dispatcher runs the program job while the other
 * works through the decoys.  Tenants cycle a,a,a,b,c with weights
 * 3:1:1.
 */
ServeResult
servePass(JobServer &server, const Traffic &t, uint64_t seed,
          double seconds, Checker &chk)
{
    ServeResult r;
    Poller poller(server);
    Rng rng(mix(seed, 99));
    uint64_t index = 0;    // jobs submitted so far (decoy seeds)
    uint64_t programs = 0; // program jobs submitted so far
    auto submitJob = [&](double due, int burst, bool program, int pos) {
        JobRec rec;
        rec.due = due;
        rec.burst = burst;
        rec.program = program;
        rec.seed = program
                       ? mix(seed, 7000 + programs++ % kServeProgramSeeds)
                       : mix(seed, 5000 + index);
        index++;
        serve::JobSpec spec;
        spec.shots = kServeShots;
        spec.seed = rec.seed;
        if (program) {
            spec.prepared = t.program;
            spec.sched = t.programSched;
        } else {
            spec.prepared =
                t.decoys[static_cast<size_t>(pos) % t.decoys.size()];
        }
        submit(server, poller, rec, spec, kTenants[pos % 5], chk, r.lagMs);
    };

    // A fixed arrival count (at least 20, so the tail percentile keeps
    // ten samples beyond it even on short runs): the work follows from
    // --seconds, the arrival times from the seed.
    const auto arrivals = std::max<int64_t>(
        20, std::lround(kServeRatePerS * kServeFixedShare * seconds));
    std::vector<double> starts;
    int64_t slot = 0; // fixed-rate position in the traffic pattern
    for (int b = 1; b <= kServeRounds; b++) {
        // Slot k's arrival lands uniformly within +-40% of a period of
        // the slot's centre, so arrivals stay in order.  Periodic
        // rather than Poisson: with Poisson clumps the median latency
        // moved by 28% between seeds on a contended host.
        const int64_t last = arrivals * b / kServeRounds;
        const double t0 = now();
        for (int64_t k = 0; slot < last; k++, slot++) {
            const double jitter = 0.8 * (rng.uniform() - 0.5);
            const double due =
                t0 + (static_cast<double>(k) + 0.5 + jitter) / kServeRatePerS;
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(due))));
            submitJob(due, 0, slot % kServeMixPeriod == kServeMixPeriod - 1,
                      static_cast<int>(slot));
        }
        poller.waitAll();

        starts.push_back(now());
        for (int k = 0; k < kServeBurstJobs; k++)
            submitJob(starts.back(), b, k == 0, k);
        poller.waitAll();
    }
    r.jobs = poller.stop();
    r.burstWall.assign(kServeRounds, 0.0);
    r.burstDecoyWall.assign(kServeRounds, 0.0);
    for (const JobRec &j : r.jobs) {
        if (j.burst == 0) {
            r.latencyMs.push_back((j.done - j.due) * 1e3);
            continue;
        }
        const auto b = static_cast<size_t>(j.burst - 1);
        const double took = j.done - starts[b];
        r.burstWall[b] = std::max(r.burstWall[b], took);
        if (!j.program)
            r.burstDecoyWall[b] = std::max(r.burstDecoyWall[b], took);
    }
    r.stats = server.stats();
    return r;
}

// ------------------------------------------------------------ reporting

/**
 * Loop-workload metrics.  A job's latency is the median over the
 * passes of its (program, policy) evaluation, counted once per pass:
 * the jobs are deliberately heterogeneous (a No-DD run next to an
 * ADAPT search), so a percentile over raw samples would jump between
 * job kinds from run to run.
 */
void
addLoopMetrics(Report &rep, const std::vector<PassResult> &passes)
{
    std::vector<double> walls, decisions, job_median, jobs;
    for (const PassResult &p : passes) {
        walls.push_back(p.wall);
        decisions.push_back(p.decision);
    }
    for (size_t k = 0; k < passes.front().jobMs.size(); k++) {
        std::vector<double> each;
        for (const PassResult &p : passes)
            each.push_back(p.jobMs[k]);
        job_median.push_back(median(each));
        jobs.insert(jobs.end(), passes.size(), job_median.back());
    }
    const double loop = median(walls);
    const Tail tail = tailPercentile(jobs, 0.95);
    rep.metrics.push_back({"loop_s", loop, "s"});
    rep.metrics.push_back({"adapt_decision_s", median(decisions), "s"});
    rep.metrics.push_back({"job_p50_ms", median(jobs), "ms"});
    rep.metrics.push_back({"job_p95_ms", tail.value, "ms"});
    rep.metrics.push_back(
        {"serve_jobs_per_s",
         static_cast<double>(passes.front().jobMs.size()) / loop, "1/s"});
    Json j;
    j.beginObject()
        .integer("passes", static_cast<int64_t>(passes.size()))
        .beginArray("loop_s_each");
    for (double w : walls)
        j.num(w);
    j.endArray()
        .num("job_tail_pct", tail.pct)
        .integer("job_samples", static_cast<int64_t>(tail.samples))
        .integer("job_samples_beyond_tail",
                 static_cast<int64_t>(tail.beyond))
        .str("job_unit", "one (program, policy) evaluation")
        .beginObject("job_ms_median");
    for (size_t k = 0; k < job_median.size(); k++)
        j.num(passes.front().jobNames[k], job_median[k]);
    j.endObject().endObject();
    rep.record.emplace_back("loop", j.text());
}

void
addServeMetrics(Report &rep, const ServeResult &r)
{
    const Tail tail = tailPercentile(r.latencyMs, 0.95);
    const double burst = median(r.burstWall);
    rep.metrics.push_back({"loop_s", burst, "s"});
    rep.metrics.push_back(
        {"adapt_decision_s", median(r.burstDecoyWall), "s"});
    rep.metrics.push_back({"job_p50_ms", median(r.latencyMs), "ms"});
    rep.metrics.push_back({"job_p95_ms", tail.value, "ms"});
    rep.metrics.push_back(
        {"serve_jobs_per_s", kServeBurstJobs / burst, "1/s"});
    Json j;
    j.beginObject()
        .num("fixed_rate_per_s", kServeRatePerS)
        .integer("fixed_jobs", static_cast<int64_t>(r.latencyMs.size()))
        .num("job_tail_pct", tail.pct)
        .integer("job_samples", static_cast<int64_t>(tail.samples))
        .integer("job_samples_beyond_tail",
                 static_cast<int64_t>(tail.beyond))
        .integer("burst_jobs", kServeBurstJobs)
        .beginArray("burst_s_each");
    for (double w : r.burstWall)
        j.num(w);
    j.endArray()
        .num("generator_lag_ms_max",
             *std::max_element(r.lagMs.begin(), r.lagMs.end()))
        .num("generator_lag_ms_p50", median(r.lagMs))
        .integer("rejected", static_cast<int64_t>(r.stats.rejected))
        .integer("retried", static_cast<int64_t>(r.stats.retried))
        .endObject();
    rep.record.emplace_back("serve", j.text());
}

/** Per-layer metrics of the traced run. */
void
addLayerMetrics(Report &rep, const Tracer &tr, const PassResult &traced,
                const Layers &L, const std::vector<JobRec> &jobs,
                const std::vector<double> &lag,
                const serve::ServerStats &stats, double overhead_s)
{
    const auto tot = tr.totals();
    auto ms = [&](const std::string &name) {
        const auto it = tot.find(name);
        return it == tot.end() ? 0.0 : it->second * 1e3;
    };
    auto &out = rep.metrics;
    out.push_back({"transpile.ms", ms("transpile"), "ms"});
    out.push_back({"transpile.swaps", double(traced.swaps), "count"});
    out.push_back({"adapt.decoy_ms", ms("adapt.decoy"), "ms"});
    out.push_back({"adapt.search_ms", ms("adapt.search"), "ms"});
    out.push_back({"adapt.decoys_executed", double(traced.decoysExecuted),
                   "count"});
    for (Policy policy : kPolicies) {
        out.push_back({"adapt.policy_ms." + policyName(policy),
                       ms("adapt.policy." + policyName(policy)), "ms"});
    }
    out.push_back({"dd.apply_mask_ms", L.applyMs, "ms"});
    out.push_back({"dd.pulses", double(L.pulses), "count"});
    out.push_back({"noise.prepare_ms", L.prepareMs, "ms"});
    out.push_back({"noise.cache_hit_ratio",
                   L.cacheLookups ? double(L.cacheHits) / L.cacheLookups
                                  : 0.0,
                   "ratio"});
    auto ns_per = [](double wall, int64_t shots) {
        return wall * 1e9 / double(std::max<int64_t>(1, shots));
    };
    out.push_back({"noise.run_dense_ns_per_shot",
                   ns_per(L.denseWall, L.denseShots), "ns"});
    out.push_back({"noise.run_frame_ns_per_shot",
                   ns_per(L.frameWall, L.frameShots), "ns"});
    const double dshots = double(std::max<int64_t>(1, L.densePartialShots));
    out.push_back({"noise.grouped_shot_frac", L.dense.shots / dshots,
                   "ratio"});
    out.push_back({"noise.no_error_shot_frac", L.dense.noErrorShots / dshots,
                   "ratio"});
    out.push_back({"noise.mean_group_size",
                   L.dense.groups ? double(L.dense.shots) / L.dense.groups
                                  : 0.0,
                   "count"});
    out.push_back({"noise.frame_tail_shots", double(L.frame.tailShots),
                   "count"});
    out.push_back({"noise.frame_deferred_shots",
                   double(L.frame.deferredShots), "count"});
    out.push_back({"noise.merge_ms", L.mergeMs, "ms"});
    out.push_back({"common.pool_efficiency",
                   L.serialSum / (L.batchWall * defaultThreads()), "ratio"});
    out.push_back({"common.batch_threads1_cpu_ratio", L.t1Cpu / L.t1Wall,
                   "ratio"});
    std::vector<double> wait, run;
    for (const JobRec &j : jobs) {
        wait.push_back((j.running - j.submitted) * 1e3);
        run.push_back((j.done - j.running) * 1e3);
    }
    out.push_back({"serve.queue_wait_ms_p50", median(wait), "ms"});
    out.push_back({"serve.run_ms_p50", median(run), "ms"});
    out.push_back({"serve.inprocess_ms", L.inprocessMs, "ms"});
    out.push_back({"serve.sharded_ms", L.shardedMs, "ms"});
    out.push_back({"serve.wire_encode_ns", L.encodeNs, "ns"});
    out.push_back({"serve.wire_decode_ns", L.decodeNs, "ns"});
    out.push_back({"serve.wire_bytes", L.wireBytes, "bytes"});
    out.push_back({"serve.leases_completed", double(L.leasesCompleted),
                   "count"});
    out.push_back({"serve.leases_reassigned", double(L.leasesReassigned),
                   "count"});
    out.push_back({"serve.rejected", double(stats.rejected), "count"});
    out.push_back({"serve.retried", double(stats.retried), "count"});
    out.push_back({"serve.generator_lag_ms_max",
                   *std::max_element(lag.begin(), lag.end()), "ms"});
    out.push_back({"trace.overhead_s", overhead_s, "s"});

    Json self;
    self.beginObject();
    for (const auto &[name, sec] : tr.selfTimes())
        self.num(name, sec * 1e3);
    self.endObject();
    rep.record.emplace_back("self_ms", self.text());
}

/** Compiled vs Interpreted on one small dense decoy (exact). */
void
checkExecModes(const Program &p, uint64_t seed, Checker &chk)
{
    const NoisyMachine &m = *p.target->machine;
    const CompiledProgram c =
        transpile(p.circuit, m.device(), m.calibration());
    const CompiledProgram dp = decoyProgram(c, p);
    const PreparedCircuit prep = m.prepare(dp.schedule);
    if (prep.backend() != BackendKind::Dense) {
        chk.fail(p.name + " decoy is not dense");
        return;
    }
    const uint64_t s = mix(seed, 77);
    chk.expect(p.name + " compiled == interpreted",
               checkIdentical(m.run(prep, 200, s, 0, ExecMode::Compiled),
                              m.run(prep, 200, s, 0,
                                    ExecMode::Interpreted)));
}

/**
 * The suite's passes for a run of @p seconds: as many nominal-length
 * passes as fit, at least two (so each job's latency is a median of
 * repeats), and at least enough for ten job samples beyond a tail
 * rank.  The count follows from --seconds alone, not from
 * measured times, so two commits compared at the same --seconds run
 * the same work.  On a host far slower than nominal the run stops
 * early, once the next pass would end past kOverrunShare x seconds.
 */
template <typename Fn>
std::vector<PassResult>
fixedPasses(const Suite &s, double seconds, Fn &&pass)
{
    const size_t per_pass = s.programs.size() * std::size(kPolicies);
    const size_t min_passes =
        std::max<size_t>(2, (11 + per_pass - 1) / per_pass);
    const size_t want = std::max(
        min_passes, static_cast<size_t>(seconds / s.nominalPassS));
    std::vector<PassResult> passes;
    const double t0 = now();
    while (passes.size() < want) {
        passes.push_back(pass());
        if (passes.size() >= min_passes &&
            now() - t0 + passes.back().wall > kOverrunShare * seconds)
            break;
    }
    return passes;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_small", "paper_qaoa10", "pauli_ablation", "serve_open"};
    return names;
}

Report
runWorkload(const Options &opt, Checker &chk)
{
    Report rep;
    std::vector<double> setup;
    const Suite suite = setUpSuite(opt.workload, setup);
    const bool serving = opt.workload == "serve_open";

    std::unique_ptr<JobServer> server;
    Traffic traffic;
    if (serving) {
        // Server and shard-worker spawn are part of the set-up: a
        // tiny sharded job brings the workers up.
        const NoisyMachine &m = *suite.programs[0].target->machine;
        for (int rep_i = 0; rep_i < kSetupReps; rep_i++) {
            const double t0 = now();
            traffic = buildTraffic(suite);
            server.reset();
            server = std::make_unique<JobServer>(m, serverOptions());
            serve::JobSpec warm;
            warm.prepared = traffic.program;
            warm.sched = traffic.programSched;
            warm.shots = 64;
            const serve::Admission adm = server->submit("warm", warm);
            if (!adm.accepted || server->wait(adm.id).state != JobState::Done)
                chk.fail("warm-up job failed");
            else
                server->release(adm.id);
            setup[static_cast<size_t>(rep_i)] += now() - t0;
        }
    }
    checkExecModes(suite.programs[0], opt.seed, chk);

    Tracer off(false);
    if (!opt.trace) {
        rep.metrics.push_back({"setup_s", median(setup), "s"});
        if (serving) {
            const ServeResult r =
                servePass(*server, traffic, opt.seed, opt.seconds, chk);
            checkJobs(r.jobs, *suite.programs[1].target->machine,
                      traffic.program, chk);
            addServeMetrics(rep, r);
        } else {
            addLoopMetrics(rep, fixedPasses(suite, opt.seconds, [&] {
                return loopPass(suite, opt.seed, off, chk);
            }));
        }
        rep.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        return rep;
    }

    // Traced run: one untraced and one traced pass (their difference
    // is the tracing overhead), then the layer probes.
    Tracer tr(true);
    Layers L;
    std::vector<JobRec> jobs;
    std::vector<double> lag;
    serve::ServerStats stats;
    double overhead = 0.0;
    PassResult traced;
    if (serving) {
        const ServeResult plain =
            servePass(*server, traffic, opt.seed, opt.seconds, chk);
        checkJobs(plain.jobs, *suite.programs[1].target->machine,
                  traffic.program, chk);
        const int id = tr.begin("serve.pass");
        const ServeResult r =
            servePass(*server, traffic, opt.seed, opt.seconds, chk);
        for (const JobRec &j : r.jobs) {
            tr.add("serve.queued", j.submitted, j.running,
                   static_cast<int>(j.id));
            tr.add("serve.run", j.running, j.done, static_cast<int>(j.id));
        }
        tr.end(id);
        checkJobs(r.jobs, *suite.programs[1].target->machine,
                  traffic.program, chk);
        overhead = median(r.burstWall) - median(plain.burstWall);
        jobs = r.jobs;
        lag = r.lagMs;
        stats = r.stats;
        // The ADAPT layers on the decoy program the traffic comes
        // from: one traced four-policy pass over QFT-6A.
        Suite one = buildSuite("serve_open");
        one.programs.resize(1);
        traced = loopPass(one, opt.seed, tr, chk);
    } else {
        const PassResult plain = loopPass(suite, opt.seed, off, chk);
        traced = loopPass(suite, opt.seed, tr, chk);
        overhead = traced.wall - plain.wall;
    }

    bool frame_seen = false;
    for (size_t i = 0; i < suite.programs.size(); i++) {
        const Program &p = suite.programs[i];
        const NoisyMachine &m = *p.target->machine;
        const CompiledProgram c =
            transpile(p.circuit, m.device(), m.calibration());
        replayBatch(p, c, m, suite.decoyShots, opt.seed,
                    i == suite.largeProgram, tr, chk, L,
                    static_cast<int>(i));
        frame_seen = frame_seen || L.frameShots > 0;
        if (i == suite.largeProgram) {
            serveProbe(p, c, suite.finalShots, opt.seed, tr, chk, L,
                       &jobs, &lag, &stats, !serving);
        }
    }
    if (!frame_seen) {
        // No program of this workload reaches the Pauli-frame engine:
        // replay the first program's Clifford decoy batch under the
        // Pauli-only channels, which routes it there.
        const Program &p0 = suite.programs[0];
        const Target pauli(*p0.target->device, NoiseFlags::pauliOnly());
        Program p = p0;
        p.decoy = DecoyKind::Clifford;
        p.target = &pauli;
        const CompiledProgram c = transpile(
            p.circuit, pauli.machine->device(),
            pauli.machine->calibration());
        Layers frame;
        replayBatch(p, c, *pauli.machine, suite.decoyShots, opt.seed, true,
                    tr, chk, frame, -1);
        L.frameWall = frame.frameWall;
        L.frameShots = frame.frameShots;
        L.frame = frame.frame;
    }
    if (L.frameShots == 0 || L.denseShots == 0)
        chk.fail("probe did not reach both the dense and frame engines");
    addLayerMetrics(rep, tr, traced, L, jobs, lag, stats, overhead);
    Json j;
    j.beginObject().num("setup_s", median(setup)).endObject();
    rep.record.emplace_back("untimed", j.text());
    rep.metrics.push_back(
        {"ops_failed_frac",
         double(chk.failed()) / double(std::max<uint64_t>(1, chk.attempted())),
         "ratio"});
    rep.spans = tr.spans();
    return rep;
}

} // namespace e2e
