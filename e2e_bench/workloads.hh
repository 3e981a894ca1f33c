/**
 * @file
 * The benchmark's four workloads (see README.md for why each exists):
 *
 *   paper_small    four-policy loop, Table 4 programs <= 8 qubits,
 *                  ibmq_toronto, all noise channels, default shots
 *   paper_qaoa10   the same loop on QAOA-10A/B at the Fig. 13 shots
 *   pauli_ablation the loop under NoiseFlags::pauliOnly() on two
 *                  toronto programs (Seeded decoys) plus a BV program
 *                  with Clifford decoys on a 7x7 synthetic grid
 *   serve_open     open-loop multi-tenant JobServer traffic with
 *                  sharded program jobs (runs by name; BENCHMARK.json
 *                  does not score it, see README.md)
 *
 * Every workload runs through the library's public API only.
 */

#ifndef ADAPT_E2E_BENCH_WORKLOADS_HH
#define ADAPT_E2E_BENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"

namespace e2e
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** What a run hands back to the driver for printing. */
struct Report
{
    std::vector<Metric> metrics;
    /** Extra record fields as (key, JSON text) pairs. */
    std::vector<std::pair<std::string, std::string>> record;
    std::vector<Span> spans;
};

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; checks land in @p checker. */
Report runWorkload(const Options &options, Checker &checker);

} // namespace e2e

#endif // ADAPT_E2E_BENCH_WORKLOADS_HH
