/**
 * @file
 * Benchmark driver: parses the command-line arguments, refuses a run
 * whose thread pool is not the pinned size, runs one workload, and
 * prints a record line followed by the result line (the last line of
 * standard output).  Normally started through run.py, which builds
 * it and pins the pool.
 *
 *   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *             --threads POOL [--rev REV] [--out DIR]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/parallel.hh"
#include "sim/frame_batch.hh"
#include "sim/statevector.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "e2e_bench: " << why
              << "\nusage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --threads POOL [--rev REV] [--out DIR]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    int threads = 0;
    std::string rev = "unknown", out_dir;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = val;
            else if (arg == "--seed")
                opt.seed = std::stoull(val);
            else if (arg == "--seconds")
                opt.seconds = std::stod(val);
            else if (arg == "--trace")
                opt.trace = std::stoi(val) != 0;
            else if (arg == "--threads")
                threads = std::stoi(val);
            else if (arg == "--rev")
                rev = val;
            else if (arg == "--out")
                out_dir = val;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    bool known = false;
    for (const std::string &name : e2e::workloadNames())
        known = known || name == opt.workload;
    if (!known)
        usage("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");

    // A serial number must be serial: the pool the library resolves
    // has to be exactly the pinned size.
    const int pool = adapt::ThreadPool::global().size();
    if (threads < 1 || adapt::defaultThreads() != threads || pool != threads) {
        std::cerr << "e2e_bench: pool size " << pool << " (defaultThreads "
                  << adapt::defaultThreads() << ") differs from the pinned "
                  << threads << "; refusing to run\n";
        return 3;
    }

    e2e::Checker checker;
    e2e::Report report;
    try {
        report = e2e::runWorkload(opt, checker);
    } catch (const std::exception &e) {
        std::cerr << "e2e_bench: " << e.what() << "\n";
        return 1;
    }

    e2e::Json rec;
    rec.beginObject()
        .beginObject("record")
        .str("workload", opt.workload)
        .integer("seed", static_cast<int64_t>(opt.seed))
        .num("seconds", opt.seconds)
        .boolean("trace", opt.trace)
        .str("git_rev", rev)
        .integer("pool_size", pool)
        .integer("hardware_concurrency",
                 static_cast<int64_t>(std::thread::hardware_concurrency()))
        .str("dense_kernel_isa", adapt::denseKernelIsa())
        .str("frame_kernel_isa", adapt::frameKernelIsa());
    for (const auto &[key, json] : report.record)
        rec.raw(key, json);
    rec.beginArray("failures");
    for (const std::string &f : checker.failures())
        rec.str(f);
    rec.endArray().endObject().endObject();

    if (!out_dir.empty()) {
        const std::string stem = out_dir + "/" + opt.workload + "_seed" +
                                 std::to_string(opt.seed) +
                                 (opt.trace ? "_trace" : "");
        std::ofstream(stem + ".record.json") << rec.text() << "\n";
        if (opt.trace) {
            std::ofstream(stem + ".spans.json")
                << e2e::spansJson(report.spans) << "\n";
        }
    }
    for (const std::string &f : checker.failures())
        std::cerr << "e2e_bench: check failed: " << f << "\n";
    std::cout << rec.text() << "\n"
              << e2e::resultJson(checker, report.metrics) << std::endl;
    return 0;
}
