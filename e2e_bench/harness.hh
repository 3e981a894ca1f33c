/**
 * @file
 * Benchmark plumbing shared by the driver and its self-tests: the
 * wall clock, the tail-percentile rule, the correctness checks, the
 * in-memory span tracer, and a minimal JSON writer.
 *
 * Nothing here touches the library's RNG streams or its internals:
 * the checks read finished histograms and the tracer only records
 * timestamps taken around calls into the library.
 */

#ifndef ADAPT_E2E_BENCH_HARNESS_HH
#define ADAPT_E2E_BENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace e2e
{

/** Seconds on the steady clock (arbitrary epoch). */
double now();

/** Process CPU seconds (all threads). */
double cpuNow();

/** Median of @p values. @pre not empty */
double median(std::vector<double> values);

/**
 * The tail-percentile rule: the highest nearest-rank percentile not
 * above @p target that leaves at least @p min_beyond samples strictly
 * beyond its rank.
 */
struct Tail
{
    double pct = 0.0;   //!< percentile actually used, in (0, 1]
    double value = 0.0;
    size_t samples = 0; //!< sample count the percentile was taken over
    size_t beyond = 0;  //!< samples ranked above it
};

/** @throws std::invalid_argument when fewer than min_beyond + 1
 *  samples exist (no rank qualifies). */
Tail tailPercentile(std::vector<double> values, double target,
                    size_t min_beyond = 10);

/**
 * Correctness checks.  Each returns "" on success and a one-line
 * reason on failure; none depends on the draw law, only on exact
 * counts, exact identities, and noise-free answers.
 */
std::string checkShots(const adapt::Distribution &dist, int64_t shots);

std::string checkIdentical(const adapt::Distribution &a,
                           const adapt::Distribution &b);

std::string checkFidelity(double fidelity,
                          const adapt::Distribution &measured);

/** Known answer of a noise-free program output. */
struct Answer
{
    enum class Kind
    {
        Exact,      //!< all mass on `key`
        Mode,       //!< most likely outcome is `key`
        Complement, //!< P(x) == P(~x) over `bits` clbits (QAOA MaxCut)
    };
    Kind kind = Kind::Exact;
    uint64_t key = 0;
    int bits = 0;
};

std::string checkAnswer(const adapt::Distribution &ideal,
                        const Answer &answer);

/** Tally of checks: attempted / failed plus the failure reasons. */
class Checker
{
  public:
    /** Count one check; a non-empty @p failure marks it failed. */
    void expect(const std::string &what, const std::string &failure);

    /** Count @p n operations attempted outside the checks (jobs). */
    void attempt(uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failures_.size(); }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  //!< index of the enclosing span, -1 at the root
    int program = -1; //!< per-program (or per-job) id, -1 when none
};

/**
 * In-memory span recorder.  Disabled tracers record nothing (every
 * call is a branch), so the untraced passes that produce the
 * end-to-end numbers pay no tracing cost.  Not thread-safe: spans are
 * opened on the driving thread; intervals observed elsewhere are
 * added afterwards with add().
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name, int program = -1);
    void end(int id);

    /** Record an already-finished interval under the innermost open
     *  span. */
    void add(const std::string &name, double start, double end,
             int program = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration per span name (seconds). */
    std::map<std::string, double> totals() const;

    /** Summed self time per span name: duration minus the union of
     *  its direct children's intervals (seconds). */
    std::map<std::string, double> selfTimes() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, int program = -1)
        : tracer_(tracer), id_(tracer.begin(name, program))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * Minimal JSON text builder: objects and arrays opened and closed
 * explicitly, keys and values escaped, numbers in shortest
 * round-trip form.  Non-finite numbers throw (JSON has none).
 */
class Json
{
  public:
    Json &beginObject(const std::string &key = "");
    Json &endObject();
    Json &beginArray(const std::string &key = "");
    Json &endArray();
    Json &num(const std::string &key, double value);
    Json &num(double value);
    Json &integer(const std::string &key, int64_t value);
    Json &str(const std::string &key, const std::string &value);
    Json &str(const std::string &value);
    Json &boolean(const std::string &key, bool value);

    /** Append @p json (already-valid JSON text) as a value. */
    Json &raw(const std::string &key, const std::string &json);

    const std::string &text() const { return out_; }

  private:
    void prefix(const std::string &key);
    std::string out_;
    std::vector<bool> first_;
};

/** Spans as a JSON array. */
std::string spansJson(const std::vector<Span> &spans);

/**
 * The result object the driver prints last: correct / attempted /
 * failed and metrics {name: {value, unit}}.
 */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string resultJson(const Checker &checker,
                       const std::vector<Metric> &metrics);

} // namespace e2e

#endif // ADAPT_E2E_BENCH_HARNESS_HH
