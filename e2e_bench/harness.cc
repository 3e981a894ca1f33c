#include "harness.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace e2e
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailPercentile(std::vector<double> values, double target,
               size_t min_beyond)
{
    const size_t n = values.size();
    if (n < min_beyond + 1 || !(target > 0.0 && target <= 1.0)) {
        throw std::invalid_argument(
            "tail percentile needs more samples than min_beyond");
    }
    std::sort(values.begin(), values.end());
    // Nearest rank k (1-based) of the target, capped so that n - k
    // samples remain beyond it.
    const auto want = static_cast<size_t>(
        std::ceil(target * static_cast<double>(n) - 1e-9));
    const size_t rank = std::max<size_t>(1, std::min(want, n - min_beyond));
    Tail tail;
    tail.samples = n;
    tail.beyond = n - rank;
    tail.value = values[rank - 1];
    tail.pct = static_cast<double>(rank) / static_cast<double>(n);
    return tail;
}

std::string
checkShots(const adapt::Distribution &dist, int64_t shots)
{
    if (shots <= 0 ||
        dist.totalSamples() != static_cast<uint64_t>(shots)) {
        return "histogram holds " + std::to_string(dist.totalSamples()) +
               " samples, " + std::to_string(shots) + " requested";
    }
    return "";
}

std::string
checkIdentical(const adapt::Distribution &a, const adapt::Distribution &b)
{
    // Equal totals and equal normalized weights imply equal integer
    // counts: both sides divide by the same exact total.
    if (a.totalSamples() != b.totalSamples())
        return "sample totals differ";
    if (a.probabilities() != b.probabilities())
        return "histograms differ";
    return "";
}

std::string
checkFidelity(double fidelity, const adapt::Distribution &measured)
{
    if (measured.totalSamples() == 0)
        return "fidelity scored against an empty histogram";
    if (!(fidelity >= 0.0 && fidelity <= 1.0))
        return "fidelity " + std::to_string(fidelity) + " outside [0,1]";
    return "";
}

std::string
checkAnswer(const adapt::Distribution &ideal, const Answer &answer)
{
    if (ideal.empty())
        return "empty ideal distribution";
    switch (answer.kind) {
      case Answer::Kind::Exact:
        if (ideal.probability(answer.key) < 0.999) {
            return "P(" + std::to_string(answer.key) + ") = " +
                   std::to_string(ideal.probability(answer.key));
        }
        return "";
      case Answer::Kind::Mode:
        if (ideal.mode() != answer.key) {
            return "mode " + std::to_string(ideal.mode()) +
                   ", expected " + std::to_string(answer.key);
        }
        return "";
      case Answer::Kind::Complement: {
        const uint64_t mask =
            answer.bits >= 64 ? ~uint64_t{0}
                              : (uint64_t{1} << answer.bits) - 1;
        double total = 0.0;
        for (const auto &[key, p] : ideal.probabilities()) {
            total += p;
            if (std::abs(p - ideal.probability(~key & mask)) > 1e-9)
                return "P(x) != P(~x) at x = " + std::to_string(key);
        }
        if (std::abs(total - 1.0) > 1e-9)
            return "probabilities sum to " + std::to_string(total);
        return "";
      }
    }
    return "unknown answer kind";
}

void
Checker::expect(const std::string &what, const std::string &failure)
{
    attempted_++;
    if (!failure.empty())
        failures_.push_back(what + ": " + failure);
}

void
Checker::fail(const std::string &what)
{
    failures_.push_back(what);
}

int
Tracer::begin(const std::string &name, int program)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.program = program;
    span.start = now();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].end = now();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::add(const std::string &name, double start, double end,
            int program)
{
    if (!enabled_)
        return;
    spans_.push_back({name, start, end,
                      open_.empty() ? -1 : open_.back(), program});
}

std::map<std::string, double>
Tracer::totals() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += s.end - s.start;
    return out;
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent
        // (serve jobs overlap each other).
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        out[s.name] += (s.end - s.start) - covered;
    }
    return out;
}

namespace
{

/** JSON string literal for @p s (quotes included). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace

void
Json::prefix(const std::string &key)
{
    if (!first_.empty()) {
        if (!first_.back())
            out_ += ',';
        first_.back() = false;
    }
    if (!key.empty())
        out_ += quote(key) + ':';
}

Json &
Json::beginObject(const std::string &key)
{
    prefix(key);
    out_ += '{';
    first_.push_back(true);
    return *this;
}

Json &
Json::endObject()
{
    out_ += '}';
    first_.pop_back();
    return *this;
}

Json &
Json::beginArray(const std::string &key)
{
    prefix(key);
    out_ += '[';
    first_.push_back(true);
    return *this;
}

Json &
Json::endArray()
{
    out_ += ']';
    first_.pop_back();
    return *this;
}

Json &
Json::num(const std::string &key, double value)
{
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite JSON number: " + key);
    prefix(key);
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    out_.append(buf, res.ptr);
    return *this;
}

Json &
Json::num(double value)
{
    return num("", value);
}

Json &
Json::integer(const std::string &key, int64_t value)
{
    prefix(key);
    out_ += std::to_string(value);
    return *this;
}

Json &
Json::str(const std::string &key, const std::string &value)
{
    prefix(key);
    out_ += quote(value);
    return *this;
}

Json &
Json::str(const std::string &value)
{
    return str("", value);
}

Json &
Json::boolean(const std::string &key, bool value)
{
    prefix(key);
    out_ += value ? "true" : "false";
    return *this;
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    prefix(key);
    out_ += json;
    return *this;
}

std::string
spansJson(const std::vector<Span> &spans)
{
    Json j;
    j.beginArray();
    for (const Span &s : spans) {
        j.beginObject()
            .str("name", s.name)
            .num("start", s.start)
            .num("end", s.end)
            .integer("parent", s.parent)
            .integer("program", s.program)
            .endObject();
    }
    j.endArray();
    return j.text();
}

std::string
resultJson(const Checker &checker, const std::vector<Metric> &metrics)
{
    Json j;
    j.beginObject()
        .boolean("correct", checker.failed() == 0)
        .integer("attempted", static_cast<int64_t>(checker.attempted()))
        .integer("failed", static_cast<int64_t>(checker.failed()))
        .beginObject("metrics");
    for (const Metric &m : metrics) {
        j.beginObject(m.name)
            .num("value", m.value)
            .str("unit", m.unit)
            .endObject();
    }
    j.endObject().endObject();
    return j.text();
}

} // namespace e2e
