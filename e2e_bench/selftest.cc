/**
 * @file
 * Self-tests of the benchmark's own plumbing: the tail-percentile
 * rule, every correctness check against a deliberately corrupted
 * histogram, span self times, and the JSON writer's escaping and
 * refusal of non-finite numbers.  (That a whole run's output parses
 * is checked end to end by test_run.py.)
 */

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "harness.hh"

namespace e2e
{
namespace
{

using adapt::Distribution;

Distribution
histogram()
{
    Distribution d;
    d.addSamples(0b101, 900);
    d.addSamples(0b001, 60);
    d.addSamples(0b100, 40);
    return d;
}

TEST(TailPercentile, KeepsTenSamplesBeyond)
{
    for (size_t n = 11; n <= 500; n++) {
        std::vector<double> v(n);
        for (size_t i = 0; i < n; i++)
            v[i] = static_cast<double>((i * 7919) % n); // shuffled ranks
        const Tail t = tailPercentile(v, 0.95);
        EXPECT_GE(t.beyond, 10u) << n;
        EXPECT_EQ(t.samples, n);
        // The rank is the highest allowed: the next one up would
        // either pass the target or leave fewer than ten beyond.
        const size_t rank = n - t.beyond;
        EXPECT_TRUE(rank + 1 > static_cast<size_t>(std::ceil(0.95 * n)) ||
                    n - (rank + 1) < 10)
            << n;
        EXPECT_DOUBLE_EQ(t.value, static_cast<double>(rank - 1));
        // Never above the target's nearest rank.
        EXPECT_LE(rank, static_cast<size_t>(std::ceil(0.95 * n)));
    }
}

TEST(TailPercentile, ExactP95WhenSamplesAllow)
{
    std::vector<double> v(200);
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<double>(i + 1);
    const Tail t = tailPercentile(v, 0.95);
    EXPECT_DOUBLE_EQ(t.pct, 0.95);
    EXPECT_DOUBLE_EQ(t.value, 190.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, RefusesTooFewSamples)
{
    EXPECT_THROW(tailPercentile(std::vector<double>(10, 1.0), 0.95),
                 std::invalid_argument);
    EXPECT_NO_THROW(tailPercentile(std::vector<double>(11, 1.0), 0.95));
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Checks, ShotsTripOnCorruptedHistogram)
{
    Distribution d = histogram();
    EXPECT_EQ(checkShots(d, 1000), "");
    d.addSample(0b111); // one extra shot
    EXPECT_NE(checkShots(d, 1000), "");
    EXPECT_NE(checkShots(Distribution{}, 1000), "");
}

TEST(Checks, IdentityTripsOnCorruptedHistogram)
{
    const Distribution a = histogram();
    EXPECT_EQ(checkIdentical(a, histogram()), "");

    Distribution moved; // same total, one count moved between keys
    moved.addSamples(0b101, 899);
    moved.addSamples(0b001, 61);
    moved.addSamples(0b100, 40);
    EXPECT_NE(checkIdentical(a, moved), "");

    Distribution extra = histogram();
    extra.addSample(0b101);
    EXPECT_NE(checkIdentical(a, extra), "");
}

TEST(Checks, FidelityTripsOnCorruptedHistogram)
{
    const Distribution h = histogram();
    EXPECT_EQ(checkFidelity(0.9, h), "");
    EXPECT_NE(checkFidelity(0.9, Distribution{}), ""); // emptied
    EXPECT_NE(checkFidelity(-0.1, h), "");
    EXPECT_NE(checkFidelity(1.5, h), "");
    EXPECT_NE(checkFidelity(std::nan(""), h), "");
}

TEST(Checks, AnswersTripOnCorruptedHistogram)
{
    Distribution exact;
    exact.setProbability(0b101, 1.0);
    const Answer want{Answer::Kind::Exact, 0b101, 0};
    EXPECT_EQ(checkAnswer(exact, want), "");
    Distribution leaked = exact;
    leaked.setProbability(0b100, 0.01);
    EXPECT_NE(checkAnswer(leaked, want), "");

    const Answer mode{Answer::Kind::Mode, 0b101, 0};
    EXPECT_EQ(checkAnswer(histogram(), mode), "");
    Distribution flipped = histogram();
    flipped.addSamples(0b001, 2000);
    EXPECT_NE(checkAnswer(flipped, mode), "");

    Distribution sym; // P(x) == P(~x) over 3 bits
    sym.setProbability(0b000, 0.25);
    sym.setProbability(0b111, 0.25);
    sym.setProbability(0b010, 0.25);
    sym.setProbability(0b101, 0.25);
    const Answer comp{Answer::Kind::Complement, 0, 3};
    EXPECT_EQ(checkAnswer(sym, comp), "");
    Distribution skew = sym;
    skew.setProbability(0b111, 0.30);
    EXPECT_NE(checkAnswer(skew, comp), "");

    EXPECT_NE(checkAnswer(Distribution{}, want), "");
}

TEST(Checker, CountsAttemptsAndFailures)
{
    Checker c;
    c.expect("ok", "");
    c.expect("bad", "broken");
    c.attempt(3);
    c.fail("job rejected");
    EXPECT_EQ(c.attempted(), 5u);
    EXPECT_EQ(c.failed(), 2u);
    EXPECT_EQ(c.failures().front(), "bad: broken");
}

TEST(Tracer, SelfTimeSubtractsChildUnion)
{
    // Root open for >= 20 ms; children at +1..4, +3..6 (overlapping)
    // and +8..9 ms cover a 6 ms union of it.
    Tracer t(true);
    const int root = t.begin("root");
    const double s = t.spans()[0].start;
    t.add("child", s + 1e-3, s + 4e-3);
    t.add("child", s + 3e-3, s + 6e-3);
    t.add("child", s + 8e-3, s + 9e-3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.end(root);
    const std::vector<Span> &spans = t.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[1].parent, 0);
    const double root_len = spans[0].end - spans[0].start;
    EXPECT_NEAR(t.selfTimes().at("root"), root_len - 6e-3, 1e-9);
    EXPECT_NEAR(t.selfTimes().at("child"), 7e-3, 1e-9);
    EXPECT_NEAR(t.totals().at("child"), 7e-3, 1e-9);

    Tracer off(false);
    EXPECT_EQ(off.begin("x"), -1);
    off.add("y", 0.0, 1.0);
    EXPECT_TRUE(off.spans().empty());
}

TEST(Json, EscapesAndRefusesNonFinite)
{
    Json j;
    j.beginObject().str("k\"ey", "a\\b\nc").num("x", 0.1).endObject();
    EXPECT_EQ(j.text(), "{\"k\\\"ey\":\"a\\\\b\\nc\",\"x\":0.1}");
    Json bad;
    bad.beginObject();
    EXPECT_THROW(bad.num("inf", std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(Json, ResultHasExactlyFourKeys)
{
    Checker c;
    c.expect("ok", "");
    const std::string text =
        resultJson(c, {{"loop_s", 1.25, "s"}, {"setup_s", 0.5, "s"}});
    EXPECT_EQ(text,
              "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":"
              "{\"loop_s\":{\"value\":1.25,\"unit\":\"s\"},"
              "\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
}

} // namespace
} // namespace e2e
