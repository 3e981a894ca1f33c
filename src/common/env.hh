/**
 * @file
 * Hardened environment-knob parsing.
 *
 * The tree reads exactly two environment variables, both through
 * these helpers: ADAPT_NUM_THREADS (common/parallel.cc) and
 * ADAPT_SHARD_WORKER_BIN (serve/shard_executor.cc).  Everything else
 * is configured in code through ServerOptions, ShardOptions,
 * FaultConfig and NoisyMachine::setProgramCache.  Garbage, negative,
 * and overflowing values are rejected with a one-line warning
 * (logging.hh) and a documented fallback instead of strtol's silent
 * 0 / clamp.  The string parsers are pure functions so tests can
 * exercise every rejection path without touching the process
 * environment.
 */

#ifndef ADAPT_COMMON_ENV_HH
#define ADAPT_COMMON_ENV_HH

#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "common/logging.hh"

namespace adapt
{

/** Raw value pointer (nullptr when unset), for sites that need the
 *  uninterpreted text — e.g. a file path — rather than a parsed
 *  knob. */
inline const char *
envText(const char *name)
{
    return std::getenv(name);
}

/**
 * Emit @p message through warn() at most once per distinct @p key for
 * the process lifetime.  Knob rejections key on name + "=" + value:
 * a malformed knob read on every call warns once instead of flooding
 * the log, while a *changed* (still malformed) value warns again.
 */
inline void
warnOnce(const std::string &key, const std::string &message)
{
    static std::mutex mu;
    static std::set<std::string> seen;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!seen.insert(key).second)
            return;
    }
    warn(message);
}

/**
 * Strict base-10 integer parse: the entire string (modulo leading /
 * trailing whitespace handled by strtoll, which accepts leading only —
 * trailing junk is rejected here) must be one in-range integer.
 * Returns nullopt on empty input, trailing garbage, or overflow.
 */
inline std::optional<long long>
parseInt(const char *text)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return value;
}

/**
 * Parse an integer knob value against [lo, hi]; nullopt (after a
 * warning naming the knob) when the text is garbage or out of range.
 */
inline std::optional<long long>
parseIntKnob(const char *name, const char *text, long long lo,
             long long hi)
{
    const std::optional<long long> parsed = parseInt(text);
    const std::string key =
        std::string(name) + "=" + (text ? text : "");
    if (!parsed.has_value()) {
        warnOnce(key, std::string(name) + "=\"" + (text ? text : "") +
                          "\" is not an integer; ignoring it");
        return std::nullopt;
    }
    if (*parsed < lo || *parsed > hi) {
        warnOnce(key, std::string(name) + "=" +
                          std::to_string(*parsed) + " is outside [" +
                          std::to_string(lo) + ", " +
                          std::to_string(hi) + "]; ignoring it");
        return std::nullopt;
    }
    return parsed;
}

/** Integer environment knob bounded to [lo, hi]; unset, garbage, or
 *  out-of-range values fall back to @p fallback (with a warning for
 *  the latter two). */
inline long long
envInt(const char *name, long long fallback, long long lo,
       long long hi)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    return parseIntKnob(name, text, lo, hi).value_or(fallback);
}

} // namespace adapt

#endif // ADAPT_COMMON_ENV_HH
