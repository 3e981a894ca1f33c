/**
 * @file
 * Runcard layer tests: the bundled IBM runcards must reproduce the
 * legacy Device factories bit-for-bit (same RNG stream, overrides
 * applied after every draw), serialization must round-trip exactly,
 * and every malformed construct must fail as a hard UsageError with
 * file:line:field context.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "device/device.hh"
#include "device/runcard.hh"

using namespace adapt;

namespace
{

/** Exact (bit-level) equality of two calibration snapshots. */
void
expectCalibrationIdentical(const Calibration &a, const Calibration &b)
{
    ASSERT_EQ(a.qubits.size(), b.qubits.size());
    ASSERT_EQ(a.links.size(), b.links.size());
    EXPECT_EQ(a.deviceName, b.deviceName);
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.measureLatencyNs, b.measureLatencyNs);
    EXPECT_EQ(a.pulseBufferNs, b.pulseBufferNs);
    for (size_t q = 0; q < a.qubits.size(); q++) {
        const QubitCalibration &qa = a.qubits[q];
        const QubitCalibration &qb = b.qubits[q];
        EXPECT_EQ(qa.t1Us, qb.t1Us) << "qubit " << q;
        EXPECT_EQ(qa.t2WhiteUs, qb.t2WhiteUs) << "qubit " << q;
        EXPECT_EQ(qa.gateError1Q, qb.gateError1Q) << "qubit " << q;
        EXPECT_EQ(qa.readoutError01, qb.readoutError01)
            << "qubit " << q;
        EXPECT_EQ(qa.readoutError10, qb.readoutError10)
            << "qubit " << q;
        EXPECT_EQ(qa.ouSigmaRadPerUs, qb.ouSigmaRadPerUs)
            << "qubit " << q;
        EXPECT_EQ(qa.ouTauUs, qb.ouTauUs) << "qubit " << q;
        EXPECT_EQ(qa.pulseLatencyNs, qb.pulseLatencyNs)
            << "qubit " << q;
    }
    for (size_t l = 0; l < a.links.size(); l++) {
        EXPECT_EQ(a.links[l].cxError, b.links[l].cxError)
            << "link " << l;
        EXPECT_EQ(a.links[l].cxLatencyNs, b.links[l].cxLatencyNs)
            << "link " << l;
    }
    ASSERT_EQ(a.crosstalkRadPerUs.size(), b.crosstalkRadPerUs.size());
    for (size_t l = 0; l < a.crosstalkRadPerUs.size(); l++) {
        ASSERT_EQ(a.crosstalkRadPerUs[l].size(),
                  b.crosstalkRadPerUs[l].size());
        for (size_t q = 0; q < a.crosstalkRadPerUs[l].size(); q++) {
            EXPECT_EQ(a.crosstalkRadPerUs[l][q],
                      b.crosstalkRadPerUs[l][q])
                << "crosstalk[" << l << "][" << q << "]";
        }
    }
}

void
expectDeviceIdentical(const Device &a, const Device &b)
{
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.topology().numLinks(), b.topology().numLinks());
    for (int l = 0; l < a.topology().numLinks(); l++) {
        EXPECT_EQ(a.topology().link(l).a, b.topology().link(l).a);
        EXPECT_EQ(a.topology().link(l).b, b.topology().link(l).b);
    }
    // Several cycles: identity must hold across drift, not just at
    // the default snapshot.
    for (int cycle : {0, 1, 7}) {
        expectCalibrationIdentical(a.calibration(cycle),
                                   b.calibration(cycle));
    }
}

/** A runcard body that parses cleanly, for the malformed matrix. */
const char kGoodCard[] = R"(name testdev
qubits 3

[topology]
edge 0 1
edge 1 2

[profile]
mean_cx_error 0.01
seed 7

[qubit 1]
t1_us 88.5

[link 0 1]
cx_error 0.009

[crosstalk]
pair 0 1 2 -0.21
)";

} // namespace

TEST(Runcard, BuiltinsReproduceFactories)
{
    const std::vector<
        std::pair<std::string, std::function<Device()>>>
        factories = {
            {"ibmq_rome", [] { return Device::ibmqRome(); }},
            {"ibmq_london", [] { return Device::ibmqLondon(); }},
            {"ibmq_guadalupe", [] { return Device::ibmqGuadalupe(); }},
            {"ibmq_paris", [] { return Device::ibmqParis(); }},
            {"ibmq_toronto", [] { return Device::ibmqToronto(); }},
        };
    ASSERT_EQ(builtinRuncardNames().size(), factories.size());
    for (const auto &[name, factory] : factories) {
        SCOPED_TRACE(name);
        expectDeviceIdentical(builtinRuncardDevice(name), factory());
    }
}

TEST(Runcard, SerializerRoundTripIsExact)
{
    // A device with every override section populated: the round trip
    // must preserve topology, profile, and overrides bit-for-bit.
    DeviceProfile p;
    p.meanT1Us = 63.25;
    p.meanCxError = 0.0171;
    p.seed = 0xabcdef0123456789ull;
    DeviceOverrides ov;
    ov.qubits[0].t1Us = 120.5;
    ov.qubits[2].readoutError01 = 0.0123;
    ov.links[0].cxError = 0.0055;
    ov.links[1].cxLatencyNs = 333.25;
    ov.crosstalkRadPerUs[{0, 2}] = -0.21;
    const Device original(Topology::linear(4), p, ov);

    const std::string text = runcardText(original);
    const Device reparsed = parseRuncard(text, "<round-trip>");
    expectDeviceIdentical(original, reparsed);

    // Serialization is canonical: text -> device -> text is a fixed
    // point, so runcards diff cleanly under version control.
    EXPECT_EQ(text, runcardText(reparsed));
}

TEST(Runcard, BuiltinsRoundTripThroughSerializer)
{
    for (const std::string &name : builtinRuncardNames()) {
        SCOPED_TRACE(name);
        const Device device = builtinRuncardDevice(name);
        expectDeviceIdentical(
            device, parseRuncard(runcardText(device), name));
    }
}

TEST(Runcard, GoodCardParsesWithOverridesApplied)
{
    const Device device = parseRuncard(kGoodCard, "<good>");
    EXPECT_EQ(device.name(), "testdev");
    EXPECT_EQ(device.numQubits(), 3);
    EXPECT_EQ(device.topology().numLinks(), 2);
    const Calibration cal = device.calibration(0);
    // Pinned values land verbatim in every snapshot.
    EXPECT_EQ(cal.qubits[1].t1Us, 88.5);
    EXPECT_EQ(cal.links[0].cxError, 0.009);
    EXPECT_EQ(cal.crosstalk(0, 2), -0.21);
    // Unpinned values come from the generative profile (nonzero).
    EXPECT_GT(cal.qubits[0].t1Us, 0.0);
}

TEST(Runcard, MalformedCardsAreHardUsageErrors)
{
    // Each entry: a mutation of the format and a fragment its error
    // message must carry.  Every case must throw UsageError (never
    // parse to a half-built device) with file:line:field context.
    struct Case
    {
        const char *label;
        std::string text;
        const char *fragment;
    };
    const std::vector<Case> cases = {
        {"missing name", "qubits 3\n",
         "missing the required 'name'"},
        {"missing qubits", "name x\n",
         "missing the required 'qubits'"},
        {"qubit count out of range", "name x\nqubits 0\n",
         "qubit count must be in [1, 4096]"},
        {"non-integer qubits", "name x\nqubits five\n",
         "not an integer"},
        {"duplicate name key", "name x\nname y\nqubits 2\n",
         "duplicate key"},
        {"unknown top-level key", "name x\nqubits 2\nbogus 1\n",
         "unknown key outside any section"},
        {"section before header",
         "name x\nqubits 2\nedge 0 1\n",
         "unknown key outside any section"},
        {"header before name", "[topology]\nname x\nqubits 2\n",
         "'name' and 'qubits' must be declared before"},
        {"unknown section",
         "name x\nqubits 2\n[magic]\n",
         "unknown section"},
        {"edge qubit out of range",
         "name x\nqubits 2\n[topology]\nedge 0 2\n",
         "out of range"},
        {"edge self-loop",
         "name x\nqubits 2\n[topology]\nedge 1 1\n",
         "edge endpoints must differ"},
        {"duplicate edge",
         "name x\nqubits 2\n[topology]\nedge 0 1\nedge 1 0\n",
         "duplicate topology edge"},
        {"negative t1 override",
         "name x\nqubits 2\n[qubit 0]\nt1_us -5\n",
         "value must be positive"},
        {"out-of-range probability",
         "name x\nqubits 2\n[profile]\nmean_cx_error 1.5\n",
         "probability in [0, 1]"},
        {"non-finite profile value",
         "name x\nqubits 2\n[profile]\nmean_t1_us nan\n",
         "value must be finite"},
        {"garbage numeric value",
         "name x\nqubits 2\n[profile]\nmean_t1_us fast\n",
         "not a number"},
        {"trailing junk after a number",
         "name x\nqubits 2\n[profile]\nmean_t1_us 50x\n",
         "not a number"},
        {"overflowing numeric value",
         "name x\nqubits 2\n[profile]\nmean_t1_us 1e999\n",
         "not a number"},
        {"unknown profile key",
         "name x\nqubits 2\n[profile]\nmean_warp_factor 9\n",
         "unknown [profile] key"},
        {"duplicate profile key",
         "name x\nqubits 2\n[profile]\nmean_t1_us 50\n"
         "mean_t1_us 60\n",
         "duplicate key in [profile]"},
        {"negative seed",
         "name x\nqubits 2\n[profile]\nseed -3\n",
         "not a non-negative integer"},
        {"qubit section out of range",
         "name x\nqubits 2\n[qubit 5]\n",
         "out of range"},
        {"duplicate qubit section",
         "name x\nqubits 2\n[qubit 0]\n[qubit 0]\n",
         "duplicate qubit section"},
        {"duplicate qubit key",
         "name x\nqubits 2\n[qubit 0]\nt1_us 50\nt1_us 60\n",
         "duplicate key in [qubit 0]"},
        {"unknown qubit key",
         "name x\nqubits 2\n[qubit 0]\ncolor blue\n",
         "unknown [qubit] key"},
        {"dangling link section",
         "name x\nqubits 3\n[topology]\nedge 0 1\n[link 1 2]\n",
         "dangling link"},
        {"duplicate link section",
         "name x\nqubits 2\n[topology]\nedge 0 1\n"
         "[link 0 1]\n[link 1 0]\n",
         "duplicate link section"},
        {"dangling crosstalk pair",
         "name x\nqubits 3\n[topology]\nedge 0 1\n"
         "[crosstalk]\npair 1 2 0 0.1\n",
         "dangling link"},
        {"crosstalk spectator on endpoint",
         "name x\nqubits 3\n[topology]\nedge 0 1\n"
         "[crosstalk]\npair 0 1 1 0.1\n",
         "spectator must not be a link endpoint"},
        {"duplicate crosstalk pair",
         "name x\nqubits 3\n[topology]\nedge 0 1\n"
         "[crosstalk]\npair 0 1 2 0.1\npair 0 1 2 0.2\n",
         "duplicate crosstalk pair"},
        {"malformed section header",
         "name x\nqubits 2\n[topology\n",
         "malformed section header"},
        {"latency bounds inverted",
         "name x\nqubits 2\n[profile]\nmin_cx_latency_ns 900\n"
         "max_cx_latency_ns 300\n",
         "min_cx_latency_ns exceeds max_cx_latency_ns"},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        try {
            parseRuncard(c.text, "<bad>");
            FAIL() << "expected UsageError";
        } catch (const UsageError &e) {
            const std::string msg = e.what();
            // file:line prefix plus the case's specific diagnosis.
            EXPECT_NE(msg.find("<bad>:"), std::string::npos) << msg;
            EXPECT_NE(msg.find(c.fragment), std::string::npos) << msg;
        }
    }
}

TEST(Runcard, UnreadableFileAndUnknownBuiltinFail)
{
    EXPECT_THROW(loadRuncard("/nonexistent/path/card.run"),
                 UsageError);
    EXPECT_THROW(builtinRuncardText("ibmq_nowhere"), UsageError);
}
