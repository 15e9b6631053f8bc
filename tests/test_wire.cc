/**
 * @file
 * The frame protocol a conopt_sweep shard speaks to the driver
 * (src/sim/wire.hh): the frame codec and every shard -> driver
 * envelope round-trip exactly, and malformed streams and envelopes of
 * any other type are rejected (never silently resynced or skipped).
 * The driver end of the same wire, with real shard processes, is
 * covered in tests/test_sweep_driver.cc.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/wire.hh"

using namespace conopt;

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsFramesFedByteByByte)
{
    const std::vector<std::string> payloads = {
        "{}", "", std::string("x\ny\0z", 5), "{\"type\":\"progress\"}"};
    std::string wire;
    for (const auto &p : payloads)
        wire += sim::encodeFrame(p);

    sim::FrameReader rd;
    std::vector<std::string> got;
    std::string payload, err;
    for (char c : wire) {
        rd.feed(&c, 1);
        int r;
        while ((r = rd.next(&payload, &err)) == 1)
            got.push_back(payload);
        ASSERT_EQ(r, 0) << err;
    }
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(rd.pending(), 0u) << "no residue after the last frame";
}

TEST(FrameCodec, WaitsForMorePayloadBytes)
{
    sim::FrameReader rd;
    std::string payload, err;
    rd.feed("5 abc", 5);
    EXPECT_EQ(rd.next(&payload, &err), 0) << "frame is incomplete";
    rd.feed("de\n", 3);
    ASSERT_EQ(rd.next(&payload, &err), 1) << err;
    EXPECT_EQ(payload, "abcde");
}

TEST(FrameCodec, RejectsMalformedStreams)
{
    const struct
    {
        const char *name;
        std::string wire;
    } cases[] = {
        {"non-numeric length", "xyz {}\n"},
        {"negative length", "-3 {}\n"},
        {"oversized length", "999999999999 x\n"},
        {"over frame cap",
         std::to_string(sim::kMaxFrameBytes + 1) + " x\n"},
        {"missing terminator", "3 abcX"},
        {"no header space", "0123456789012345678901234"},
    };
    for (const auto &c : cases) {
        sim::FrameReader rd;
        rd.feed(c.wire.data(), c.wire.size());
        std::string payload, err;
        EXPECT_EQ(rd.next(&payload, &err), -1) << c.name;
        EXPECT_FALSE(err.empty()) << c.name;
    }
}

// ---------------------------------------------------------------------------
// Envelopes.
// ---------------------------------------------------------------------------

TEST(Envelopes, ServerFramesRoundTrip)
{
    sim::ServerFrame f;
    std::string err;

    ASSERT_TRUE(sim::parseServerFrame(
        sim::makeProgressFrame("CONOPT-PROGRESS v1 done=1"), &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Progress);
    EXPECT_EQ(f.line, "CONOPT-PROGRESS v1 done=1");

    ASSERT_TRUE(sim::parseServerFrame(
        sim::makeResultFrame("{\"jobs\":[]}\n"), &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Result);
    EXPECT_EQ(f.artifact, "{\"jobs\":[]}\n") << "artifact bytes verbatim";

    ASSERT_TRUE(sim::parseServerFrame(sim::makeErrorFrame(1, "bench died"),
                                      &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Error);
    EXPECT_EQ(f.code, 1) << "code 1 = bench ran and failed";
    EXPECT_EQ(f.message, "bench died");

    ASSERT_TRUE(sim::parseServerFrame(sim::makeErrorFrame(2, "bad --shard"),
                                      &f, &err))
        << err;
    EXPECT_EQ(f.code, 2) << "code 2 = request never ran";
}

TEST(Envelopes, RejectsMalformedServerFrames)
{
    const char *cases[] = {
        "not json at all",
        "[1,2,3]",
        "{\"type\":\"launch-missiles\"}",
        "{\"line\":\"orphan\"}",
        "{\"type\":\"progress\"}",         // no line
        "{\"type\":\"result\"}",           // no artifact
        "{\"type\":\"error\",\"code\":1}", // no message
        // A shard sends only progress/result/error envelopes.
        "{\"type\":\"healthz\"}",
        "{\"type\":\"status\"}",
    };
    for (const char *c : cases) {
        sim::ServerFrame f;
        std::string err;
        EXPECT_FALSE(sim::parseServerFrame(c, &f, &err)) << c;
        EXPECT_FALSE(err.empty()) << c;
    }
}
