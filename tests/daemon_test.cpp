/**
 * @file
 * cdpud daemon battery (tier 1): the wire protocol's grammar contract,
 * the daemon's differential contract (a response over the socket is
 * byte-identical to the same call made directly against the codec
 * registry, for every curated codec including pipelines), and the
 * serving-path failure modes — malformed/truncated/oversized frames,
 * unknown specs, tenant quotas, drop/deadline admission, graceful
 * drain — each with its per-tenant counter attribution. The
 * multi-connection case doubles as the TSan leg's target.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "codec/obs_bridge.h"
#include "codec/registry.h"
#include "corpus/generators.h"
#include "obs/slo.h"
#include "serve/client.h"
#include "serve/codec_context.h"
#include "serve/daemon.h"

namespace cdpu::serve
{
namespace
{

/** Unique per-process socket path so parallel ctest runs and crashed
 *  predecessors cannot collide. */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/cdpu-daemon-test-" + std::to_string(::getpid()) +
           "-" + tag + ".sock";
}

Bytes
samplePayload(std::size_t bytes, u64 seed,
              corpus::DataClass cls = corpus::DataClass::textLike)
{
    Rng rng(seed);
    return corpus::generate(cls, bytes, rng);
}

/** The direct-registry reference: same call, no socket. */
Bytes
directCall(codec::CodecId id, codec::Direction direction,
           ByteSpan payload, int level, unsigned window_log)
{
    hcb::ReplayCall call;
    call.codec = id;
    call.direction = direction;
    call.payload = payload;
    call.level = level;
    call.windowLog = window_log;
    CodecContext context;
    ByteSpan output;
    EXPECT_TRUE(context.execute(call, output).ok());
    return Bytes(output.begin(), output.end());
}

WireRequest
makeRequest(u64 request_id, const std::string &spec,
            codec::Direction direction, Bytes payload,
            int level = 3, unsigned window_log = 17, u64 tenant = 0)
{
    WireRequest request;
    request.requestId = request_id;
    request.tenantId = tenant;
    request.codecSpec = spec;
    request.direction = direction;
    request.level = level;
    request.windowLog = window_log;
    request.payload = std::move(payload);
    return request;
}

// --- Wire grammar (pure bytes, no sockets) ----------------------------

TEST(WireTest, RequestRoundTripsThroughEncodeParse)
{
    WireRequest request = makeRequest(
        0x1122334455667788ull, "delta+rle+snappy",
        codec::Direction::decompress, samplePayload(777, 9), 7, 20,
        0xdeadbeefull);
    request.deadlineNs = 2500000;

    const Bytes frame = encodeRequest(request);
    WireLimits limits;
    Result<WireRequest> parsed = parseRequest(frame, limits);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().requestId, request.requestId);
    EXPECT_EQ(parsed.value().tenantId, request.tenantId);
    EXPECT_EQ(parsed.value().codecSpec, request.codecSpec);
    EXPECT_EQ(parsed.value().direction, request.direction);
    EXPECT_EQ(parsed.value().level, request.level);
    EXPECT_EQ(parsed.value().windowLog, request.windowLog);
    EXPECT_EQ(parsed.value().deadlineNs, request.deadlineNs);
    EXPECT_EQ(parsed.value().payload, request.payload);
}

TEST(WireTest, ResponseRoundTripsThroughEncodeParse)
{
    WireResponse response;
    response.requestId = 42;
    response.code = WireCode::quotaExceeded;
    response.serviceNs = 123456;
    response.message = "tenant byte quota exhausted";
    response.payload = samplePayload(64, 3);

    const Bytes frame = encodeResponse(response);
    WireLimits limits;
    Result<WireResponse> parsed = parseResponse(frame, limits);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().requestId, response.requestId);
    EXPECT_EQ(parsed.value().code, response.code);
    EXPECT_EQ(parsed.value().serviceNs, response.serviceNs);
    EXPECT_EQ(parsed.value().message, response.message);
    EXPECT_EQ(parsed.value().payload, response.payload);
}

TEST(WireTest, EveryStrictPrefixIsRejectedAsDataError)
{
    const Bytes frame = encodeRequest(makeRequest(
        1, "snappy", codec::Direction::compress, samplePayload(96, 4)));
    WireLimits limits;
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        Result<WireRequest> parsed =
            parseRequest(ByteSpan(frame.data(), cut), limits);
        ASSERT_FALSE(parsed.ok()) << "prefix of " << cut << " parsed";
        EXPECT_EQ(failureClass(parsed.status().code()),
                  FailureClass::dataError)
            << "prefix " << cut;
    }
    // Trailing garbage after a complete frame must not parse either —
    // the whole-buffer entry point owns exactly one request.
    Bytes padded = frame;
    padded.push_back(0);
    EXPECT_FALSE(parseRequest(padded, limits).ok());
}

TEST(WireTest, HostileHeaderClaimsAreRejectedBeforeTheBody)
{
    const WireLimits limits;
    const Bytes frame = encodeRequest(makeRequest(
        1, "snappy", codec::Direction::compress, samplePayload(64, 5)));
    const auto header = [&](const Bytes &f) {
        return ByteSpan(f.data(), kRequestHeaderBytes);
    };
    ASSERT_TRUE(parseRequestHeader(header(frame), limits).ok());

    Bytes bad = frame;
    bad[0] = 'X'; // magic
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[4] = kWireVersion + 1; // version
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[5] = 7; // direction discriminator
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[6] = 0; // specLen = 0 (a request must name a codec)
    bad[7] = 0;
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[6] = 0xff; // specLen over the cap
    bad[7] = 0xff;
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[40] = 0xff; // payloadLen claim over the 64 MiB cap: rejected
    bad[41] = 0xff; // from the 44 header bytes alone, nothing is
    bad[42] = 0xff; // allocated for the body.
    bad[43] = 0xff;
    EXPECT_FALSE(parseRequestHeader(header(bad), limits).ok());

    bad = frame;
    bad[kRequestHeaderBytes] = 'A'; // spec charset is [a-z0-9+_-]
    EXPECT_FALSE(parseRequest(bad, limits).ok());
}

// --- Daemon: differential contract ------------------------------------

TEST(DaemonTest, WireMatchesDirectRegistryForEveryCodec)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("differential");
    config.workers = 2;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok()) << client.status().message();

    const std::vector<codec::CodecId> codecs = codec::allCodecs();
    const std::vector<corpus::DataClass> classes =
        corpus::allDataClasses();
    u64 next_id = 1;
    std::size_t calls = 0;
    for (std::size_t i = 0; i < codecs.size(); ++i) {
        const codec::CodecId id = codecs[i];
        const codec::CodecCaps &caps = codec::registry(id).caps;
        SCOPED_TRACE(caps.name);
        const Bytes payload = samplePayload(
            4 * kKiB, 100 + i, classes[i % classes.size()]);

        // Compress over the wire == compress straight through the
        // registry.
        Result<WireResponse> compressed = client.value().call(
            makeRequest(next_id++, caps.name,
                        codec::Direction::compress, payload,
                        caps.defaultLevel, caps.defaultWindowLog));
        ASSERT_TRUE(compressed.ok());
        ASSERT_EQ(compressed.value().code, WireCode::ok)
            << compressed.value().message;
        EXPECT_EQ(compressed.value().payload,
                  directCall(id, codec::Direction::compress, payload,
                             caps.defaultLevel, caps.defaultWindowLog));

        // And the frame decompresses back to the original bytes.
        Result<WireResponse> decompressed = client.value().call(
            makeRequest(next_id++, caps.name,
                        codec::Direction::decompress,
                        compressed.value().payload, caps.defaultLevel,
                        caps.defaultWindowLog));
        ASSERT_TRUE(decompressed.ok());
        ASSERT_EQ(decompressed.value().code, WireCode::ok)
            << decompressed.value().message;
        EXPECT_EQ(decompressed.value().payload, payload);
        calls += 2;
    }

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.executed, calls);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.requests, calls);
    // Work counters mirror the replay engine's names so obsctl and the
    // SLO tracker read daemon output unchanged.
    EXPECT_EQ(report.work.at("serve.calls"), calls);
    EXPECT_EQ(report.work.at("serve.calls.compress"), calls / 2);
    EXPECT_EQ(report.work.at("serve.calls.decompress"), calls / 2);
    for (codec::CodecId id : codecs)
        EXPECT_EQ(report.work.at("serve.calls." + codec::codecName(id)),
                  2u);
    EXPECT_GT(report.work.at("serve.bytes.in"), 0u);
}

TEST(DaemonTest, RuntimeAdmittedPipelineSpecGrowsTheRegistry)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("pipeline");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    // A spec the seed tables do not pre-register: the daemon must let
    // codecFromName() admit it mid-run and serve it like any other.
    const std::string spec = "delta+rle+zstdlite";
    const Bytes payload =
        samplePayload(8 * kKiB, 11, corpus::DataClass::timeSeries);
    Result<WireResponse> compressed = client.value().call(makeRequest(
        1, spec, codec::Direction::compress, payload));
    ASSERT_TRUE(compressed.ok());
    ASSERT_EQ(compressed.value().code, WireCode::ok)
        << compressed.value().message;

    Result<codec::CodecId> id = codec::codecFromName(spec);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(compressed.value().payload,
              directCall(id.value(), codec::Direction::compress,
                         payload, 3, 17));

    Result<WireResponse> round = client.value().call(makeRequest(
        2, spec, codec::Direction::decompress,
        compressed.value().payload));
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round.value().code, WireCode::ok);
    EXPECT_EQ(round.value().payload, payload);
}

TEST(DaemonTest, TcpListenerSpeaksTheSameProtocol)
{
    DaemonConfig config;
    config.unixPath = ""; // TCP only.
    config.tcpEnabled = true;
    config.tcpPort = 0; // Ephemeral; read back from the daemon.
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    ASSERT_NE(daemon.tcpPort(), 0);

    Result<DaemonClient> client =
        DaemonClient::connectToTcp("127.0.0.1", daemon.tcpPort());
    ASSERT_TRUE(client.ok()) << client.status().message();

    const Bytes payload = samplePayload(2 * kKiB, 21);
    Result<WireResponse> response = client.value().call(makeRequest(
        1, "snappy", codec::Direction::compress, payload));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().code, WireCode::ok);
    EXPECT_EQ(response.value().payload,
              directCall(codec::CodecId::snappy,
                         codec::Direction::compress, payload, 3, 17));
}

// --- Daemon: serving-path failure modes -------------------------------

TEST(DaemonTest, UnknownSpecIsAProtocolErrorNotAHangup)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("unknown-spec");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    Result<WireResponse> bad = client.value().call(makeRequest(
        7, "definitely-not-a-codec", codec::Direction::compress,
        samplePayload(128, 1)));
    ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad.value().code, WireCode::unknownCodec);
    EXPECT_EQ(bad.value().requestId, 7u);
    EXPECT_FALSE(bad.value().message.empty());

    // The frame itself was well-formed, so the connection survives and
    // the next request executes normally.
    Result<WireResponse> good = client.value().call(makeRequest(
        8, "snappy", codec::Direction::compress,
        samplePayload(128, 1)));
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().code, WireCode::ok);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.runtime.at("serve.daemon.unknown_codec"), 1u);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_EQ(report.executed, 1u);
    EXPECT_EQ(report.malformed, 0u);
}

TEST(DaemonTest, MalformedFrameIsAnsweredThenTheConnectionCloses)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("malformed");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<Fd> raw = connectUnix(config.unixPath);
    ASSERT_TRUE(raw.ok());
    Bytes frame = encodeRequest(makeRequest(
        9, "snappy", codec::Direction::compress, samplePayload(64, 2)));
    frame[0] = 'X'; // Corrupt the magic.
    ASSERT_TRUE(writeFull(raw.value().get(), frame.data(),
                          frame.size())
                    .ok());

    WireResponse response;
    FrameReadOutcome outcome;
    WireLimits limits;
    ASSERT_TRUE(readResponseFrame(raw.value().get(), limits, response,
                                  outcome)
                    .ok());
    ASSERT_FALSE(outcome.wasEof);
    EXPECT_EQ(response.code, WireCode::malformedRequest);
    EXPECT_EQ(response.requestId, 0u); // Id did not survive parsing.

    // The stream cannot resync after a grammar violation: the server
    // hangs up instead of guessing at the next frame boundary.
    Status eof = readResponseFrame(raw.value().get(), limits, response,
                                   outcome);
    EXPECT_TRUE(eof.ok() && outcome.wasEof);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.malformed, 1u);
    EXPECT_EQ(report.requests, 0u);
}

TEST(DaemonTest, OversizedPayloadClaimIsRejectedFromTheHeaderAlone)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("oversized");
    config.workers = 1;
    config.limits.maxPayloadBytes = 4 * kKiB;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<Fd> raw = connectUnix(config.unixPath);
    ASSERT_TRUE(raw.ok());
    Bytes frame = encodeRequest(makeRequest(
        3, "snappy", codec::Direction::compress, samplePayload(64, 3)));
    // Claim a body far over the cap; send only the 44 header bytes.
    // The daemon must answer from the header without waiting for (or
    // allocating) a single body byte.
    frame[40] = 0xff;
    frame[41] = 0xff;
    frame[42] = 0xff;
    frame[43] = 0x0f;
    ASSERT_TRUE(writeFull(raw.value().get(), frame.data(),
                          kRequestHeaderBytes)
                    .ok());

    WireResponse response;
    FrameReadOutcome outcome;
    WireLimits limits;
    ASSERT_TRUE(readResponseFrame(raw.value().get(), limits, response,
                                  outcome)
                    .ok());
    ASSERT_FALSE(outcome.wasEof);
    EXPECT_EQ(response.code, WireCode::malformedRequest);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.malformed, 1u);
}

TEST(DaemonTest, TruncatedHeaderIsNeverParsed)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("truncated");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<Fd> raw = connectUnix(config.unixPath);
    ASSERT_TRUE(raw.ok());
    const Bytes frame = encodeRequest(makeRequest(
        4, "snappy", codec::Direction::compress, samplePayload(64, 4)));
    // 20 bytes of a valid header, then EOF: a mid-frame truncation.
    ASSERT_TRUE(writeFull(raw.value().get(), frame.data(), 20).ok());
    ::shutdown(raw.value().get(), SHUT_WR);

    WireResponse response;
    FrameReadOutcome outcome;
    WireLimits limits;
    ASSERT_TRUE(readResponseFrame(raw.value().get(), limits, response,
                                  outcome)
                    .ok());
    ASSERT_FALSE(outcome.wasEof);
    EXPECT_EQ(response.code, WireCode::malformedRequest);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.malformed, 1u);
    EXPECT_EQ(report.requests, 0u);
}

TEST(DaemonTest, ByteAtATimeWritesAssembleIntoOneFrame)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("short-reads");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<Fd> raw = connectUnix(config.unixPath);
    ASSERT_TRUE(raw.ok());
    const Bytes payload = samplePayload(512, 6);
    const Bytes frame = encodeRequest(makeRequest(
        5, "gipfeli", codec::Direction::compress, payload));
    // Dribble the frame one byte per write so the server's readFull
    // loop sees a long run of short reads; yielding between writes
    // makes coalescing in the socket buffer unlikely.
    for (std::size_t i = 0; i < frame.size(); ++i) {
        ASSERT_TRUE(writeFull(raw.value().get(), &frame[i], 1).ok());
        if (i % 7 == 0)
            std::this_thread::yield();
    }

    WireResponse response;
    FrameReadOutcome outcome;
    WireLimits limits;
    ASSERT_TRUE(readResponseFrame(raw.value().get(), limits, response,
                                  outcome)
                    .ok());
    ASSERT_FALSE(outcome.wasEof);
    ASSERT_EQ(response.code, WireCode::ok) << response.message;
    EXPECT_EQ(response.payload,
              directCall(codec::CodecId::gipfeli,
                         codec::Direction::compress, payload, 3, 17));
}

// --- Daemon: quotas and admission control -----------------------------

TEST(DaemonTest, CallQuotaExhaustionIsAttributedToTheTenant)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("quota-calls");
    config.workers = 1;
    config.quotas[7] = TenantQuota{2, 0}; // Two calls, any bytes.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    const Bytes payload = samplePayload(256, 7);
    for (u64 i = 1; i <= 2; ++i) {
        Result<WireResponse> ok = client.value().call(makeRequest(
            i, "snappy", codec::Direction::compress, payload, 3, 17,
            /*tenant=*/7));
        ASSERT_TRUE(ok.ok());
        EXPECT_EQ(ok.value().code, WireCode::ok);
    }
    Result<WireResponse> rejected = client.value().call(makeRequest(
        3, "snappy", codec::Direction::compress, payload, 3, 17,
        /*tenant=*/7));
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected.value().code, WireCode::quotaExceeded);

    // An unquota'd tenant on the same connection is unaffected.
    Result<WireResponse> other = client.value().call(makeRequest(
        4, "snappy", codec::Direction::compress, payload, 3, 17,
        /*tenant=*/9));
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other.value().code, WireCode::ok);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.quotaRejected, 1u);
    EXPECT_EQ(report.runtime.at("serve.daemon.quota_rejects.t7"), 1u);
    EXPECT_EQ(report.runtime.at("serve.daemon.quota_rejects.t9"), 0u);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(report.work.at("serve.tenant.calls.t7"), 2u);
    EXPECT_EQ(report.work.at("serve.tenant.calls.t9"), 1u);
}

TEST(DaemonTest, ByteQuotaExhaustionRejectsTheOverflowingCall)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("quota-bytes");
    config.workers = 1;
    config.quotas[5] = TenantQuota{0, 1000}; // Any calls, 1000 bytes.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    Result<WireResponse> first = client.value().call(makeRequest(
        1, "snappy", codec::Direction::compress, samplePayload(600, 8),
        3, 17, /*tenant=*/5));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().code, WireCode::ok);

    Result<WireResponse> over = client.value().call(makeRequest(
        2, "snappy", codec::Direction::compress, samplePayload(600, 8),
        3, 17, /*tenant=*/5));
    ASSERT_TRUE(over.ok());
    EXPECT_EQ(over.value().code, WireCode::quotaExceeded);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.quotaRejected, 1u);
    EXPECT_EQ(report.runtime.at("serve.daemon.quota_rejects.t5"), 1u);
}

TEST(DaemonTest, DropPolicyAnswersAndAttributesEveryShedRequest)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("drop");
    config.workers = 1;
    config.shardCapacity = 1;
    config.admission = AdmissionPolicy::drop;
    config.workerDelayNs = 3000000; // 3 ms per call: forces backlog.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    const u64 kCalls = 24;
    const Bytes payload = samplePayload(256, 10);
    for (u64 i = 1; i <= kCalls; ++i)
        ASSERT_TRUE(client.value()
                        .send(makeRequest(i, "snappy",
                                          codec::Direction::compress,
                                          payload, 3, 17,
                                          /*tenant=*/3))
                        .ok());

    // Every request is answered exactly once — executed or shed, never
    // silently swallowed. Responses may interleave out of order (the
    // reader answers drops while workers answer executions).
    u64 executed = 0, dropped = 0;
    std::set<u64> answered;
    for (u64 i = 0; i < kCalls; ++i) {
        Result<WireResponse> response = client.value().receive();
        ASSERT_TRUE(response.ok()) << response.status().message();
        EXPECT_TRUE(answered.insert(response.value().requestId).second);
        if (response.value().code == WireCode::ok)
            ++executed;
        else if (response.value().code == WireCode::overloaded)
            ++dropped;
        else
            FAIL() << "unexpected code "
                   << wireCodeName(response.value().code);
    }
    EXPECT_EQ(answered.size(), kCalls);
    EXPECT_GE(executed, 1u);
    EXPECT_GE(dropped, 1u); // 3 ms × 24 calls vs a 1-deep queue.

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.executed, executed);
    EXPECT_EQ(report.dropped, dropped);
    EXPECT_EQ(report.runtime.at("serve.daemon.drops.t3"), dropped);
    EXPECT_EQ(report.requests, kCalls);
}

TEST(DaemonTest, DeadlinePolicyRejectsWhatItCannotServeInTime)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("deadline");
    config.workers = 1;
    config.shardCapacity = 1;
    config.admission = AdmissionPolicy::deadline;
    config.workerDelayNs = 3000000; // 3 ms per call.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    const u64 kCalls = 12;
    const Bytes payload = samplePayload(256, 12);
    for (u64 i = 1; i <= kCalls; ++i) {
        WireRequest request = makeRequest(
            i, "snappy", codec::Direction::compress, payload, 3, 17,
            /*tenant=*/4);
        request.deadlineNs = 2000000; // 2 ms: shorter than one call.
        ASSERT_TRUE(client.value().send(request).ok());
    }

    u64 executed = 0, expired = 0;
    for (u64 i = 0; i < kCalls; ++i) {
        Result<WireResponse> response = client.value().receive();
        ASSERT_TRUE(response.ok());
        if (response.value().code == WireCode::ok)
            ++executed;
        else if (response.value().code == WireCode::deadlineExceeded)
            ++expired;
        else
            FAIL() << "unexpected code "
                   << wireCodeName(response.value().code);
    }
    EXPECT_EQ(executed + expired, kCalls);
    EXPECT_GE(executed, 1u);
    EXPECT_GE(expired, 1u);

    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.executed, executed);
    EXPECT_EQ(report.deadlineRejected, expired);
    EXPECT_EQ(report.runtime.at("serve.daemon.deadline_rejects.t4") +
                  report.runtime.at("serve.daemon.deadline_expired.t4"),
              expired);
}

// --- Daemon: graceful drain -------------------------------------------

TEST(DaemonTest, GracefulDrainAnswersEveryAdmittedRequest)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("drain");
    config.workers = 2;
    config.workerDelayNs = 1000000; // 1 ms: keep a backlog alive.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    const u64 kCalls = 24;
    const Bytes payload = samplePayload(512, 13);
    for (u64 i = 1; i <= kCalls; ++i)
        ASSERT_TRUE(client.value()
                        .send(makeRequest(i, "snappy",
                                          codec::Direction::compress,
                                          payload))
                        .ok());

    // Wait until every frame has been parsed and admitted, then pull
    // the plug mid-backlog: block admission is lossless, so drain must
    // still execute and answer all of them.
    while (daemon.counters().at("serve.daemon.requests") < kCalls)
        std::this_thread::yield();
    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.requests, kCalls);
    EXPECT_EQ(report.executed, kCalls);

    u64 answered = 0;
    for (u64 i = 0; i < kCalls; ++i) {
        Result<WireResponse> response = client.value().receive();
        ASSERT_TRUE(response.ok()) << response.status().message();
        EXPECT_EQ(response.value().code, WireCode::ok);
        ++answered;
    }
    EXPECT_EQ(answered, kCalls);
    // After the last response the daemon hangs up cleanly.
    Result<WireResponse> eof = client.value().receive();
    EXPECT_FALSE(eof.ok());
}

TEST(DaemonTest, DeadlineDrainAnswersARequestWaitingForRoomOnce)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("deadline-drain");
    config.workers = 1;
    config.shardCapacity = 1;
    config.admission = AdmissionPolicy::deadline;
    config.workerDelayNs = 50000000; // 50 ms per call.
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    Result<DaemonClient> client =
        DaemonClient::connectToUnix(config.unixPath);
    ASSERT_TRUE(client.ok());

    // Call 1 runs, call 2 fills the one-deep shard, and the reader
    // waits for room with call 3 when the drain begins. Its deadline
    // is far off, so room appears first and it is admitted.
    const u64 kCalls = 3;
    const Bytes payload = samplePayload(256, 15);
    for (u64 i = 1; i <= kCalls; ++i) {
        WireRequest request = makeRequest(
            i, "snappy", codec::Direction::compress, payload, 3, 17,
            /*tenant=*/6);
        request.deadlineNs = 60000000000ull; // 60 s.
        ASSERT_TRUE(client.value().send(request).ok());
    }
    while (daemon.counters().at("serve.daemon.requests") < kCalls)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    DaemonReport report = daemon.drain();

    std::set<u64> answered;
    for (u64 i = 0; i < kCalls; ++i) {
        Result<WireResponse> response = client.value().receive();
        ASSERT_TRUE(response.ok()) << response.status().message();
        EXPECT_TRUE(answered.insert(response.value().requestId).second);
        EXPECT_EQ(response.value().code, WireCode::ok)
            << wireCodeName(response.value().code);
    }
    EXPECT_EQ(answered.size(), kCalls);
    Result<WireResponse> eof = client.value().receive();
    EXPECT_FALSE(eof.ok()); // Nothing is answered twice.
    EXPECT_EQ(report.requests, kCalls);
    EXPECT_EQ(report.executed, kCalls);
    EXPECT_EQ(report.deadlineRejected, 0u);
    EXPECT_EQ(report.runtime.at("serve.daemon.shutdown_rejects"), 0u);
}

TEST(DaemonTest, DrainIsIdempotent)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("drain-twice");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    {
        Result<DaemonClient> client =
            DaemonClient::connectToUnix(config.unixPath);
        ASSERT_TRUE(client.ok());
        Result<WireResponse> response = client.value().call(makeRequest(
            1, "snappy", codec::Direction::compress,
            samplePayload(128, 14)));
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.value().code, WireCode::ok);
    }

    DaemonReport first = daemon.drain();
    DaemonReport second = daemon.drain();
    EXPECT_EQ(first.executed, 1u);
    EXPECT_EQ(second.executed, first.executed);
    EXPECT_EQ(second.requests, first.requests);
    EXPECT_EQ(second.connections, first.connections);
}

// --- Daemon: concurrency (the TSan leg's target) ----------------------

TEST(DaemonTest, ConcurrentConnectionsAreLossless)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("concurrent");
    config.workers = 3;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    const std::vector<codec::CodecId> codecs = codec::allCodecs();
    const unsigned kThreads = 4;
    const u64 kCallsPerThread = 24;
    std::atomic<u64> mismatches{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            Result<DaemonClient> client =
                DaemonClient::connectToUnix(config.unixPath);
            ASSERT_TRUE(client.ok());
            CodecContext reference;
            for (u64 i = 0; i < kCallsPerThread; ++i) {
                const codec::CodecId id =
                    codecs[(t + i) % codecs.size()];
                const Bytes payload =
                    samplePayload(1 * kKiB, 1000 + t * 100 + i);
                Result<WireResponse> response = client.value().call(
                    makeRequest(i + 1, codec::codecName(id),
                                codec::Direction::compress, payload, 3,
                                17, /*tenant=*/t));
                ASSERT_TRUE(response.ok());
                ASSERT_EQ(response.value().code, WireCode::ok)
                    << response.value().message;

                hcb::ReplayCall call;
                call.codec = id;
                call.direction = codec::Direction::compress;
                call.payload = payload;
                ByteSpan expected;
                ASSERT_TRUE(reference.execute(call, expected).ok());
                if (response.value().payload !=
                    Bytes(expected.begin(), expected.end()))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    EXPECT_EQ(mismatches.load(), 0u);
    DaemonReport report = daemon.drain();
    EXPECT_EQ(report.connections, kThreads);
    EXPECT_EQ(report.requests, kThreads * kCallsPerThread);
    EXPECT_EQ(report.executed, kThreads * kCallsPerThread);
    EXPECT_EQ(report.failed, 0u);
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(report.work.at("serve.tenant.calls.t" +
                                 std::to_string(t)),
                  kCallsPerThread);
}

// --- Daemon: SLO rows come straight from the drained counters ---------

TEST(DaemonTest, SloTrackerReadsTheDrainedLatencyHistograms)
{
    DaemonConfig config;
    config.unixPath = testSocketPath("slo");
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    {
        Result<DaemonClient> client =
            DaemonClient::connectToUnix(config.unixPath);
        ASSERT_TRUE(client.ok());
        for (u64 i = 1; i <= 6; ++i) {
            Result<WireResponse> response =
                client.value().call(makeRequest(
                    i, "snappy", codec::Direction::compress,
                    samplePayload(1 * kKiB, 20 + i)));
            ASSERT_TRUE(response.ok());
            ASSERT_EQ(response.value().code, WireCode::ok);
        }
    }
    DaemonReport report = daemon.drain();

    obs::SloTracker tracker;
    ASSERT_TRUE(
        tracker.declareSpecs("any:compress:p99:0:10s,"
                             "snappy:compress:p50:4096:10s")
            .ok());
    std::vector<obs::SloResult> rows = tracker.evaluate(report.runtime);
    ASSERT_EQ(rows.size(), 2u);
    for (const obs::SloResult &row : rows) {
        EXPECT_TRUE(row.evaluated);
        EXPECT_GE(row.samples, 6u);
        EXPECT_TRUE(row.pass); // 10 s threshold: generous on purpose.
    }
    EXPECT_EQ(report.runtime.histogramAt("serve.latency_ns").count,
              6u);
}

} // namespace
} // namespace cdpu::serve
