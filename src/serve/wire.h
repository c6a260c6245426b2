/**
 * @file
 * cdpud wire protocol: length-prefixed request/response framing.
 *
 * The daemon serves the paper's Section 3 traffic shape — millions of
 * independent (de)compression calls — over a byte stream, so every
 * exchange is one self-delimiting frame: a fixed-layout little-endian
 * header carrying the magic/version, request id, tenant id, codec-spec
 * length, direction, optional deadline, and payload length, followed
 * by the spec string and payload bytes. Both lengths are declared up
 * front and validated against hard caps *before* any allocation, so a
 * hostile frame cannot make the server reserve gigabytes, and a
 * partial header is never parsed as a full one (the transport reader
 * loops until the declared byte count is consumed or the peer is
 * definitively gone).
 *
 * The codec selector travels as a registry spec string ("snappy",
 * "delta+rle+snappy", ...) rather than a numeric id: the registry is
 * dynamic (codecFromName() admits new pipeline specs at runtime), so
 * names are the only wire-stable vocabulary. DESIGN.md §16 documents
 * the grammar and the admission-control contract built on top of it.
 *
 * Everything in this header is pure byte manipulation — no sockets —
 * so the harden layer fuzzes the grammar directly
 * (harden/wire_grammar.h) and the same functions serve client and
 * daemon.
 */

#ifndef CDPU_SERVE_WIRE_H_
#define CDPU_SERVE_WIRE_H_

#include <string>

#include "codec/codec.h"
#include "common/error.h"
#include "common/types.h"

namespace cdpu::serve
{

/** Request frame magic ("CDPQ") — first four bytes on the wire. */
inline constexpr u8 kRequestMagic[4] = {'C', 'D', 'P', 'Q'};
/** Response frame magic ("CDPR"). */
inline constexpr u8 kResponseMagic[4] = {'C', 'D', 'P', 'R'};
/** Protocol version; a mismatch is a malformed frame, not a
 *  negotiation. */
inline constexpr u8 kWireVersion = 1;

/**
 * Byte offset of each fixed request-header field, little-endian. The
 * layout is named here once: parseRequestHeader reads the fields by
 * these names, and the harden wire grammar aims its mutations by them.
 */
struct RequestField
{
    static constexpr std::size_t magic = 0;         ///< kRequestMagic.
    static constexpr std::size_t version = 4;       ///< u8 kWireVersion.
    static constexpr std::size_t direction = 5;     ///< u8: 0 compress.
    static constexpr std::size_t specBytes = 6;     ///< u16.
    static constexpr std::size_t requestId = 8;     ///< u64.
    static constexpr std::size_t tenantId = 16;     ///< u64.
    static constexpr std::size_t level = 24;        ///< i32.
    static constexpr std::size_t windowLog = 28;    ///< u32.
    static constexpr std::size_t deadlineNs = 32;   ///< u64.
    static constexpr std::size_t payloadBytes = 40; ///< u32.
};

/** Fixed request header size (magic..payloadBytes, before the
 *  variable spec/payload tail). */
inline constexpr std::size_t kRequestHeaderBytes =
    RequestField::payloadBytes + 4;
/** Fixed response header size. */
inline constexpr std::size_t kResponseHeaderBytes = 28;

/**
 * Hard caps a parser enforces before allocating. Oversized *claims*
 * are rejected from the 44 header bytes alone; the body is never
 * read, let alone reserved.
 */
struct WireLimits
{
    std::size_t maxSpecBytes = 256;
    std::size_t maxPayloadBytes = 64 * kMiB;
    std::size_t maxMessageBytes = 1024;
};

/** Protocol-level response codes. Codec failures map through
 *  FailureClass so a wire client sees the same taxonomy the in-process
 *  battery enforces (DESIGN.md §11). */
enum class WireCode : u8
{
    ok = 0,
    /** Frame violated the wire grammar; the connection cannot resync
     *  and is closed after this response. */
    malformedRequest = 1,
    /** codecFromName() rejected the spec string. */
    unknownCodec = 2,
    dataError = 3,     ///< FailureClass::dataError from the codec.
    usageError = 4,    ///< FailureClass::usageError.
    resourceError = 5, ///< FailureClass::resourceError.
    internalError = 6, ///< FailureClass::fault — a server bug.
    quotaExceeded = 7, ///< Tenant byte/call quota exhausted.
    overloaded = 8,    ///< Dropped by the admission policy.
    deadlineExceeded = 9,
    shuttingDown = 10, ///< Daemon is draining; no new work admitted.
};

/** Stable lowercase code name for counters and reports. */
const char *wireCodeName(WireCode code);

/** Maps a codec Status to the wire code a response carries. */
WireCode wireCodeFor(const Status &status);

/** One compress/decompress request. */
struct WireRequest
{
    u64 requestId = 0;
    u64 tenantId = 0;
    /** Registry spec string; resolved server-side via codecFromName. */
    std::string codecSpec;
    codec::Direction direction = codec::Direction::compress;
    i32 level = 3;
    u32 windowLog = 17;
    /** Relative deadline in ns from server receipt; 0 = none. */
    u64 deadlineNs = 0;
    Bytes payload;
};

/** One response; payload is the (de)compressed bytes on ok. */
struct WireResponse
{
    u64 requestId = 0;
    WireCode code = WireCode::ok;
    /** Server-side execution time (ns) for ok responses; 0 otherwise. */
    u64 serviceNs = 0;
    std::string message; ///< Human-readable error detail; empty on ok.
    Bytes payload;
};

/** Parsed fixed header; the body (spec + payload) follows on the
 *  wire. Produced by parseRequestHeader from exactly
 *  kRequestHeaderBytes bytes. */
struct RequestHeader
{
    codec::Direction direction = codec::Direction::compress;
    std::size_t specBytes = 0;
    u64 requestId = 0;
    u64 tenantId = 0;
    i32 level = 0;
    u32 windowLog = 0;
    u64 deadlineNs = 0;
    std::size_t payloadBytes = 0;

    std::size_t bodyBytes() const { return specBytes + payloadBytes; }
};

struct ResponseHeader
{
    WireCode code = WireCode::ok;
    std::size_t messageBytes = 0;
    u64 requestId = 0;
    std::size_t payloadBytes = 0;
    u64 serviceNs = 0;

    std::size_t bodyBytes() const
    {
        return messageBytes + payloadBytes;
    }
};

/** Serializes @p request as one frame (header + spec + payload). */
Bytes encodeRequest(const WireRequest &request);
/** Serializes @p response as one frame. */
Bytes encodeResponse(const WireResponse &response);

/**
 * Validates and decodes a fixed request header. @p header must be
 * exactly kRequestHeaderBytes (a shorter read is a transport-level
 * truncation the caller handles; it must never reach here). Rejects
 * bad magic/version/direction, zero or over-cap spec length, over-cap
 * payload length, and spec/payload claims that cannot fit — all
 * before anything is allocated.
 */
Result<RequestHeader> parseRequestHeader(ByteSpan header,
                                         const WireLimits &limits);

/** Validates the body that followed @p header and assembles the
 *  request. @p body must be exactly header.bodyBytes() long. Also
 *  re-checks the spec's character set ([a-z0-9+_-]). */
Result<WireRequest> assembleRequest(const RequestHeader &header,
                                    ByteSpan body);

/** Whole-buffer parse: @p frame must hold exactly one request (the
 *  fuzz battery's entry point; transports use the header/body pair). */
Result<WireRequest> parseRequest(ByteSpan frame,
                                 const WireLimits &limits);

Result<ResponseHeader> parseResponseHeader(ByteSpan header,
                                           const WireLimits &limits);
Result<WireResponse> assembleResponse(const ResponseHeader &header,
                                      ByteSpan body);
Result<WireResponse> parseResponse(ByteSpan frame,
                                   const WireLimits &limits);

} // namespace cdpu::serve

#endif // CDPU_SERVE_WIRE_H_
