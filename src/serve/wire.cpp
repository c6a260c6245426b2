#include "serve/wire.h"

#include <cstring>

#include "common/le.h"

namespace cdpu::serve
{

namespace
{

bool
specCharOk(u8 c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '+' || c == '_' || c == '-';
}

} // namespace

const char *
wireCodeName(WireCode code)
{
    switch (code) {
      case WireCode::ok: return "ok";
      case WireCode::malformedRequest: return "malformed_request";
      case WireCode::unknownCodec: return "unknown_codec";
      case WireCode::dataError: return "data_error";
      case WireCode::usageError: return "usage_error";
      case WireCode::resourceError: return "resource_error";
      case WireCode::internalError: return "internal_error";
      case WireCode::quotaExceeded: return "quota_exceeded";
      case WireCode::overloaded: return "overloaded";
      case WireCode::deadlineExceeded: return "deadline_exceeded";
      case WireCode::shuttingDown: return "shutting_down";
    }
    return "unknown";
}

WireCode
wireCodeFor(const Status &status)
{
    switch (failureClass(status)) {
      case FailureClass::none: return WireCode::ok;
      case FailureClass::dataError: return WireCode::dataError;
      case FailureClass::usageError: return WireCode::usageError;
      case FailureClass::resourceError: return WireCode::resourceError;
      case FailureClass::fault: return WireCode::internalError;
    }
    return WireCode::internalError;
}

Bytes
encodeRequest(const WireRequest &request)
{
    Bytes out;
    out.reserve(kRequestHeaderBytes + request.codecSpec.size() +
                request.payload.size());
    out.assign(std::begin(kRequestMagic), std::end(kRequestMagic));
    out.push_back(kWireVersion);
    out.push_back(request.direction == codec::Direction::compress ? 0
                                                                  : 1);
    putLe<u16>(out, static_cast<u16>(request.codecSpec.size()));
    putLe<u64>(out, request.requestId);
    putLe<u64>(out, request.tenantId);
    putLe<u32>(out, static_cast<u32>(request.level));
    putLe<u32>(out, request.windowLog);
    putLe<u64>(out, request.deadlineNs);
    putLe<u32>(out, static_cast<u32>(request.payload.size()));
    out.insert(out.end(), request.codecSpec.begin(),
               request.codecSpec.end());
    out.insert(out.end(), request.payload.begin(),
               request.payload.end());
    return out;
}

Bytes
encodeResponse(const WireResponse &response)
{
    Bytes out;
    out.reserve(kResponseHeaderBytes + response.message.size() +
                response.payload.size());
    out.assign(std::begin(kResponseMagic), std::end(kResponseMagic));
    out.push_back(kWireVersion);
    out.push_back(static_cast<u8>(response.code));
    putLe<u16>(out, static_cast<u16>(response.message.size()));
    putLe<u64>(out, response.requestId);
    putLe<u32>(out, static_cast<u32>(response.payload.size()));
    putLe<u64>(out, response.serviceNs);
    out.insert(out.end(), response.message.begin(),
               response.message.end());
    out.insert(out.end(), response.payload.begin(),
               response.payload.end());
    return out;
}

Result<RequestHeader>
parseRequestHeader(ByteSpan header, const WireLimits &limits)
{
    if (header.size() != kRequestHeaderBytes)
        return Status::corrupt("wire request header is " +
                               std::to_string(header.size()) +
                               " bytes, need " +
                               std::to_string(kRequestHeaderBytes));
    if (std::memcmp(header.data() + RequestField::magic, kRequestMagic,
                    sizeof kRequestMagic) != 0)
        return Status::corrupt("bad wire request magic");
    const u8 version = header[RequestField::version];
    if (version != kWireVersion)
        return Status::corrupt("unsupported wire version " +
                               std::to_string(version));
    const u8 direction = header[RequestField::direction];
    if (direction > 1)
        return Status::corrupt("bad direction byte " +
                               std::to_string(direction));

    RequestHeader parsed;
    parsed.direction = direction == 0 ? codec::Direction::compress
                                      : codec::Direction::decompress;
    parsed.specBytes = getLe<u16>(header, RequestField::specBytes);
    parsed.requestId = getLe<u64>(header, RequestField::requestId);
    parsed.tenantId = getLe<u64>(header, RequestField::tenantId);
    parsed.level =
        static_cast<i32>(getLe<u32>(header, RequestField::level));
    parsed.windowLog = getLe<u32>(header, RequestField::windowLog);
    parsed.deadlineNs = getLe<u64>(header, RequestField::deadlineNs);
    parsed.payloadBytes = getLe<u32>(header, RequestField::payloadBytes);

    if (parsed.specBytes == 0)
        return Status::corrupt("empty codec spec");
    if (parsed.specBytes > limits.maxSpecBytes)
        return Status::corrupt(
            "codec spec claims " + std::to_string(parsed.specBytes) +
            " bytes, cap is " + std::to_string(limits.maxSpecBytes));
    if (parsed.payloadBytes > limits.maxPayloadBytes)
        return Status::corrupt(
            "payload claims " + std::to_string(parsed.payloadBytes) +
            " bytes, cap is " +
            std::to_string(limits.maxPayloadBytes));
    return parsed;
}

Result<WireRequest>
assembleRequest(const RequestHeader &header, ByteSpan body)
{
    if (body.size() != header.bodyBytes())
        return Status::corrupt(
            "wire request body is " + std::to_string(body.size()) +
            " bytes, header declared " +
            std::to_string(header.bodyBytes()));
    for (std::size_t i = 0; i < header.specBytes; ++i) {
        if (!specCharOk(body[i]))
            return Status::corrupt(
                "codec spec byte " + std::to_string(i) +
                " outside [a-z0-9+_-]");
    }

    WireRequest request;
    request.requestId = header.requestId;
    request.tenantId = header.tenantId;
    request.codecSpec.assign(
        reinterpret_cast<const char *>(body.data()), header.specBytes);
    request.direction = header.direction;
    request.level = header.level;
    request.windowLog = header.windowLog;
    request.deadlineNs = header.deadlineNs;
    request.payload.assign(body.begin() +
                               static_cast<std::ptrdiff_t>(
                                   header.specBytes),
                           body.end());
    return request;
}

Result<WireRequest>
parseRequest(ByteSpan frame, const WireLimits &limits)
{
    if (frame.size() < kRequestHeaderBytes)
        return Status::corrupt("truncated wire request header (" +
                               std::to_string(frame.size()) +
                               " bytes)");
    auto header =
        parseRequestHeader(frame.first(kRequestHeaderBytes), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    // Exact-length frames only: a short body is a truncation, trailing
    // bytes would silently desynchronize a stream transport.
    if (frame.size() - kRequestHeaderBytes !=
        header.value().bodyBytes())
        return Status::corrupt(
            "wire request frame is " + std::to_string(frame.size()) +
            " bytes, header declares " +
            std::to_string(kRequestHeaderBytes +
                           header.value().bodyBytes()));
    return assembleRequest(header.value(),
                           frame.subspan(kRequestHeaderBytes));
}

Result<ResponseHeader>
parseResponseHeader(ByteSpan header, const WireLimits &limits)
{
    if (header.size() != kResponseHeaderBytes)
        return Status::corrupt("wire response header is " +
                               std::to_string(header.size()) +
                               " bytes, need " +
                               std::to_string(kResponseHeaderBytes));
    if (std::memcmp(header.data(), kResponseMagic,
                    sizeof kResponseMagic) != 0)
        return Status::corrupt("bad wire response magic");
    if (header[4] != kWireVersion)
        return Status::corrupt("unsupported wire version " +
                               std::to_string(header[4]));
    if (header[5] > static_cast<u8>(WireCode::shuttingDown))
        return Status::corrupt("bad wire response code " +
                               std::to_string(header[5]));

    ResponseHeader parsed;
    parsed.code = static_cast<WireCode>(header[5]);
    parsed.messageBytes = getLe<u16>(header, 6);
    parsed.requestId = getLe<u64>(header, 8);
    parsed.payloadBytes = getLe<u32>(header, 16);
    parsed.serviceNs = getLe<u64>(header, 20);

    if (parsed.messageBytes > limits.maxMessageBytes)
        return Status::corrupt(
            "response message claims " +
            std::to_string(parsed.messageBytes) + " bytes, cap is " +
            std::to_string(limits.maxMessageBytes));
    if (parsed.payloadBytes > limits.maxPayloadBytes)
        return Status::corrupt(
            "response payload claims " +
            std::to_string(parsed.payloadBytes) + " bytes, cap is " +
            std::to_string(limits.maxPayloadBytes));
    return parsed;
}

Result<WireResponse>
assembleResponse(const ResponseHeader &header, ByteSpan body)
{
    if (body.size() != header.bodyBytes())
        return Status::corrupt(
            "wire response body is " + std::to_string(body.size()) +
            " bytes, header declared " +
            std::to_string(header.bodyBytes()));
    WireResponse response;
    response.requestId = header.requestId;
    response.code = header.code;
    response.serviceNs = header.serviceNs;
    response.message.assign(
        reinterpret_cast<const char *>(body.data()),
        header.messageBytes);
    response.payload.assign(body.begin() +
                                static_cast<std::ptrdiff_t>(
                                    header.messageBytes),
                            body.end());
    return response;
}

Result<WireResponse>
parseResponse(ByteSpan frame, const WireLimits &limits)
{
    if (frame.size() < kResponseHeaderBytes)
        return Status::corrupt("truncated wire response header (" +
                               std::to_string(frame.size()) +
                               " bytes)");
    auto header =
        parseResponseHeader(frame.first(kResponseHeaderBytes), limits);
    CDPU_RETURN_IF_ERROR(header.status());
    if (frame.size() - kResponseHeaderBytes !=
        header.value().bodyBytes())
        return Status::corrupt(
            "wire response frame is " + std::to_string(frame.size()) +
            " bytes, header declares " +
            std::to_string(kResponseHeaderBytes +
                           header.value().bodyBytes()));
    return assembleResponse(header.value(),
                            frame.subspan(kResponseHeaderBytes));
}

} // namespace cdpu::serve
