#include "harden/wire_grammar.h"

#include "common/rng.h"

namespace cdpu::harden
{

using serve::WireRequest;

namespace
{

u64
wireMutationSeed(MutationClass cls, u64 seed)
{
    // Same mixing idea as injector.cpp's mutationSeed, keyed on the
    // grammar instead of a codec so wire seeds never collide with a
    // codec battery's draw sequence.
    u64 mixed = 0x77697265u; // "wire"
    mixed = mixed * 0x100000001b3ull ^ static_cast<u64>(cls);
    mixed = mixed * 0x100000001b3ull ^ seed;
    return mixed;
}

/** Deterministic valid request for trial @p seed. */
WireRequest
buildRequest(Rng &rng, const WireFuzzConfig &config)
{
    static const char *const kSpecs[] = {
        "snappy",      "zstdlite",          "flatelite",
        "gipfeli",     "delta+rle+snappy",  "rle+zstdlite",
        "delta-u32+flatelite",
    };
    WireRequest request;
    request.requestId = rng.next();
    request.tenantId = rng.below(8);
    request.codecSpec = kSpecs[rng.below(std::size(kSpecs))];
    request.direction = rng.chance(0.5)
                            ? codec::Direction::compress
                            : codec::Direction::decompress;
    request.level = static_cast<i32>(rng.range(1, 9));
    request.windowLog = static_cast<u32>(rng.range(10, 22));
    request.deadlineNs = rng.chance(0.25) ? rng.next() : 0;
    request.payload.resize(rng.below(config.maxPayloadBytes + 1));
    for (auto &byte : request.payload)
        byte = static_cast<u8>(rng.below(256));
    return request;
}

} // namespace

std::string
WireFuzzReport::summary(const WireFuzzConfig &config) const
{
    return "wire-request grammar: " + std::to_string(config.iterations) +
           " iterations, " + std::to_string(trials) + " mutants (" +
           std::to_string(mutantsRejected) + " rejected, " +
           std::to_string(mutantsAccepted) + " canonical), " +
           std::to_string(prefixesChecked) + " prefixes, " +
           std::to_string(failures.size()) + " violations";
}

WireFuzzReport
runWireFuzz(const WireFuzzConfig &config)
{
    WireFuzzReport report;
    auto fail = [&](MutationClass cls, u64 seed, std::string what) {
        report.failures.push_back({cls, seed, std::move(what)});
    };

    Bytes previous_frame; // Splice donor: the prior trial's frame.
    for (u64 iter = 0; iter < config.iterations; ++iter) {
        const u64 seed = config.seedBase + iter;
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
        const WireRequest request = buildRequest(rng, config);
        const Bytes frame = serve::encodeRequest(request);
        const ByteSpan frame_span(frame.data(), frame.size());

        // 1. The valid frame must parse and re-encode identically.
        auto parsed = serve::parseRequest(frame_span, config.limits);
        if (!parsed.ok()) {
            fail(MutationClass::bitFlip, seed,
                 "valid frame rejected: " +
                     parsed.status().message());
            continue;
        }
        if (serve::encodeRequest(parsed.value()) != frame) {
            fail(MutationClass::bitFlip, seed,
                 "valid frame round-trip not byte-identical");
            continue;
        }

        // 2. Every strict prefix must be rejected: all field-boundary
        //    cuts plus a bounded sample of interior cuts.
        std::vector<std::size_t> cuts = mapWireRequest(frame).boundaries;
        for (unsigned i = 0; i < 32 && frame.size() > 1; ++i)
            cuts.push_back(rng.below(frame.size()));
        for (std::size_t cut : cuts) {
            if (cut >= frame.size())
                continue;
            ++report.prefixesChecked;
            auto prefix =
                serve::parseRequest(frame_span.first(cut),
                                    config.limits);
            if (prefix.ok()) {
                fail(MutationClass::truncate, seed,
                     "strict prefix of " + std::to_string(cut) +
                         " bytes parsed as a complete request");
                break;
            }
            if (failureClass(prefix.status()) !=
                FailureClass::dataError) {
                fail(MutationClass::truncate, seed,
                     std::string("prefix rejection misclassified "
                                 "as ") +
                         failureClassName(
                             failureClass(prefix.status())));
                break;
            }
        }

        // 3. Every mutation class: reject, or accept canonically.
        for (MutationClass cls : allMutationClasses()) {
            Bytes mutated = mutateFrame(frame_span, mapWireRequest, cls,
                                        wireMutationSeed(cls, seed),
                                        previous_frame);
            ++report.trials;
            Result<WireRequest> outcome =
                Status::internal("parse did not run");
            try {
                outcome = serve::parseRequest(
                    ByteSpan(mutated.data(), mutated.size()),
                    config.limits);
            } catch (...) {
                fail(cls, seed, "parseRequest threw");
                continue;
            }
            if (!outcome.ok()) {
                if (failureClass(outcome.status()) !=
                    FailureClass::dataError) {
                    fail(cls, seed,
                         std::string("rejection misclassified as ") +
                             failureClassName(
                                 failureClass(outcome.status())));
                } else {
                    ++report.mutantsRejected;
                }
                continue;
            }
            if (serve::encodeRequest(outcome.value()) != mutated) {
                fail(cls, seed,
                     "accepted mutant is not canonical: re-encode "
                     "differs from the parsed bytes");
                continue;
            }
            ++report.mutantsAccepted;
        }
        previous_frame = frame;
    }
    return report;
}

} // namespace cdpu::harden
