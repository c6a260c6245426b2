/**
 * @file
 * Corruption battery for the cdpud wire-request grammar.
 *
 * The daemon's framing layer (serve/wire.h) is the first parser that
 * attacker-controlled bytes meet, before any codec runs — so it gets
 * the same treatment the codec frames get: the injector's engine
 * (harden/injector.h) aims every MutationClass by mapWireRequest's
 * field map of the request layout (bit flips anywhere, truncation at
 * field boundaries, specBytes/payloadBytes tampering, trailing-byte
 * damage, magic/version/direction discriminator swaps, splices of two
 * frames, codec-spec tampering), each mutation a pure function of
 * (class, seed) so a failure replays from its report line.
 *
 * The contract checked per mutant:
 *  - parseRequest() never throws, never faults, and classifies every
 *    rejection as dataError;
 *  - an accepted mutant must be *canonical*: re-encoding the parsed
 *    request reproduces the mutant byte-for-byte (the fixed layout
 *    admits exactly one encoding, so acceptance of a non-canonical
 *    frame would mean the parser ignored bytes — a smuggling channel);
 *  - every strict prefix of a valid frame is rejected (a partial
 *    header or body must never parse as a complete request).
 */

#ifndef CDPU_HARDEN_WIRE_GRAMMAR_H_
#define CDPU_HARDEN_WIRE_GRAMMAR_H_

#include <string>
#include <vector>

#include "harden/injector.h"
#include "serve/wire.h"

namespace cdpu::harden
{

struct WireFuzzConfig
{
    u64 iterations = 1000;
    u64 seedBase = 0;
    std::size_t maxPayloadBytes = 4096;
    serve::WireLimits limits;
};

struct WireFuzzFailure
{
    MutationClass cls = MutationClass::bitFlip;
    u64 seed = 0;
    std::string what;
};

struct WireFuzzReport
{
    u64 trials = 0;
    u64 mutantsRejected = 0;
    u64 mutantsAccepted = 0; ///< Parsed and verified canonical.
    u64 prefixesChecked = 0;
    std::vector<WireFuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    std::string summary(const WireFuzzConfig &config) const;
};

/** Runs the battery; deterministic in @p config. */
WireFuzzReport runWireFuzz(const WireFuzzConfig &config);

} // namespace cdpu::harden

#endif // CDPU_HARDEN_WIRE_GRAMMAR_H_
