/**
 * @file
 * Deterministic fuzz battery over the codec registry.
 *
 * One contract, enforced everywhere: feeding a decoder mutated bytes
 * either round-trips (the mutation landed somewhere inert) or returns
 * a clean dataError — never a crash, never a fault-class status, never
 * output past the analytic decode tripwire, and streaming sessions
 * land in the same FailureClass as the whole-buffer entry point at
 * every chunk granularity, with the error sticky across later calls.
 * The compress direction runs the same battery shape on arbitrary
 * payloads: compression must always succeed, respect the CodecCaps
 * expansion bound, stay chunk-granularity invariant, and round-trip.
 * Every whole-buffer call of a battery runs on one codec::Scratch, as
 * a serving context's calls do, so corrupt frames and every level and
 * window pass through the same tables and buffers; on 1 in 8 compress
 * iterations the payload is also compressed on a fresh scratch, and
 * any byte difference is a failure.
 *
 * Every iteration is a pure function of (codec, class, seedBase + i);
 * a failure report carries the triple, so any finding replays with a
 * one-line driver call (DESIGN.md §11).
 */

#ifndef CDPU_HARDEN_FUZZ_DRIVER_H_
#define CDPU_HARDEN_FUZZ_DRIVER_H_

#include "codec/registry.h"
#include "harden/injector.h"
#include "obs/telemetry.h"

namespace cdpu::harden
{

/**
 * Decode-output tripwire: any single decode of a frame this battery
 * can construct (mutations of <= maxPayloadBytes-sized compressions)
 * that produces more than this many bytes is an allocation bug, with
 * margin above every codec's analytic per-unit decode bound (snappy's
 * 64/3 element expansion, zstdlite's kMaxBlockRegenSize block cap,
 * the 64 KiB framing chunk cap).
 */
inline constexpr u64 kMaxFuzzOutputBytes = 16 * kMiB;

struct FuzzConfig
{
    codec::CodecId codec = codec::CodecId::snappy;
    codec::Direction direction = codec::Direction::decompress;
    u64 iterations = 1000;
    /** Iteration i draws from the triple (codec, class, seedBase+i). */
    u64 seedBase = 0;
    /** Largest corpus payload a base frame compresses. */
    std::size_t maxPayloadBytes = 4 * kKiB;
    /**
     * Grammar the decode battery mutates. `buffer` (the default) is
     * the whole-buffer/stream battery; `container` fuzzes the
     * block-parallel container instead: base frames are multi-block
     * container::write() output around the codec, mutations use the
     * container grammar, and every iteration cross-checks
     * decodeSequential against decodeParallel(2) for identical
     * FailureClass, bytes, and work counters. The outputTripwireBytes
     * bound doubles as DecodeOptions::maxOutputBytes, so an index-
     * driven allocation lie trips the same wire as a decoder bug.
     */
    FrameKind frameKind = FrameKind::buffer;
    /** Session feed granularities; 0 is the whole-buffer feed. */
    std::vector<std::size_t> chunkSizes = {1, 7, 0};
    /** Also drive streaming sessions and compare error classes. */
    bool checkStreaming = true;
    /** Decode-output allocation tripwire; the default is the analytic
     *  bound above. Tests lower it to force a deterministic failure
     *  and exercise the fault-dump path. */
    u64 outputTripwireBytes = kMaxFuzzOutputBytes;
    /**
     * Optional telemetry hub (not owned). The battery records one
     * flight event per iteration into ring 0 — (iteration, codec,
     * direction, outcome class, frame/output sizes) — and the first
     * contract violation freezes the recent history as a fault dump
     * (Telemetry::faultDump), so "iteration 8731 failed" arrives with
     * the events leading up to it.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** One contract violation, replayable from its spec. */
struct FuzzFailure
{
    MutationSpec spec;
    std::string what;
};

struct FuzzReport
{
    u64 iterations = 0;
    /** Decode direction: mutated frames that still decoded cleanly. */
    u64 survivors = 0;
    /** Decode direction: mutated frames rejected with dataError. */
    u64 cleanRejects = 0;
    /** Largest output any single decode produced. */
    u64 maxOutputBytes = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    /** "snappy/decompress: 10000 iterations, 9980 clean rejects..." */
    std::string summary(const FuzzConfig &config) const;
};

/** Runs the battery for one codec/direction. Deterministic in
 *  @p config; never throws, never aborts — violations land in
 *  FuzzReport::failures. */
FuzzReport runFuzz(const FuzzConfig &config);

} // namespace cdpu::harden

#endif // CDPU_HARDEN_FUZZ_DRIVER_H_
