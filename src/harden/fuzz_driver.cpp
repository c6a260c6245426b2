#include "harden/fuzz_driver.h"

#include <algorithm>

#include "codec/obs_bridge.h"
#include "codec/session.h"
#include "common/rng.h"
#include "container/container.h"
#include "corpus/generators.h"

namespace cdpu::harden
{

namespace
{

/** Pooled base material: payloads plus their compressed frames in
 *  both container grammars. Built once per battery — the injector
 *  varies the damage, not the substrate. */
struct BaseFrames
{
    std::vector<Bytes> payloads;
    std::vector<Bytes> bufferFrames;    ///< compressInto output.
    std::vector<Bytes> streamFrames;    ///< Session (stream grammar).
    std::vector<Bytes> containerFrames; ///< Block-parallel container.
};

BaseFrames
buildCorpus(const FuzzConfig &config)
{
    const codec::CodecVTable &vtable = codec::registry(config.codec);
    const codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);

    // The corpus seed folds the battery's seedBase (not per-iteration
    // seeds), so one battery reuses one substrate.
    Rng rng(mutationSeed(
        {config.codec, MutationClass::bitFlip, config.seedBase}) ^
            0xc0ffee5eedull);

    BaseFrames base;
    codec::Scratch scratch;
    const auto classes = corpus::allDataClasses();
    const std::size_t max = std::max<std::size_t>(config.maxPayloadBytes,
                                                  64);
    const std::size_t sizes[] = {0, 1, 33, 512, max / 2, max};
    for (std::size_t size : sizes) {
        auto cls = classes[rng.below(classes.size())];
        base.payloads.push_back(corpus::generate(cls, size, rng));
    }

    for (const Bytes &payload : base.payloads) {
        Bytes frame;
        // Clamped params over synthetic payloads: compression cannot
        // legitimately fail here, and a failure surfaces later as a
        // mutation of an empty frame (harmless).
        (void)vtable.compressInto(payload, params, frame, scratch);
        base.bufferFrames.push_back(std::move(frame));

        Bytes stream;
        auto session = vtable.makeCompressSession(params);
        (void)codec::compressAll(*session, payload, 0, stream);
        base.streamFrames.push_back(std::move(stream));

        if (config.frameKind == FrameKind::container) {
            // Small blocks make every payload a multi-block frame, so
            // the index the mutations target actually has entries.
            container::WriteOptions wopts;
            wopts.blockBytes = 256;
            Bytes frame_bytes;
            (void)container::write(config.codec, payload, wopts,
                                   frame_bytes);
            base.containerFrames.push_back(std::move(frame_bytes));
        }
    }
    return base;
}

struct DriveResult
{
    Status status;
    Bytes out;
};

/** Feeds @p data to a compress or decompress session in @p chunk-byte
 *  steps (0 = one feed), draining eagerly, then finishes. Stops at the
 *  first error, like the serve layer's compressAll/decompressAll. */
template <typename Session>
DriveResult
drive(Session &session, ByteSpan data, std::size_t chunk)
{
    DriveResult result;
    const std::size_t step = chunk == 0 ? data.size() : chunk;
    std::size_t pos = 0;
    do {
        std::size_t take = std::min(step, data.size() - pos);
        result.status = session.feed(data.subspan(pos, take));
        pos += take;
        session.drain(result.out);
        if (!result.status.ok())
            return result;
    } while (pos < data.size());
    result.status = session.finish();
    session.drain(result.out);
    return result;
}

class Battery
{
  public:
    explicit Battery(const FuzzConfig &config)
        : config_(config), vtable_(codec::registry(config.codec)),
          base_(buildCorpus(config))
    {
        if (config_.telemetry && config_.telemetry->flightEnabled())
            ring_ = &config_.telemetry->flight().ring(0);
    }

    FuzzReport
    run()
    {
        for (u64 i = 0; i < config_.iterations; ++i) {
            MutationSpec spec;
            spec.codec = config_.codec;
            spec.cls =
                allMutationClasses()[i % allMutationClasses().size()];
            spec.seed = config_.seedBase + i;
            if (config_.direction != codec::Direction::decompress)
                compressIteration(spec, i);
            else if (config_.frameKind == FrameKind::container)
                containerIteration(spec, i);
            else
                decodeIteration(spec, i);
            ++report_.iterations;
        }
        return std::move(report_);
    }

  private:
    void
    fail(const MutationSpec &spec, std::string what)
    {
        // The battery is single-threaded, so by the time a violation
        // surfaces the ring writer is quiescent and the dump is exact:
        // the last events are literally the iterations leading here.
        if (config_.telemetry) {
            config_.telemetry->noteFault(
                "fuzz " + codec::codecName(config_.codec) + "/" +
                    codec::directionName(config_.direction) +
                    " seed=" + std::to_string(spec.seed) + ": " + what,
                obs::SpanRecorder::nowNs());
        }
        // Cap the list: one pathological run should not OOM the
        // report; the count still tells the story.
        if (report_.failures.size() < 64)
            report_.failures.push_back({spec, std::move(what)});
    }

    /** One flight event per iteration: always-on recent history. */
    void
    recordFlight(u64 iteration, const Status &status, u64 bytes_in,
                 u64 bytes_out)
    {
        if (!ring_)
            return;
        obs::FlightEvent event;
        event.id = iteration;
        event.timestampNs = obs::SpanRecorder::nowNs();
        event.kind = codec::flightKind(config_.codec);
        event.direction = codec::flightDirection(config_.direction);
        event.outcome = codec::flightOutcome(status);
        event.bytesIn = bytes_in;
        event.bytesOut = bytes_out;
        ring_->record(event);
    }

    /** A decode status must be ok or a data error — usage errors,
     *  resource errors, and faults mean the decoder (not the input)
     *  is wrong. */
    bool
    checkDecodeStatus(const MutationSpec &spec, const Status &status,
                      const char *path)
    {
        FailureClass cls = failureClass(status);
        if (cls == FailureClass::none || cls == FailureClass::dataError)
            return true;
        fail(spec, std::string(path) + " decode returned " +
                       failureClassName(cls) + " (" + status.toString() +
                       ") instead of a clean data error");
        return false;
    }

    /** Records one decode's output size; past the tripwire it is an
     *  allocation bug. */
    void
    checkOutputSize(const MutationSpec &spec, const char *path,
                    std::size_t bytes)
    {
        if (bytes > config_.outputTripwireBytes) {
            fail(spec, std::string(path) + " decode produced " +
                           std::to_string(bytes) +
                           " bytes, past the allocation tripwire");
        }
        report_.maxOutputBytes =
            std::max<u64>(report_.maxOutputBytes, bytes);
    }

    void
    decodeIteration(const MutationSpec &spec, u64 i)
    {
        Rng pick(mutationSeed(spec) ^ 0x91cc0fadeull);
        const std::size_t index = pick.below(base_.payloads.size());
        const std::size_t donor_index =
            pick.below(base_.payloads.size());

        // --- Whole-buffer grammar -----------------------------------
        Bytes mutated = CorruptionInjector::mutate(
            base_.bufferFrames[index], spec, FrameKind::buffer,
            base_.bufferFrames[donor_index]);

        Bytes whole;
        Status whole_status =
            vtable_.decompressInto(mutated, whole, scratch_);
        recordFlight(i, whole_status, mutated.size(), whole.size());
        checkDecodeStatus(spec, whole_status, "whole-buffer");
        checkOutputSize(spec, "whole-buffer", whole.size());
        ++(whole_status.ok() ? report_.survivors : report_.cleanRejects);

        if (!config_.checkStreaming || config_.chunkSizes.empty())
            return;
        const std::size_t chunk =
            config_.chunkSizes[(i / allMutationClasses().size()) %
                               config_.chunkSizes.size()];

        if (vtable_.caps.streamingSharesBufferFormat) {
            // Sessions consume the same grammar: the session must land
            // in the same failure class as the whole-buffer decode and
            // produce the same bytes on success.
            auto session = vtable_.makeDecompressSession();
            DriveResult chunked = drive(*session, mutated, chunk);
            checkDecodeStatus(spec, chunked.status, "streaming");
            compareOutcomes(spec, whole_status, whole, chunked,
                            "streaming vs whole-buffer", chunk);
            checkSticky(spec, *session, chunked.status);
        } else {
            // Separate stream grammar (snappy framing): mutate the
            // framed form and compare session granularities against a
            // whole-feed session reference.
            Bytes stream_mutated = CorruptionInjector::mutate(
                base_.streamFrames[index], spec, FrameKind::stream,
                base_.streamFrames[donor_index]);
            auto reference_session = vtable_.makeDecompressSession();
            DriveResult reference =
                drive(*reference_session, stream_mutated, 0);
            checkDecodeStatus(spec, reference.status, "stream");
            checkOutputSize(spec, "stream", reference.out.size());

            auto session = vtable_.makeDecompressSession();
            DriveResult chunked =
                drive(*session, stream_mutated, chunk);
            checkDecodeStatus(spec, chunked.status, "chunked stream");
            compareOutcomes(spec, reference.status, reference.out,
                            chunked, "chunked vs whole-feed stream",
                            chunk);
            checkSticky(spec, *session, chunked.status);
        }
    }

    /**
     * Container-grammar leg: mutate a multi-block container frame,
     * then hold decodeSequential and decodeParallel(2) to the shared
     * contract — ok-or-dataError only, no output past the tripwire
     * (DecodeOptions::maxOutputBytes carries it into the index
     * validator), and sequential/parallel agreement on FailureClass,
     * bytes, and the deterministic work counters.
     */
    void
    containerIteration(const MutationSpec &spec, u64 i)
    {
        Rng pick(mutationSeed(spec) ^ 0x91cc0fadeull);
        const std::size_t index =
            pick.below(base_.containerFrames.size());
        const std::size_t donor_index =
            pick.below(base_.containerFrames.size());

        Bytes mutated = CorruptionInjector::mutate(
            base_.containerFrames[index], spec, FrameKind::container,
            base_.containerFrames[donor_index]);

        container::DecodeOptions options;
        options.maxOutputBytes = config_.outputTripwireBytes;

        Bytes sequential;
        container::DecodeReport sequential_report;
        Status ss = container::decodeSequential(
            mutated, sequential, options, &sequential_report);
        recordFlight(i, ss, mutated.size(), sequential.size());
        checkDecodeStatus(spec, ss, "container sequential");
        checkOutputSize(spec, "container", sequential.size());
        ++(ss.ok() ? report_.survivors : report_.cleanRejects);

        Bytes parallel;
        container::DecodeReport parallel_report;
        Status ps = container::decodeParallel(mutated, 2, parallel,
                                              options, &parallel_report);
        checkDecodeStatus(spec, ps, "container parallel");
        if (failureClass(ss) != failureClass(ps)) {
            fail(spec, "container sequential/parallel verdict "
                       "divergence: " +
                           ss.toString() + " vs " + ps.toString());
            return;
        }
        if (ss.ok() && sequential != parallel) {
            fail(spec, "container parallel output diverges from the "
                       "sequential reference");
        }
        if (sequential_report.work.counters !=
            parallel_report.work.counters) {
            fail(spec, "container work counters depend on the "
                       "schedule");
        }
    }

    void
    compareOutcomes(const MutationSpec &spec, const Status &reference,
                    const Bytes &reference_out,
                    const DriveResult &chunked, const char *label,
                    std::size_t chunk)
    {
        if (failureClass(reference) != failureClass(chunked.status)) {
            fail(spec,
                 std::string(label) + " error-class divergence at chunk=" +
                     std::to_string(chunk) + ": " + reference.toString() +
                     " vs " + chunked.status.toString());
            return;
        }
        if (reference.ok() && reference_out != chunked.out) {
            fail(spec, std::string(label) +
                           " output divergence at chunk=" +
                           std::to_string(chunk));
        }
    }

    /** A failed session must keep reporting the same failure class. */
    void
    checkSticky(const MutationSpec &spec,
                codec::DecompressSession &session, const Status &first)
    {
        if (first.ok())
            return;
        Status again = session.finish();
        if (failureClass(again) != failureClass(first)) {
            fail(spec, "session error not sticky: " + first.toString() +
                           " then " + again.toString());
        }
    }

    void
    compressIteration(const MutationSpec &spec, u64 i)
    {
        Rng pick(mutationSeed(spec) ^ 0x91cc0fadeull);
        const std::size_t index = pick.below(base_.payloads.size());
        const std::size_t donor_index =
            pick.below(base_.payloads.size());

        // Any byte string is a legal compression input, so the
        // injector's output doubles as a payload-shape generator.
        Bytes payload = CorruptionInjector::mutate(
            base_.payloads[index], spec, FrameKind::buffer,
            base_.payloads[donor_index]);
        if (payload.size() > config_.maxPayloadBytes * 2)
            payload.resize(config_.maxPayloadBytes * 2);

        // Sweep the clamped parameter space, not just defaults. Top
        // levels build large match-finder tables, so the full range is
        // sampled on 1 in 8 iterations and the rest stay in the cheap
        // band around the default — full coverage without every
        // iteration paying the heavyweight-tier setup cost.
        const codec::CodecCaps &caps = vtable_.caps;
        int level = caps.defaultLevel;
        if (caps.hasLevels) {
            const int hi = pick.chance(0.125)
                               ? caps.maxLevel
                               : std::min(caps.maxLevel,
                                          caps.defaultLevel + 1);
            level = static_cast<int>(pick.range(
                        static_cast<u64>(0),
                        static_cast<u64>(hi - caps.minLevel))) +
                    caps.minLevel;
        }
        unsigned window =
            caps.hasWindow
                ? static_cast<unsigned>(pick.range(caps.minWindowLog,
                                                   caps.maxWindowLog))
                : caps.defaultWindowLog;
        const codec::CodecParams params = caps.clamp(level, window);
        const bool check_fresh = pick.chance(0.125);

        Bytes compressed;
        Status cs =
            vtable_.compressInto(payload, params, compressed, scratch_);
        recordFlight(i, cs, payload.size(), compressed.size());
        if (!cs.ok()) {
            fail(spec, "compress failed on legal input: " +
                           cs.toString());
            return;
        }
        if (check_fresh) {
            // The battery's scratch has served every earlier iteration,
            // clean and corrupt; a fresh one must give the same bytes.
            codec::Scratch fresh;
            Bytes fresh_out;
            Status fs =
                vtable_.compressInto(payload, params, fresh_out, fresh);
            if (!fs.ok() || fresh_out != compressed) {
                fail(spec, "compress output on a reused scratch differs "
                           "from a fresh scratch's: " +
                               fs.toString());
            }
        }
        const u64 bound = static_cast<u64>(payload.size()) *
                              caps.maxExpansionNum / caps.maxExpansionDen +
                          caps.maxExpansionSlop;
        if (compressed.size() > bound ||
            compressed.size() >
                vtable_.maxCompressedSize(payload.size())) {
            fail(spec, "compressed output " +
                           std::to_string(compressed.size()) +
                           " exceeds the CodecCaps expansion bound " +
                           std::to_string(bound));
        }

        Bytes round;
        Status ds = vtable_.decompressInto(compressed, round, scratch_);
        if (!ds.ok() || round != payload) {
            fail(spec, "compress round-trip failed: " + ds.toString());
        }

        if (!config_.checkStreaming || config_.chunkSizes.empty())
            return;
        const std::size_t chunk =
            config_.chunkSizes[(i / allMutationClasses().size()) %
                               config_.chunkSizes.size()];

        // Chunk-invariance reference: when the session shares the
        // whole-buffer container, compressInto's output IS the
        // reference, so only the chunked session runs; otherwise
        // (snappy's framing container) drive a whole-feed session.
        DriveResult reference;
        if (caps.streamingSharesBufferFormat) {
            reference.out = compressed;
        } else {
            auto reference_session = vtable_.makeCompressSession(params);
            reference = drive(*reference_session, payload, 0);
        }
        auto session = vtable_.makeCompressSession(params);
        DriveResult chunked = drive(*session, payload, chunk);
        if (!reference.status.ok() || !chunked.status.ok()) {
            fail(spec, "session compress failed on legal input: " +
                           reference.status.toString() + " / " +
                           chunked.status.toString());
            return;
        }
        if (reference.out != chunked.out) {
            fail(spec, "session compress not chunk-invariant at chunk=" +
                           std::to_string(chunk));
            return;
        }
        auto decode_session = vtable_.makeDecompressSession();
        DriveResult decoded =
            drive(*decode_session, reference.out, 0);
        if (!decoded.status.ok() || decoded.out != payload) {
            fail(spec, "session stream round-trip failed: " +
                           decoded.status.toString());
        }
    }

    FuzzConfig config_;
    const codec::CodecVTable &vtable_;
    BaseFrames base_;
    /** One scratch for every whole-buffer call of the battery, as a
     *  serving context keeps one. */
    codec::Scratch scratch_;
    FuzzReport report_;
    obs::FlightRing *ring_ = nullptr;
};

} // namespace

std::string
FuzzReport::summary(const FuzzConfig &config) const
{
    std::string line = codec::codecName(config.codec) +
                       (config.frameKind == FrameKind::container
                            ? "+container"
                            : "") +
                       "/" + codec::directionName(config.direction) +
                       ": " +
                       std::to_string(iterations) + " iterations";
    if (config.direction == codec::Direction::decompress) {
        line += ", " + std::to_string(cleanRejects) + " clean rejects, " +
                std::to_string(survivors) + " survivors, max output " +
                std::to_string(maxOutputBytes) + " bytes";
    }
    line += ", " + std::to_string(failures.size()) + " failures";
    return line;
}

FuzzReport
runFuzz(const FuzzConfig &config)
{
    return Battery(config).run();
}

} // namespace cdpu::harden
