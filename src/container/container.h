/**
 * @file
 * Block-parallel decode container: one stream, many cores.
 *
 * Single-buffer decompression is inherently serial — the decoder's
 * next action depends on every byte before it. CODAG and Sitaridi et
 * al.'s massively-parallel decompression (PAPERS.md) both break the
 * serial chain the same way this format does: cut the input into
 * independently-compressed blocks at compress time and record the
 * block boundaries in a frame index, so N workers (or N CDPU PUs —
 * sim/container_scenario.h) can decode one stream concurrently and
 * stitch the results in order.
 *
 * The container is codec-generic: each block is a complete whole-buffer
 * frame of any registry codec, so the format inherits every codec's
 * own validation and the registry's capability metadata for free.
 * Byte layout, index grammar, and the error contract are specified in
 * DESIGN.md §14; the differential battery in tests/container_test.cpp
 * pins the core claim (parallel output is byte-identical to the
 * sequential reference, with identical work counters and identical
 * FailureClass verdicts on damaged input).
 */

#ifndef CDPU_CONTAINER_CONTAINER_H_
#define CDPU_CONTAINER_CONTAINER_H_

#include <array>

#include "codec/registry.h"
#include "obs/counters.h"

namespace cdpu::container
{

/** Container magic ("CDPC"): byte 0 of every container frame. */
inline constexpr std::array<u8, 4> kMagic = {'C', 'D', 'P', 'C'};

/** Format version this code writes and the only one it reads. */
inline constexpr u8 kVersion = 1;

/**
 * Codec-byte escape for pipeline codecs: base codecs keep their
 * stable one-byte BaseCodecId (committed v1 frames stay valid), while
 * kPipelineCodecByte announces that a varint-length spec string (the
 * pipeline's registered name, e.g. "delta+snappy") follows the flags
 * byte. Encoding a base codec through the escape is non-canonical and
 * rejected.
 */
inline constexpr u8 kPipelineCodecByte = 0xff;

/** Cap on the escape's spec-string length: longest legal spec is
 *  4 stages + terminal, far below this; anything bigger is a lie. */
inline constexpr std::size_t kMaxSpecNameBytes = 64;

/**
 * Hard cap on the index's block count. The index is the only part of
 * the format whose claimed sizes drive allocation before any codec
 * validation runs, so both its entry count and its claimed output
 * total (DecodeOptions::maxOutputBytes) are bounded up front — a
 * tampered index must be rejected for the lie, not trusted into an
 * allocation (DESIGN.md §14 error contract).
 */
inline constexpr std::size_t kMaxBlockCount = std::size_t{1} << 20;

/** Default decode-side cap on the index's total claimed output. */
inline constexpr u64 kDefaultMaxOutputBytes = u64{1} << 30;

/** Compress-side tuning. */
struct WriteOptions
{
    /** Target uncompressed bytes per block; 0 = one block for the
     *  whole input. Small blocks buy decode parallelism at a ratio
     *  cost (per-block headers, no cross-block history). */
    std::size_t blockBytes = 128 * kKiB;
    /** Codec effort level; -1 = the codec's registry default. */
    int level = -1;
    /** Codec window log; -1 = the codec's registry default. */
    int windowLog = -1;
};

/** One index entry. Offsets are relative to the data section start
 *  and must be contiguous: offset[0] == 0 and
 *  offset[i+1] == offset[i] + compSize[i]. */
struct BlockEntry
{
    u64 offset = 0;    ///< Block start, relative to dataStart.
    u64 compSize = 0;  ///< Compressed frame bytes.
    u64 regenSize = 0; ///< Uncompressed bytes this block regenerates.
};

/** Parsed and validated frame index. */
struct FrameIndex
{
    codec::CodecId codec = codec::CodecId::snappy;
    std::vector<BlockEntry> blocks;
    u64 totalRegenBytes = 0;    ///< Sum of regenSize (header copy).
    std::size_t dataStart = 0;  ///< First block byte in the container.
    std::size_t dataBytes = 0;  ///< Sum of compSize.
};

/**
 * Compresses @p input into a container frame: header + CRC-protected
 * index + one whole-buffer @p id frame per block. Clears @p out first
 * (capacity kept — the registry's *Into reuse contract). Never fails
 * on legal options; an out-of-range level/window is clamped against
 * the codec's capability metadata.
 */
Status write(codec::CodecId id, ByteSpan input,
             const WriteOptions &options, Bytes &out);

/**
 * Parses and fully validates @p frame's header and index: magic,
 * version, codec id, block-count and total-regen bounds, varint
 * well-formedness, offset contiguity, per-block sanity (no empty
 * blocks), data-section length, and the index CRC32C. Any violation
 * is corruptData; the index never trusts a claim it can check.
 */
Result<FrameIndex> parseIndex(ByteSpan frame);

/** Decode-side options shared by the sequential and parallel paths. */
struct DecodeOptions
{
    /** Reject an index whose claimed output total exceeds this before
     *  allocating anything (the index-driven allocation tripwire; the
     *  harden fuzz battery lowers it to its 16 MiB output bound). */
    u64 maxOutputBytes = kDefaultMaxOutputBytes;
};

/**
 * Decode accounting, split exactly like serve::ReplayReport:
 * everything in @ref work is a pure function of the frame — equal for
 * the sequential reference and any worker count — while @ref runtime
 * (steals) depends on scheduling and is not comparable across runs.
 */
struct DecodeReport
{
    /** container.blocks[.ok|.failed|.<codec>], container.bytes.{in,out},
     *  container.block_regen_bytes (sizes of the blocks that decoded),
     *  merged kernel.* totals. */
    obs::CounterSnapshot work;
    /** container.steals (parallel only). */
    obs::CounterSnapshot runtime;
    u64 blocks = 0;
    u64 bytesOut = 0;
};

/**
 * No-thread reference reader: parses the index, then decodes block by
 * block in order through one reused codec scratch. The differential
 * oracle decodeParallel() is compared to.
 *
 * Error contract (both paths): a malformed index or a block that
 * fails to decode (or decodes to a size other than its entry's
 * regenSize) returns corruptData, @p out is left empty — never
 * partial output — and the verdict is the lowest-index failing
 * block's. Every block is attempted regardless of earlier failures,
 * so the work counters are deterministic even on damaged frames.
 */
Status decodeSequential(ByteSpan frame, Bytes &out,
                        const DecodeOptions &options = {},
                        DecodeReport *report = nullptr);

/**
 * Parallel scheduler: fans the index's blocks out over the
 * process-wide serve::Executor pool of @p workers threads (stealing,
 * one reused codec scratch per worker; started by the first call for
 * that count and kept, so later calls start no threads) and stitches
 * the outputs into @p out at the index's regen offsets. Workers write
 * disjoint output ranges, so stitching needs no lock. @p workers is
 * clamped to >= 1; the result is byte-identical to decodeSequential()
 * at any count. Must not be called from a task of that pool.
 */
Status decodeParallel(ByteSpan frame, unsigned workers, Bytes &out,
                      const DecodeOptions &options = {},
                      DecodeReport *report = nullptr);

} // namespace cdpu::container

#endif // CDPU_CONTAINER_CONTAINER_H_
