/**
 * @file
 * ZstdLite decompressor with window validation and full corruption
 * checking.
 */

#ifndef CDPU_ZSTDLITE_DECOMPRESS_H_
#define CDPU_ZSTDLITE_DECOMPRESS_H_

#include "zstdlite/format.h"
#include "zstdlite/scratch.h"

namespace cdpu::zstdlite
{

/** Parses only the frame header (size probing). */
Result<FrameHeader> peekFrameHeader(ByteSpan data);

/**
 * Decompresses a ZstdLite frame.
 *
 * Validates magic, window-bounded offsets, history bounds, literal
 * budgets, and the content-size claim; never reads outside @p data.
 * Optionally records a per-block trace for the CDPU cycle models; a
 * trace only observes, the same loop decodes either way.
 */
Result<Bytes> decompress(ByteSpan data, FileTrace *trace = nullptr);

/**
 * Context-reuse variant of decompress(): decodes into @p out, clearing
 * it first but keeping its capacity (see snappy::decompressInto), and
 * rebuilds each block's literals and tables in @p scratch. On error
 * @p out is left in an unspecified (but valid) state.
 */
Status decompressInto(ByteSpan data, Bytes &out, Scratch &scratch,
                      FileTrace *trace = nullptr);

/** decompressInto() on a scratch of its own. */
Status decompressInto(ByteSpan data, Bytes &out,
                      FileTrace *trace = nullptr);

/**
 * Incremental frame decoder over the block structure: feed() accepts
 * compressed bytes in any granularity and decodes every block that is
 * complete (blocks are self-delimiting: raw/rle lengths come from the
 * block header, compressed blocks carry an explicit body size), so a
 * long frame decodes as its bytes arrive instead of waiting for the
 * whole buffer. The codec layer's zstdlite DecompressSession is built
 * on this.
 *
 * Decoded bytes are handed out through drainInto(); the decoder
 * retains the full decoded history internally because match offsets
 * may reach back a whole window (up to 2^kMaxWindowLog). finish()
 * validates termination: a frame cut off mid-block or before its last
 * block fails with corruptData — never a short success — and the
 * content-size claim is enforced exactly as in decompressInto().
 * Errors are sticky.
 */
class StreamDecoder
{
  public:
    /** Appends compressed bytes and decodes all complete blocks. */
    Status feed(ByteSpan data);

    /** Declares end of stream; fails on any truncation. */
    Status finish();

    /** Moves decoded bytes to the end of @p out; returns the count. */
    std::size_t drainInto(Bytes &out);

  private:
    Bytes buffer_;           ///< Undecoded compressed bytes.
    std::size_t cursor_ = 0; ///< Start of the first unparsed block.
    bool headerParsed_ = false;
    FrameHeader header_;
    bool sawLast_ = false;
    Bytes out_;              ///< Full decoded history (window source).
    std::size_t drained_ = 0;
    Scratch scratch_;
    Status failed_;
};

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_DECOMPRESS_H_
