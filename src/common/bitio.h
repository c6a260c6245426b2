/**
 * @file
 * Bit-granular stream writers/readers used by the entropy coders.
 *
 * Two disciplines are provided:
 *  - BitWriter/BitReader: LSB-first forward streams (Huffman literals).
 *  - BackwardBitReader: reads a finished BitWriter stream from the end,
 *    which is the natural direction for tANS/FSE decoding (the encoder
 *    emits bits forward while consuming symbols backward, so the decoder
 *    consumes bits from the tail).
 *
 * Both readers refill from memory one unaligned 64-bit word at a time
 * (common/mem.h) and only fall back to byte-stepping for streams
 * shorter than a word; refill counts land in mem::kernelStats().
 *
 * bitWindow() is the unchecked primitive under the fused decode loops
 * (huffman, zstdlite sequences, flatelite, gipfeli): one load yields
 * several symbols, and the caller checks its cursor against the
 * stream length once per element rather than once per read.
 */

#ifndef CDPU_COMMON_BITIO_H_
#define CDPU_COMMON_BITIO_H_

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/error.h"
#include "common/mem.h"
#include "common/types.h"

namespace cdpu
{

/**
 * The bits of LSB-first stream [@p data, @p data + @p size) from bit
 * @p start upward, in the low bits of the result: at least 57 valid
 * bits, with bits past the end of the stream reading as zero. No
 * Status and no kernelStats(); callers own the bounds verdict.
 */
inline u64
bitWindow(const u8 *data, std::size_t size, u64 start)
{
    const std::size_t byte = static_cast<std::size_t>(start >> 3);
    u64 word = 0;
    if (byte + 8 <= size)
        word = mem::loadU64(data + byte);
    else if (byte < size)
        std::memcpy(&word, data + byte, size - byte);
    return word >> (start & 7);
}

/**
 * Accumulates bits LSB-first into a byte buffer.
 *
 * Bits are appended into a 64-bit accumulator. Every put() stores the
 * whole accumulator at a byte cursor with one unaligned 8-byte store
 * and moves the cursor past the bytes it completed, so there is no
 * branch on whether a byte completed. The buffer is kept at least 8
 * bytes past the cursor. terminate() pads the final partial byte with
 * a terminating 1-bit followed by zeros, exactly like zstd's
 * bitstream, so a backward reader can locate the last valid bit.
 *
 * A writer kept across calls reuses its buffer: clear() starts the
 * next stream in it without giving up its capacity.
 */
class BitWriter
{
  public:
    /** Appends the low @p nbits bits of @p value. @pre nbits <= 56. */
    void
    put(u64 value, unsigned nbits)
    {
        assert(nbits <= 56);
        assert(nbits == 64 || (value >> nbits) == 0);
        acc_ |= value << filled_;
        filled_ += nbits;
        if (pos_ + 8 > bytes_.size())
            bytes_.resize(std::max<std::size_t>(2 * bytes_.size(),
                                                pos_ + 64));
        mem::storeU64(bytes_.data() + pos_, acc_);
        const unsigned whole = filled_ & ~7u; // <= 56: filled_ <= 7 + 56
        pos_ += whole / 8;
        acc_ >>= whole;
        filled_ -= whole;
    }

    /** Number of bits written so far (excluding the terminator). */
    u64 bitCount() const { return u64{pos_} * 8 + filled_; }

    /**
     * Terminates the stream with a marker 1-bit and returns its bytes,
     * which stay valid until the next put() or clear().
     */
    ByteSpan
    terminate()
    {
        put(1, 1);
        // That put() already stored the partial last byte at the cursor.
        return ByteSpan(bytes_.data(), pos_ + (filled_ > 0 ? 1 : 0));
    }

    /** Forgets the stream, keeping the buffer for the next one. */
    void
    clear()
    {
        pos_ = 0;
        acc_ = 0;
        filled_ = 0;
    }

    /**
     * Terminates the stream and moves its bytes out. The writer is left
     * empty and reusable.
     */
    Bytes
    finish()
    {
        bytes_.resize(terminate().size());
        Bytes out = std::move(bytes_);
        bytes_.clear();
        clear();
        return out;
    }

  private:
    Bytes bytes_; ///< Sized past pos_; bytes from pos_ on are scratch.
    std::size_t pos_ = 0;
    u64 acc_ = 0;
    unsigned filled_ = 0;
};

/** Reads an LSB-first forward bit stream produced by BitWriter::put. */
class BitReader
{
  public:
    explicit BitReader(ByteSpan data) : data_(data) {}

    /** True when at least @p nbits remain. */
    bool
    hasBits(unsigned nbits) const
    {
        return bitPos_ + nbits <= data_.size() * 8;
    }

    /** Reads @p nbits (<= 56) LSB-first; corrupt if the stream is short. */
    Result<u64>
    read(unsigned nbits)
    {
        if (!hasBits(nbits))
            return Status::corrupt("bit stream truncated");
        u64 value = peekUnchecked(nbits);
        bitPos_ += nbits;
        return value;
    }

    u64 bitPos() const { return bitPos_; }

    /** The whole stream, for fused loops that refill with bitWindow()
     *  and hand the cursor back through seek(). */
    ByteSpan data() const { return data_; }

    /** Moves the cursor to @p bit_pos. @pre bit_pos <= data().size() * 8. */
    void
    seek(u64 bit_pos)
    {
        assert(bit_pos <= data_.size() * 8);
        bitPos_ = bit_pos;
    }

    /**
     * Returns the next @p nbits without consuming them; bits past the
     * end of the stream read as zero. Used by table-driven decoders
     * that peek a fixed window and then advance by the decoded length.
     */
    u64
    peek(unsigned nbits) const
    {
        u64 avail = data_.size() * 8 - bitPos_;
        unsigned take = static_cast<unsigned>(
            std::min<u64>(nbits, avail));
        return take == 0 ? 0 : peekUnchecked(take);
    }

    /** Consumes @p nbits; corrupt if fewer remain. */
    Status
    advance(unsigned nbits)
    {
        if (!hasBits(nbits))
            return Status::corrupt("bit stream truncated");
        bitPos_ += nbits;
        return Status::okStatus();
    }

  private:
    /**
     * Extracts @p nbits starting at bit @p bitPos_ with a single
     * unaligned word load when the stream allows it. @pre nbits >= 1,
     * nbits <= 56, and bitPos_ + nbits within the stream.
     */
    u64
    peekUnchecked(unsigned nbits) const
    {
        assert(nbits <= 56);
        if (nbits == 0)
            return 0;
        const u64 mask = (1ull << nbits) - 1;
        const std::size_t byte = static_cast<std::size_t>(bitPos_ >> 3);
        if (byte + 8 <= data_.size()) {
            // Word refill: one load yields >= 57 valid bits after the
            // sub-byte shift, enough for any legal nbits.
            ++mem::kernelStats().bitioFastRefills;
            return (mem::loadU64(data_.data() + byte) >>
                    (bitPos_ & 7)) & mask;
        }
        if (data_.size() >= 8) {
            // Within 8 bytes of the end: load the final word and shift
            // to the cursor. The precondition bounds the shift below 64
            // and guarantees the surviving bits cover nbits.
            ++mem::kernelStats().bitioFastRefills;
            const u64 base_bit = (data_.size() - 8) * 8;
            return (mem::loadU64(data_.data() + data_.size() - 8) >>
                    (bitPos_ - base_bit)) & mask;
        }
        // Streams shorter than one word: byte-step.
        ++mem::kernelStats().bitioSlowRefills;
        u64 acc = 0;
        unsigned got = 0;
        u64 pos = bitPos_;
        while (got < nbits) {
            u64 b = data_[pos >> 3];
            unsigned offset = pos & 7;
            unsigned take = std::min<unsigned>(8 - offset, nbits - got);
            acc |= ((b >> offset) & ((1ull << take) - 1)) << got;
            got += take;
            pos += take;
        }
        return acc;
    }

    ByteSpan data_;
    u64 bitPos_ = 0;
};

/**
 * Reads a finish()ed BitWriter stream starting from the final bit.
 *
 * init() locates the terminating 1-bit in the last byte; subsequent read()
 * calls return the most recently written bits first, which reverses the
 * encoder's order — the FSE decoder relies on this.
 */
class BackwardBitReader
{
  public:
    /** Positions the cursor just below the terminator bit. */
    static Result<BackwardBitReader>
    open(ByteSpan data)
    {
        if (data.empty())
            return Status::corrupt("empty backward bit stream");
        u8 last = data[data.size() - 1];
        if (last == 0)
            return Status::corrupt("missing bit stream terminator");
        unsigned top = 7;
        while (((last >> top) & 1) == 0)
            --top;
        BackwardBitReader reader;
        reader.data_ = data;
        reader.bitsLeft_ = (data.size() - 1) * 8 + top;
        return reader;
    }

    /** Bits still unread. */
    u64 bitsLeft() const { return bitsLeft_; }

    /**
     * Reads @p nbits in write order (the value reassembles exactly what
     * BitWriter::put received). Reading past the start is corrupt.
     */
    Result<u64>
    read(unsigned nbits)
    {
        assert(nbits <= 56);
        if (nbits > bitsLeft_)
            return Status::corrupt("backward bit stream underflow");
        bitsLeft_ -= nbits;
        if (nbits == 0)
            return u64{0};
        const u64 mask = (1ull << nbits) - 1;
        const std::size_t byte =
            static_cast<std::size_t>(bitsLeft_ >> 3);
        if (byte + 8 <= data_.size()) {
            // Word refill at the new cursor; the sub-byte shift leaves
            // >= 57 valid bits, enough for any legal nbits.
            ++mem::kernelStats().bitioBackwardFastRefills;
            return (mem::loadU64(data_.data() + byte) >>
                    (bitsLeft_ & 7)) & mask;
        }
        if (data_.size() >= 8) {
            // Near the stream tail: load the final word. The cursor
            // plus nbits never passes the terminator bit, which bounds
            // the shift below 64 and keeps nbits bits in range.
            ++mem::kernelStats().bitioBackwardFastRefills;
            const u64 base_bit = (data_.size() - 8) * 8;
            return (mem::loadU64(data_.data() + data_.size() - 8) >>
                    (bitsLeft_ - base_bit)) & mask;
        }
        ++mem::kernelStats().bitioBackwardSlowRefills;
        u64 acc = 0;
        for (unsigned got = 0; got < nbits;) {
            u64 pos = bitsLeft_ + got;
            u64 b = data_[pos >> 3];
            unsigned offset = pos & 7;
            unsigned take = std::min<unsigned>(8 - offset, nbits - got);
            acc |= ((b >> offset) & ((1ull << take) - 1)) << got;
            got += take;
        }
        return acc;
    }

    /** Constructs an empty reader; use open() to create a usable one. */
    BackwardBitReader() = default;

  private:
    ByteSpan data_;
    u64 bitsLeft_ = 0;
};

} // namespace cdpu

#endif // CDPU_COMMON_BITIO_H_
