/**
 * @file
 * FSE (tANS) stream encoder.
 *
 * Symbols are consumed in reverse so the decoder can emit them in
 * forward order while reading the bitstream from the tail (see
 * BackwardBitReader). Multiple encoders may interleave into one
 * BitWriter — ZstdLite's sequences section runs three (literal-length,
 * match-length, offset) exactly like zstd.
 */

#ifndef CDPU_FSE_ENCODER_H_
#define CDPU_FSE_ENCODER_H_

#include "common/bitio.h"
#include "common/histogram.h"
#include "fse/table.h"

namespace cdpu::fse
{

/** Incremental encoder: one ANS state walking backward over symbols. */
class Encoder
{
  public:
    explicit Encoder(const EncodeTable &table)
        : table_(&table),
          state_(static_cast<u32>(table.size())) // any valid start state
    {}

    /**
     * Encodes one symbol (callers iterate their stream in reverse),
     * appending the state-transition bits to @p writer.
     * @pre The symbol has a nonzero normalized count.
     */
    void
    encode(u8 symbol, BitWriter &writer)
    {
        const u32 count = table_->counts[symbol];
        // Renormalize: emit low bits until state >> nb lands in
        // [count, 2*count), then map the sub-state to the next state.
        unsigned nb = table_->tableLog - floorLog2(count);
        if ((state_ >> nb) < count)
            --nb;
        writer.put(state_ & ((1u << nb) - 1), nb);
        state_ = table_->stateMap[table_->cumul[symbol] +
                                  ((state_ >> nb) - count)];
        ++encoded_;
    }

    /** Writes the final state (tableLog bits); call once, last. */
    void flushState(BitWriter &writer);

    /** Symbols encoded so far (CDPU model: one state update each). */
    u64 symbolCount() const { return encoded_; }

  private:
    const EncodeTable *table_;
    u32 state_;
    u64 encoded_ = 0;
};

/**
 * Convenience: encodes a whole symbol buffer (reversed internally) and
 * returns the bit cost excluding the flushed state.
 */
Result<u64> encodeAll(const EncodeTable &table, ByteSpan symbols,
                      BitWriter &writer);

} // namespace cdpu::fse

#endif // CDPU_FSE_ENCODER_H_
