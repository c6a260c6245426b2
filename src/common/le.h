/**
 * @file
 * Little-endian fixed-width fields.
 *
 * Every frame header this repo defines stores its fixed-width fields
 * least significant byte first, whatever the host's byte order: the
 * cdpud wire frames, the CDPC container's index CRC and framed
 * Snappy's chunk CRCs. One writer and one reader serve all of them.
 */

#ifndef CDPU_COMMON_LE_H_
#define CDPU_COMMON_LE_H_

#include <concepts>

#include "common/types.h"

namespace cdpu
{

/** Appends @p value to @p out as sizeof(T) little-endian bytes. */
template <std::unsigned_integral T>
void
putLe(Bytes &out, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<u8>(value >> (8 * i)));
}

/** Reads the sizeof(T)-byte little-endian field at @p data[@p pos];
 *  the caller has checked that those bytes exist. */
template <std::unsigned_integral T>
T
getLe(ByteSpan data, std::size_t pos)
{
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(static_cast<T>(data[pos + i]) << (8 * i));
    return value;
}

} // namespace cdpu

#endif // CDPU_COMMON_LE_H_
