#include "common/crc32c.h"

#include "common/kernels.h"
#include "common/mem.h"

namespace cdpu
{

u32
crc32cUpdate(u32 crc, ByteSpan data)
{
    // The tier's loop operates on the raw reflected state; the ~crc
    // conditioning stays here so every tier computes the identical
    // public function (SSE4.2's crc32 instruction implements exactly
    // this byte-table recurrence in hardware).
    mem::kernelStats().tierCrc32cBytes[kernels::activeTierIndex()] +=
        data.size();
    return ~kernels::detail::activeCrc32cUpdate(~crc, data.data(),
                                                data.size());
}

u32
crc32c(ByteSpan data)
{
    return crc32cUpdate(0, data);
}

u32
maskCrc(u32 crc)
{
    return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

u32
unmaskCrc(u32 masked)
{
    u32 rot = masked - 0xa282ead8u;
    return (rot >> 17) | (rot << 15);
}

} // namespace cdpu
