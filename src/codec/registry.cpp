#include "codec/registry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <mutex>

#include "codec/spec.h"
#include "codec/vtables.h"

namespace cdpu::codec
{

namespace
{

/** Hard ceiling on registered codecs: bounds what hostile container
 *  headers can make codecFromName() build, and keeps the lock-free
 *  read path a fixed-size array. */
constexpr std::size_t kMaxRegisteredCodecs = 512;

/**
 * Append-only codec table. Readers take no lock: slots are published
 * with a release store of the count after the slot pointer is
 * written, and ids never move once assigned. Writers serialise on the
 * mutex. Pipeline vtables are owned here; base vtables are statics in
 * their registration files.
 */
struct RegistryState
{
    std::array<const CodecVTable *, kMaxRegisteredCodecs> table{};
    std::atomic<std::size_t> count{0};
    std::mutex mutex;
    std::vector<std::unique_ptr<CodecVTable>> owned;
};

RegistryState &
state()
{
    static RegistryState instance;
    return instance;
}

/** Appends @p vtable; requires state().mutex held. */
Result<CodecId>
appendLocked(RegistryState &s, const CodecVTable *vtable)
{
    std::size_t slot = s.count.load(std::memory_order_relaxed);
    if (slot >= kMaxRegisteredCodecs)
        return Status::invalid("codec registry full");
    s.table[slot] = vtable;
    s.count.store(slot + 1, std::memory_order_release);
    return static_cast<CodecId>(slot);
}

/** Registers @p spec if its name is new; requires mutex held. */
Result<CodecId>
registerPipelineLocked(RegistryState &s, const CodecSpec &spec)
{
    std::string name = spec.toString();
    std::size_t n = s.count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        if (s.table[i]->caps.name == name)
            return static_cast<CodecId>(i);
    }
    std::unique_ptr<CodecVTable> vtable =
        detail::makePipelineVTable(spec);
    std::size_t slot = s.count.load(std::memory_order_relaxed);
    if (slot >= kMaxRegisteredCodecs)
        return Status::invalid("codec registry full");
    vtable->caps.id = static_cast<CodecId>(slot);
    const CodecVTable *raw = vtable.get();
    s.owned.push_back(std::move(vtable));
    return appendLocked(s, raw);
}

/**
 * One-time registration: the four base codecs in BaseCodecId order
 * (their slots ARE their enum values), then the curated pipeline set
 * that ships as headline bench variants. Runs under call_once and
 * must not call any public registry function.
 */
void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] {
        RegistryState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (std::size_t i = 0; i < kNumBaseCodecs; ++i) {
            Result<CodecId> id = appendLocked(
                s, &detail::baseVTable(static_cast<BaseCodecId>(i)));
            assert(id.ok());
            (void)id;
        }
        using transform::StageId;
        const CodecSpec kCurated[] = {
            {{StageId::delta}, BaseCodecId::snappy},
            {{StageId::bwt, StageId::mtf}, BaseCodecId::flatelite},
            {{StageId::shred}, BaseCodecId::zstdlite},
        };
        for (const CodecSpec &spec : kCurated) {
            Result<CodecId> id = registerPipelineLocked(s, spec);
            assert(id.ok());
            (void)id;
        }
    });
}

} // namespace

namespace detail
{

const CodecVTable &
baseVTable(BaseCodecId base)
{
    switch (base) {
      case BaseCodecId::snappy: return snappyVTable();
      case BaseCodecId::zstdlite: return zstdliteVTable();
      case BaseCodecId::flatelite: return flateliteVTable();
      case BaseCodecId::gipfeli: return gipfeliVTable();
    }
    return snappyVTable();
}

} // namespace detail

CodecParams
CodecCaps::clamp(int level, unsigned window_log) const
{
    CodecParams params;
    params.level = hasLevels ? std::clamp(level, minLevel, maxLevel)
                             : defaultLevel;
    params.windowLog =
        hasWindow ? std::clamp(window_log, minWindowLog, maxWindowLog)
                  : defaultWindowLog;
    return params;
}

const CodecVTable &
registry(CodecId id)
{
    ensureBuiltins();
    RegistryState &s = state();
    std::size_t index = static_cast<std::size_t>(id);
    assert(index < s.count.load(std::memory_order_acquire));
    return *s.table[index];
}

BaseCodecId
terminalBase(CodecId id)
{
    const CodecCaps &caps = registry(id).caps;
    return caps.isPipeline ? caps.terminal
                           : static_cast<BaseCodecId>(
                                 static_cast<std::size_t>(id));
}

Result<CodecId>
registerPipeline(const CodecSpec &spec)
{
    ensureBuiltins();
    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return registerPipelineLocked(s, spec);
}

std::vector<CodecId>
allCodecs()
{
    ensureBuiltins();
    RegistryState &s = state();
    std::size_t n = s.count.load(std::memory_order_acquire);
    std::vector<CodecId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(static_cast<CodecId>(i));
    return ids;
}

std::size_t
registeredCodecCount()
{
    ensureBuiltins();
    return state().count.load(std::memory_order_acquire);
}

std::string
codecName(CodecId id)
{
    return registry(id).caps.name;
}

std::string
codecDisplayName(CodecId id)
{
    return registry(id).caps.displayName;
}

Result<CodecId>
codecFromName(const std::string &name)
{
    ensureBuiltins();
    RegistryState &s = state();
    {
        std::size_t n = s.count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            if (s.table[i]->caps.name == name)
                return static_cast<CodecId>(i);
        }
    }
    if (name.find('+') != std::string::npos) {
        Result<CodecSpec> spec = CodecSpec::parse(name);
        if (!spec.ok())
            return spec.status();
        return registerPipeline(spec.value());
    }
    std::string known;
    for (CodecId id : allCodecs()) {
        if (!known.empty())
            known += ", ";
        known += registry(id).caps.name;
    }
    return Status::invalid("unknown codec \"" + name +
                           "\"; registered: " + known +
                           " (or a pipeline spec like delta+snappy)");
}

std::string
directionName(Direction direction)
{
    return direction == Direction::compress ? "compress" : "decompress";
}

Status
compressInto(CodecId id, ByteSpan input, const CodecParams &params,
             Bytes &out)
{
    Scratch scratch;
    return registry(id).compressInto(input, params, out, scratch);
}

Status
decompressInto(CodecId id, ByteSpan input, Bytes &out)
{
    Scratch scratch;
    return registry(id).decompressInto(input, out, scratch);
}

std::unique_ptr<CompressSession>
makeCompressSession(CodecId id, const CodecParams &params)
{
    return registry(id).makeCompressSession(params);
}

std::unique_ptr<DecompressSession>
makeDecompressSession(CodecId id)
{
    return registry(id).makeDecompressSession();
}

} // namespace cdpu::codec
