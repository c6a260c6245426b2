/**
 * @file
 * Regenerates the committed golden vectors under tests/vectors/.
 *
 * Usage: make_golden_vectors <output-dir>
 *
 * Emits, for each corpus payload, the raw bytes plus one compressed
 * frame per codec. golden_vectors_test asserts decode(frame) == raw,
 * which pins every decoder's ability to consume historically produced
 * frames, and that re-encoding raw with these parameters reproduces
 * each frame byte for byte, which pins the encoders. Rerun this tool
 * and re-commit only when a change means to alter codec bytes.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "codec/registry.h"
#include "container/container.h"
#include "corpus/generators.h"

namespace cdpu
{
namespace
{

bool
writeFile(const std::string &path, const Bytes &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), data.size());
    return true;
}

int
run(const std::string &dir)
{
    struct Payload
    {
        const char *name;
        corpus::DataClass cls;
        std::size_t bytes;
    };
    // Three compressibility regimes (README: the only corpus property
    // the pipeline depends on); sizes stay small enough to commit.
    const Payload payloads[] = {
        {"text", corpus::DataClass::textLike, 4096},
        {"repetitive", corpus::DataClass::repetitive, 2048},
        {"random", corpus::DataClass::randomBytes, 1024},
    };

    Rng rng(2023);
    for (const Payload &payload : payloads) {
        Bytes raw = corpus::generate(payload.cls, payload.bytes, rng);
        std::string base = dir + "/" + payload.name;
        if (!writeFile(base + ".raw", raw))
            return 1;

        // One frame per registered codec at its default parameters —
        // the registry defaults are pinned to the historical encoder
        // configs, so regenerating must not change committed frames.
        for (codec::CodecId id : codec::allCodecs()) {
            const codec::CodecVTable &vtable = codec::registry(id);
            const codec::CodecParams params = vtable.caps.clamp(
                vtable.caps.defaultLevel,
                vtable.caps.defaultWindowLog);
            Bytes frame;
            Status status = codec::compressInto(id, raw, params, frame);
            if (!status.ok()) {
                std::fprintf(stderr, "%s: %s\n",
                             vtable.caps.name.c_str(),
                             status.message().c_str());
                return 1;
            }
            if (!writeFile(base + "." + vtable.caps.name, frame))
                return 1;

            // Block-parallel container frame around the same codec;
            // 512-byte blocks make every payload multi-block, so the
            // committed vectors pin the index grammar, not just a
            // degenerate one-entry frame (DESIGN.md §14).
            container::WriteOptions copts;
            copts.blockBytes = 512;
            Bytes container_frame;
            status =
                container::write(id, raw, copts, container_frame);
            if (!status.ok()) {
                std::fprintf(stderr, "container %s: %s\n",
                             vtable.caps.name.c_str(),
                             status.message().c_str());
                return 1;
            }
            if (!writeFile(base + ".container-" + vtable.caps.name,
                           container_frame))
                return 1;
        }
    }
    return 0;
}

} // namespace
} // namespace cdpu

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
        return 2;
    }
    return cdpu::run(argv[1]);
}
