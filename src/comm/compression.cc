#include "comm/compression.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::comm {

const std::vector<CompressorInfo> &
compressorRegistry()
{
    static const std::vector<CompressorInfo> registry = {
        {Compressor::None, "none",
         "raw fp32 gradients: bit-exact replay of the uncompressed "
         "wire",
         false},
        {Compressor::RandomK, "randomk",
         "random sparsification: keep a ratio of elements as "
         "(index, value) pairs",
         true},
        {Compressor::Dgc, "dgc",
         "deep gradient compression: top-k by magnitude as "
         "(index, value) pairs",
         true},
        {Compressor::EfSignSgd, "efsignsgd",
         "error-feedback SignSGD: 1 bit per element plus a per-chunk "
         "scale",
         false},
        {Compressor::OneBit, "onebit",
         "1-bit SGD: 1 bit per element plus two cluster centroids",
         false},
    };
    return registry;
}

std::vector<std::string>
compressorNames()
{
    std::vector<std::string> names;
    names.reserve(compressorRegistry().size());
    for (const CompressorInfo &info : compressorRegistry())
        names.push_back(info.name);
    return names;
}

const char *
compressorName(Compressor comp)
{
    for (const CompressorInfo &info : compressorRegistry()) {
        if (info.comp == comp)
            return info.name;
    }
    return "none";
}

Compressor
parseCompressor(const std::string &name)
{
    for (const CompressorInfo &info : compressorRegistry()) {
        if (name == info.name)
            return info.comp;
    }
    sim::fatal("unknown compressor '", name, "'",
               sim::didYouMean(name, compressorNames()),
               " (run `dgxprof list compressors`)");
}

namespace {

/** fp32 elements of a payload (a trailing partial word counts). */
std::uint64_t
elementsOf(sim::Bytes payload)
{
    return (static_cast<std::uint64_t>(payload) + 3) / 4;
}

/** Bitmap bytes of the 1-bit quantizers. */
sim::Bytes
signBytes(sim::Bytes payload)
{
    return (elementsOf(payload) + 7) / 8;
}

} // namespace

sim::Bytes
compressedWireBytes(Compressor comp, sim::Bytes payload, double ratio)
{
    if (payload == 0)
        return 0;
    const std::uint64_t elems = elementsOf(payload);
    sim::Bytes wire = payload;
    switch (comp) {
      case Compressor::None:
        return payload;
      case Compressor::RandomK:
      case Compressor::Dgc: {
        // (uint32 index, fp32 value) per kept element; at least one
        // element always survives so the chunk stays non-empty.
        const std::uint64_t kept = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(static_cast<double>(elems) * ratio)));
        wire = kept * 8;
        break;
      }
      case Compressor::EfSignSgd:
        // 1 bit per element + one fp32 scale.
        wire = signBytes(payload) + 4;
        break;
      case Compressor::OneBit:
        // 1 bit per element + two fp32 cluster centroids.
        wire = signBytes(payload) + 8;
        break;
    }
    // Compression never inflates the wire: tiny chunks where the
    // header would dominate ship raw instead.
    return std::min(wire, payload);
}

namespace {

/** Encode FLOPs per input element, by compressor. */
double
encodeFlopsPerElement(Compressor comp)
{
    switch (comp) {
      case Compressor::None:
        return 0.0;
      case Compressor::RandomK:
        return 2.0; // draw + pack
      case Compressor::Dgc:
        return 8.0; // hierarchical threshold selection + pack
      case Compressor::EfSignSgd:
        return 3.0; // error feedback + sign + scale reduction
      case Compressor::OneBit:
        return 4.0; // error feedback + sign + two centroid means
    }
    return 0.0;
}

} // namespace

CompressionKernelCost
compressKernelCost(Compressor comp, sim::Bytes payload, sim::Bytes wire)
{
    if (comp == Compressor::None || payload == 0)
        return {};
    CompressionKernelCost cost;
    cost.flops = encodeFlopsPerElement(comp) *
                 static_cast<double>(elementsOf(payload));
    // Read the dense gradient, write the compressed buffer.
    cost.bytes = static_cast<double>(payload) +
                 static_cast<double>(wire);
    return cost;
}

CompressionKernelCost
decompressKernelCost(Compressor comp, sim::Bytes payload,
                     sim::Bytes wire)
{
    if (comp == Compressor::None || payload == 0)
        return {};
    CompressionKernelCost cost;
    // Scatter/unpack: ~2 ops per dense output element regardless of
    // the encode scheme.
    cost.flops = 2.0 * static_cast<double>(elementsOf(payload));
    // Read the compressed buffer, write the dense gradient.
    cost.bytes = static_cast<double>(wire) +
                 static_cast<double>(payload);
    return cost;
}

std::string
compressKernelName(Compressor comp)
{
    return std::string("gradCompress_") + compressorName(comp);
}

std::string
decompressKernelName(Compressor comp)
{
    return std::string("gradDecompress_") + compressorName(comp);
}

} // namespace dgxsim::comm
