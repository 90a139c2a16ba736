// Parity and format pin for the CRC-32 kernel: every supported dispatch level
// (slicing-by-8 on scalar/SSE2, PCLMULQDQ folding on AVX2) must equal a
// bit-at-a-time reference written from the polynomial definition, at every
// length 0..4096 from 16 start offsets, across the fold boundaries, and when
// chained. Golden values pin the on-disk checksum to the original byte-wise
// implementation, so a kernel change can never silently change the format.

#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/scan_kernels.h"
#include "core/serialize.h"

namespace geoblocks::core::kernels {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected ISO-HDLC

// One bit per step, straight from the definition: init 0xFFFFFFFF, reflected
// input and output, final XOR 0xFFFFFFFF. Returns the CRC of every prefix:
// out[len] = CRC(p[0..len)).
std::vector<uint32_t> ReferencePrefixCrcs(const uint8_t* p, size_t n) {
  std::vector<uint32_t> out(n + 1);
  uint32_t reg = 0xFFFFFFFFu;
  out[0] = ~reg;
  for (size_t i = 0; i < n; ++i) {
    reg ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      reg = (reg & 1u) ? (reg >> 1) ^ kPolynomial : reg >> 1;
    }
    out[i + 1] = ~reg;
  }
  return out;
}

uint32_t ReferenceCrc(const uint8_t* p, size_t n) {
  return ReferencePrefixCrcs(p, n).back();
}

std::vector<DispatchLevel> AllSupportedLevels() {
  std::vector<DispatchLevel> levels;
  for (DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kSSE2, DispatchLevel::kAVX2}) {
    if (Supported(level)) levels.push_back(level);
  }
  return levels;
}

// Deterministic bytes with every bit pattern represented.
std::vector<uint8_t> GoldenBytes(size_t n) {
  std::vector<uint8_t> b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>((i * 2654435761u) >> 24);
  }
  return b;
}

TEST(Crc32Test, EveryLevelMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kOffsets = 16;
  const std::vector<uint8_t> buf = GoldenBytes(kMaxLen + kOffsets);
  for (const DispatchLevel level : AllSupportedLevels()) {
    const KernelTable& k = KernelsAt(level);
    for (size_t off = 0; off < kOffsets; ++off) {
      const std::vector<uint32_t> want =
          ReferencePrefixCrcs(buf.data() + off, kMaxLen);
      size_t mismatches = 0;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t got = k.crc32_update(0, buf.data() + off, len);
        if (got != want[len] && ++mismatches <= 3) {
          ADD_FAILURE() << ToString(level) << " offset " << off << " length "
                        << len << ": got " << std::hex << got << " want "
                        << want[len];
        }
      }
      EXPECT_EQ(mismatches, 0u) << ToString(level) << " offset " << off;
    }
  }
}

TEST(Crc32Test, ChainedUpdatesMatchAcrossFoldBoundaries) {
  // 64-byte blocks, the 16-byte single folds and the slicing tail meet at
  // these lengths; a split anywhere must chain to the one-shot value.
  const std::vector<uint8_t> buf = GoldenBytes(1025 + 7);
  for (const DispatchLevel level : AllSupportedLevels()) {
    const KernelTable& k = KernelsAt(level);
    for (const size_t len : {63u, 64u, 65u, 127u, 128u, 129u, 1023u, 1024u,
                             1025u}) {
      for (const size_t off : {0u, 1u, 7u}) {
        const uint8_t* p = buf.data() + off;
        const uint32_t want = ReferenceCrc(p, len);
        EXPECT_EQ(k.crc32_update(0, p, len), want)
            << ToString(level) << " length " << len << " offset " << off;
        for (const size_t split :
             {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
              size_t{63}, size_t{64}, len / 2, len - 1, len}) {
          if (split > len) continue;
          const uint32_t head = k.crc32_update(0, p, split);
          EXPECT_EQ(k.crc32_update(head, p + split, len - split), want)
              << ToString(level) << " length " << len << " offset " << off
              << " split " << split;
        }
      }
    }
  }
}

TEST(Crc32Test, GoldenValuesPinTheFormat) {
  // Computed with the original byte-at-a-time table implementation; the
  // stored checksums of every GBST/GBLK/GWAL file depend on them.
  const std::vector<uint8_t> b = GoldenBytes((size_t{1} << 20) + 13);
  for (const DispatchLevel level : AllSupportedLevels()) {
    const KernelTable& k = KernelsAt(level);
    EXPECT_EQ(k.crc32_update(0, b.data(), b.size()), 0x5360e84cu)
        << ToString(level);
    EXPECT_EQ(k.crc32_update(0, b.data() + 3, b.size() - 3), 0x115fd8fau)
        << ToString(level);
    EXPECT_EQ(k.crc32_update(0, b.data(), 63), 0x6b53518cu) << ToString(level);
  }
  const std::string_view all(reinterpret_cast<const char*>(b.data()), b.size());
  EXPECT_EQ(serialize::Crc32(all), 0x5360e84cu);
  EXPECT_EQ(serialize::Crc32(all.substr(3)), 0x115fd8fau);
  EXPECT_EQ(serialize::Crc32(all.substr(0, 63)), 0x6b53518cu);
}

}  // namespace
}  // namespace geoblocks::core::kernels
