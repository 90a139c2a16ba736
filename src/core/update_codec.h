#pragma once

/// \file update_codec.h
/// The wire encoding of update tuples in WAL record payloads
/// (io/update_log, the codec's only decoder); the layout is specified in
/// docs/FORMAT.md (§Update tuples).
///
/// Per tuple: f64 x, f64 y, u32 value_count, then value_count f64 values —
/// little-endian, back to back, no padding. The tuple count itself is NOT
/// part of the encoding; the WAL record header stores it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/geoblock.h"

namespace geoblocks::core::serialize {

/// Appends the wire encoding of `tuples` to `*out`.
///
/// @param out    Destination buffer (appended to, not cleared).
/// @param tuples The tuples to encode.
void EncodeUpdateTuples(std::string* out,
                        std::span<const GeoBlock::UpdateTuple> tuples);

/// Decodes exactly `count` tuples from `data` starting at `*pos`, advancing
/// `*pos` past the bytes consumed.
///
/// @param data  The buffer holding encoded tuples (plus, possibly, more).
/// @param pos   In: decode start offset. Out: first byte after the tuples.
/// @param count Number of tuples to decode.
/// @return The decoded tuples, in encoding order.
/// @throws std::runtime_error when the buffer ends before `count` tuples do
///     (truncation / corruption).
std::vector<GeoBlock::UpdateTuple> DecodeUpdateTuples(std::string_view data,
                                                      size_t* pos,
                                                      uint64_t count);

}  // namespace geoblocks::core::serialize
