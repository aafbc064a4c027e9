// Core scalar types shared across the WCSD library.
//
// The paper (Def. 1-3) works on an undirected, unweighted graph whose edges
// carry a real-valued quality. We fix the representation here so every
// subsystem (graph storage, search, labeling, index) agrees on widths and on
// the sentinels used for "unreachable" and "unconstrained".

#ifndef WCSD_UTIL_TYPES_H_
#define WCSD_UTIL_TYPES_H_

#include <cstdint>
#include <limits>

namespace wcsd {

/// Vertex identifier. Graphs are limited to 2^32 - 2 vertices, which is far
/// beyond anything this repository generates; 32 bits keeps label entries
/// compact (12 bytes each).
using Vertex = uint32_t;

/// Path length (hop count). Unweighted paths fit easily in 32 bits.
using Distance = uint32_t;

/// Edge quality (the paper's w / delta(e)). Real-valued per the problem
/// definition; float keeps the 12-byte label entry.
using Quality = float;

/// Sentinel: no vertex.
inline constexpr Vertex kNullVertex = std::numeric_limits<Vertex>::max();

/// Sentinel: unreachable / "INF" distance in the paper's figures.
inline constexpr Distance kInfDistance = std::numeric_limits<Distance>::max();

/// Quality of the trivial self path (the paper writes (v, 0, inf)).
inline constexpr Quality kInfQuality = std::numeric_limits<Quality>::infinity();

/// Rank of a vertex in a vertex order: 0 is the highest-priority vertex
/// (processed first, used as hub most aggressively).
using Rank = uint32_t;

}  // namespace wcsd

#endif  // WCSD_UTIL_TYPES_H_
