// Number formatting shared by the obs exports (packet trace JSONL and
// Perfetto, runtime timeline, flight recorder), so every file they write
// spells a number the same way.
#pragma once

#include <cstdint>
#include <string>

namespace burst {

/// Appends @p v exactly as printf("%.17g") would: the standard defines
/// std::to_chars with general format and precision 17 as equivalent, minus
/// printf's format parsing. max_digits10 digits round-trip any finite
/// double and, unlike shortest-round-trip printing, are deterministic
/// across platforms — the JSONL export is golden-tested byte for byte
/// (tests/number_format_test.cpp pins the equivalence).
void append_double(std::string& out, double v);

/// Appends @p v in decimal, as printf("%" PRId64) would.
void append_i64(std::string& out, std::int64_t v);

/// Appends @p v in decimal, as printf("%" PRIu64) would.
void append_u64(std::string& out, std::uint64_t v);

}  // namespace burst
