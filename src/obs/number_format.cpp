#include "src/obs/number_format.hpp"

#include <charconv>

namespace burst {

void append_double(std::string& out, double v) {
  char buf[32];  // "-1.2345678901234567e-308" is 24 characters
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

}  // namespace burst
