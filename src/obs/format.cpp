#include "src/obs/format.hpp"

#include <cmath>
#include <cstdio>

namespace faucets::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void split_labels(const std::string& name, std::string& base, std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels.clear();
  } else {
    base = name.substr(0, brace);
    labels = name.substr(brace + 1, name.size() - brace - 2);  // strip { }
  }
}

}  // namespace faucets::obs
