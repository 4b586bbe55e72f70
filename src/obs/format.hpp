// Text formatting shared by every artifact writer: the trace, Prometheus and
// Chrome exporters, the profiler, the report CSVs, the live plane and the
// sweep results. One definition each keeps their bytes in agreement.
#pragma once

#include <string>
#include <string_view>

namespace faucets::obs {

/// JSON string escaping: quotes, backslashes and control characters.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Shortest round-trippable decimal (%.17g). JSON has no Inf/NaN, so those
/// map to 0.
[[nodiscard]] std::string json_number(double v);

/// Split a registry name like `foo_total{cluster="x"}` into its base name
/// and its label block without the braces.
void split_labels(const std::string& name, std::string& base, std::string& labels);

}  // namespace faucets::obs
