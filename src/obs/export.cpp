#include "obs/export.hpp"

#include <cmath>
#include <string_view>

#include "obs/json.hpp"

namespace vpga::obs {
namespace {

/// `route.ripups` -> `vpga_route_ripups`. OpenMetrics names admit
/// [a-zA-Z0-9_:]; everything else becomes '_'.
std::string om_name(std::string_view name) {
  std::string out = "vpga_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string om_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json::format_double(v);
}

}  // namespace

std::string openmetrics_text(const ObsReport& report) {
  std::string out;
  std::string n;
  for (const auto& [name, value] : report.counters) {
    n = om_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : report.gauges) {
    n = om_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + om_value(value) + "\n";
  }
  for (const auto& [name, h] : report.histograms) {
    n = om_name(name);
    out += "# TYPE " + n + " histogram\n";
    long long cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      out += n + "_bucket{le=\"" +
             om_value(histogram_bucket_bound(static_cast<int>(i))) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    // The spec requires a closing +Inf bucket equal to _count.
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + om_value(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

}  // namespace vpga::obs
