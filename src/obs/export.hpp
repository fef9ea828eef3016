#pragma once
/// \file export.hpp
/// OpenMetrics text exposition for the metrics registry.
///
/// Emitting the standard OpenMetrics text format (`vpga_flow_cli
/// --metrics-openmetrics`) means any Prometheus-compatible scraper ingests a
/// flow run's counters, gauges and histograms for free. Name mapping: dotted
/// obs names become underscored families under a `vpga_` prefix
/// (`route.ripups` -> `vpga_route_ripups`), counters gain the mandatory
/// `_total` sample suffix, histograms emit cumulative `le` buckets plus
/// `_sum`/`_count`, and the document ends with the `# EOF` terminator the
/// spec requires.

#include <string>

#include "obs/obs.hpp"

namespace vpga::obs {

/// One report's metrics as an OpenMetrics text document.
std::string openmetrics_text(const ObsReport& report);

}  // namespace vpga::obs
