#ifndef QSE_OBS_EXPOSITION_H_
#define QSE_OBS_EXPOSITION_H_

#include <string>

#include "src/obs/metric_registry.h"

namespace qse {
namespace obs {

/// Escapes one label VALUE per the Prometheus text format 0.0.4:
/// backslash -> \\, double-quote -> \", newline -> \n.  Use when
/// building labeled metric names from runtime strings (such as build
/// metadata) so a hostile or accidental quote cannot break the
/// exposition.
std::string EscapeLabelValue(const std::string& value);

/// One `key="escaped value"` label pair ready to join into a metric
/// name's `{...}` body (EscapeLabelValue applied to `value`).
std::string PromLabel(const std::string& key, const std::string& value);

/// Prometheus text exposition (version 0.0.4) of every metric in the
/// registry, in lexicographic name order.  Counters get `# TYPE x
/// counter`, gauges (integer and float) `gauge`, histograms the
/// cumulative `_bucket{le=}` / `_sum` / `_count` triple.  Labels encoded
/// in metric names (`name{k="v"}`) are folded into the series labels;
/// the # TYPE line uses the base name and is emitted once per base name.
/// Label values must already be escaped at metric-name construction
/// (EscapeLabelValue/PromLabel) — the exporter cannot distinguish an
/// escape sequence from literal text after the fact.
std::string PrometheusText(const MetricRegistry& registry);

/// The same registry as one JSON object:
/// {"counters":{name:value,...},"gauges":{...},
///  "histograms":{name:{"count":n,"sum":s,"p50":...,"p99":...},...}}.
/// Machine-diffable dump for bench artifacts and the regression checker.
std::string MetricsJson(const MetricRegistry& registry);

}  // namespace obs
}  // namespace qse

#endif  // QSE_OBS_EXPOSITION_H_
