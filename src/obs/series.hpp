#pragma once

/// \file series.hpp
/// Figure-series presentation: the aligned text table a campaign prints
/// (the textual equivalent of a paper figure) and the machine-readable JSON
/// form embedded in run manifests. Lives in obs because stdout output is an
/// observability concern — the alert-lint raw-stdout rule confines direct
/// printing to util/logging and the obs sinks/exporters.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace alert::obs {

/// Print a set of series as an aligned table, one row per x value, one
/// column per series, in the style `y (+/- ci)`.
void print_series_table(const std::string& title, const std::string& x_label,
                        const std::string& y_label,
                        const std::vector<util::Series>& series);

/// Emit the same series as a JSON array:
/// [{"name": ..., "points": [{"x":, "y":, "ci":}, ...]}, ...]
void write_series_json(JsonWriter& w, const std::vector<util::Series>& series);

/// The figure banner a campaign prints before a run: "# title" plus an
/// optional subtitle line ("# subtitle").
void print_figure_banner(const std::string& title, const std::string& subtitle);

/// One free-form stdout line (figure commentary, campaign progress
/// summaries). Lives here because stdout is confined to util/logging and
/// the obs exporters (the alert-lint raw-stdout rule).
void print_text_line(const std::string& line);

}  // namespace alert::obs
