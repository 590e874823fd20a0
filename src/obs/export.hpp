// Trace exporter: Chrome trace ("chrome://tracing" / Perfetto JSON). Spans
// become complete ("X") events, instants become "i" events; open the file
// directly in the trace viewer.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace stellar::obs {

/// {"traceEvents":[...], "displayTimeUnit":"ms"} document.
[[nodiscard]] util::Json toChromeTrace(const std::vector<TraceRecord>& records);

/// Writes toChromeTrace(tracer.snapshot()) to `path` (util::file; throws
/// std::runtime_error on I/O).
void writeChromeTrace(const Tracer& tracer, const std::string& path);

}  // namespace stellar::obs
