#include "obs/export.hpp"

#include "util/file.hpp"

namespace stellar::obs {
namespace {

util::Json argsObject(const std::vector<TraceArg>& args) {
  util::Json obj = util::Json::makeObject();
  for (const TraceArg& arg : args) {
    obj.set(arg.key, arg.value);
  }
  return obj;
}

}  // namespace

util::Json toChromeTrace(const std::vector<TraceRecord>& records) {
  util::Json events = util::Json::makeArray();
  for (const TraceRecord& record : records) {
    util::Json event = util::Json::makeObject();
    event.set("name", record.name);
    event.set("cat", record.category);
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(record.tid));
    event.set("ts", record.startUs);
    if (record.phase == TraceRecord::Phase::Span) {
      event.set("ph", "X");
      event.set("dur", record.durUs);
    } else {
      event.set("ph", "i");
      event.set("s", "t");  // thread-scoped instant
    }
    if (!record.args.empty()) {
      event.set("args", argsObject(record.args));
    }
    events.push(std::move(event));
  }
  util::Json root = util::Json::makeObject();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

void writeChromeTrace(const Tracer& tracer, const std::string& path) {
  util::writeFile(path, toChromeTrace(tracer.snapshot()).dump(1));
}

}  // namespace stellar::obs
