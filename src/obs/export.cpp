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

util::Json recordJson(const TraceRecord& record) {
  util::Json obj = util::Json::makeObject();
  obj.set("type", record.phase == TraceRecord::Phase::Span ? "span" : "instant");
  obj.set("cat", record.category);
  obj.set("name", record.name);
  obj.set("ts", record.startUs);
  obj.set("dur", record.durUs);
  obj.set("tid", static_cast<std::int64_t>(record.tid));
  obj.set("depth", static_cast<std::int64_t>(record.depth));
  if (!record.args.empty()) {
    obj.set("args", argsObject(record.args));
  }
  return obj;
}

}  // namespace

std::string toJsonl(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& record : records) {
    out += recordJson(record).dump();
    out += '\n';
  }
  return out;
}

std::vector<TraceRecord> fromJsonl(const std::string& text) {
  std::vector<TraceRecord> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string_view line{text.data() + pos, eol - pos};
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    util::Json obj;
    try {
      obj = util::Json::parse(line);
    } catch (const util::JsonError& e) {
      throw util::JsonError("jsonl record " + std::to_string(records.size() + 1) +
                            ": " + e.what());
    }
    TraceRecord record;
    record.phase = obj.getString("type") == "instant" ? TraceRecord::Phase::Instant
                                                      : TraceRecord::Phase::Span;
    record.category = obj.getString("cat");
    record.name = obj.getString("name");
    record.startUs = obj.getNumber("ts");
    record.durUs = obj.getNumber("dur");
    record.tid = obj.getInteger<std::uint32_t>("tid", 0);
    record.depth = obj.getInteger<std::uint32_t>("depth", 0);
    if (obj.contains("args")) {
      for (const auto& [key, value] : obj.at("args").asObject()) {
        record.args.push_back(TraceArg{key, value});
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

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

void writeJsonl(const Tracer& tracer, const std::string& path) {
  util::writeFile(path, toJsonl(tracer.snapshot()));
}

void writeChromeTrace(const Tracer& tracer, const std::string& path) {
  util::writeFile(path, toChromeTrace(tracer.snapshot()).dump(1));
}

void writeCountersJson(const CounterRegistry& registry, const std::string& path) {
  util::writeFile(path, registry.toJson().dump(2));
}

}  // namespace stellar::obs
