#include "core/session_journal.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/file.hpp"

namespace stellar::core {

namespace {
constexpr const char* kComponent = "session-journal";

// JSON numbers round-trip through %.12g, which is lossy for doubles — and a
// replayed measurement that differs in its last bits could flip a
// comparison downstream, breaking the bit-identical-resume guarantee. The
// journal therefore carries the exact IEEE-754 bit pattern next to the
// human-readable value and prefers it on load. Run seeds are 64-bit and
// would not survive a double either, so they are stored the same way.
std::string hexBits(std::uint64_t bits) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

std::uint64_t bitsFromHex(const util::Json& hex) {
  return std::strtoull(hex.asString().c_str(), nullptr, 16);
}

}  // namespace

SessionJournal::SessionJournal(std::string path) : path_(std::move(path)) {
  load();
}

void SessionJournal::load() {
  const auto readLine = [this](const util::Json& doc) {
    const std::string type = doc.getString("type");
    if (type == "header") {
      header_ = doc;
    } else if (type == "measurement") {
      JournaledMeasurement m;
      m.wallSeconds = doc.contains("wall_bits")
                          ? std::bit_cast<double>(bitsFromHex(doc.at("wall_bits")))
                          : doc.getNumber("wall_seconds");
      m.outcome = doc.getString("outcome");
      m.failureReason = doc.getString("failure_reason");
      m.config = pfs::PfsConfig::fromJson(doc.at("config"));
      m.seed = bitsFromHex(doc.at("seed"));
      // Last write wins: an index re-measured because its config or seed
      // no longer matched supersedes the line before it.
      measurements_[doc.at("index").asInteger<std::size_t>()] = std::move(m);
    } else if (type == "final") {
      if (!doc.at("result").isObject()) {
        throw util::JsonError("final line without a result document");
      }
      result_ = doc.at("result");
    } else {
      throw util::JsonError("unknown line type '" + type + "'");
    }
  };
  // A torn tail line after a SIGKILL, or plain corruption, is skipped: the
  // resumed run re-measures that index.
  corruptSkipped_ = util::forEachJsonLine(path_, kComponent, readLine);
}

void SessionJournal::bind(const util::Json& header) {
  if (header_) {
    if (header_->dump() != header.dump()) {
      throw std::runtime_error(
          "session journal " + path_ +
          " belongs to a different session:\n  journaled: " + header_->dump() +
          "\n  requested: " + header.dump());
    }
    return;  // resuming the same session
  }
  header_ = header;
  util::appendJsonLine(path_, header);
}

std::optional<JournaledMeasurement> SessionJournal::replay(std::size_t index) const {
  const auto it = measurements_.find(index);
  if (it == measurements_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void SessionJournal::recordMeasurement(std::size_t index,
                                       const JournaledMeasurement& measurement) {
  util::Json line = util::Json::makeObject();
  line.set("type", "measurement");
  line.set("index", static_cast<std::int64_t>(index));
  line.set("config", measurement.config.toJson());
  line.set("seed", hexBits(measurement.seed));
  line.set("wall_seconds", measurement.wallSeconds);
  line.set("wall_bits", hexBits(std::bit_cast<std::uint64_t>(measurement.wallSeconds)));
  line.set("outcome", measurement.outcome);
  if (!measurement.failureReason.empty()) {
    line.set("failure_reason", measurement.failureReason);
  }
  util::appendJsonLine(path_, line);
  measurements_[index] = measurement;
}

void SessionJournal::markComplete(const util::Json& result) {
  if (result_) {
    return;
  }
  util::Json line = util::Json::makeObject();
  line.set("type", "final");
  line.set("result", result);
  util::appendJsonLine(path_, line);
  result_ = result;
}

}  // namespace stellar::core
