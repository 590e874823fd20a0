#include "testkit/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/session_journal.hpp"
#include "exp/experience_store.hpp"
#include "faults/fault_plan.hpp"
#include "rules/rules.hpp"
#include "service/campaign.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace stellar::testkit {

namespace {

constexpr std::size_t kMaxInputBytes = 4 * 1024 * 1024;

thread_local std::size_t g_lastCorpusFiles = 0;

/// Writes `content` to a unique temp file and returns its path; the
/// journal targets load through the filesystem because that is the real
/// entry point of both journals (partial trailing lines, etc.).
class TempFile {
 public:
  explicit TempFile(std::string_view content, std::uint64_t tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("stellar_testkit_fuzz_" + std::to_string(tag) + ".jsonl"))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace

const char* fuzzTargetName(FuzzTarget target) noexcept {
  switch (target) {
    case FuzzTarget::Json: return "json";
    case FuzzTarget::FaultSpec: return "faultspec";
    case FuzzTarget::Rules: return "rules";
    case FuzzTarget::Campaign: return "campaign";
    case FuzzTarget::Journal: return "journal";
    case FuzzTarget::SessionJournal: return "session-journal";
  }
  return "?";
}

bool fuzzTargetByName(std::string_view name, FuzzTarget& out) noexcept {
  for (const FuzzTarget t : {FuzzTarget::Json, FuzzTarget::FaultSpec,
                             FuzzTarget::Rules, FuzzTarget::Campaign,
                             FuzzTarget::Journal, FuzzTarget::SessionJournal}) {
    if (name == fuzzTargetName(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

bool fuzzOne(FuzzTarget target, std::string_view input,
             std::vector<FuzzFinding>* findings) {
  const std::string_view bytes = input.substr(0, kMaxInputBytes);
  const auto record = [&](std::string problem) {
    if (findings != nullptr) {
      findings->push_back(FuzzFinding{
          target, std::string(bytes.substr(0, 512)), std::move(problem)});
    }
    return false;
  };

  try {
    switch (target) {
      case FuzzTarget::Json:
        (void)util::Json::parse(bytes);
        return true;
      case FuzzTarget::FaultSpec:
        (void)faults::parseFaultSpec(bytes);
        return true;
      case FuzzTarget::Rules: {
        const util::Json doc = util::Json::parse(bytes);
        (void)rules::RuleSet::fromJson(doc);
        return true;
      }
      case FuzzTarget::Campaign: {
        const util::Json doc = util::Json::parse(bytes);
        (void)service::CampaignSpec::fromJson(doc);
        (void)service::SubmitOptions::fromJson(doc);
        return true;
      }
      case FuzzTarget::Journal: {
        // A journal is loaded line-by-line with corrupt lines skipped, so
        // loading must succeed for arbitrary bytes — the store's whole
        // point is surviving torn writes.
        const TempFile file{bytes, util::hash64(bytes)};
        const exp::ExperienceStore store{file.path()};
        (void)store.corruptLinesSkipped();
        return true;
      }
      case FuzzTarget::SessionJournal: {
        // Same contract: a session journal loads whatever a kill left, and
        // only a final line with a result document makes it complete.
        const TempFile file{bytes, util::hash64(bytes)};
        const core::SessionJournal journal{file.path()};
        if (journal.complete() && !journal.result()->isObject()) {
          return record("complete journal without a result document");
        }
        return true;
      }
    }
  } catch (const util::JsonError&) {
    return true;  // documented parse failure
  } catch (const faults::FaultSpecError&) {
    return true;  // documented spec failure
  } catch (const std::invalid_argument&) {
    return true;  // documented semantic validation failure
  } catch (const std::runtime_error&) {
    // Parsers report semantic violations as runtime_error subtypes; the
    // file-shaped targets also use it for I/O failures.
    return true;
  } catch (const std::exception& e) {
    return record(std::string("undocumented exception escaped: ") + e.what());
  } catch (...) {
    return record("non-std exception escaped");
  }
  return record("unreachable target");
}

std::vector<FuzzFinding> fuzzCorpus(const std::string& corpusDir, std::uint64_t seed,
                                    int mutationsPerEntry) {
  std::vector<FuzzFinding> findings;
  g_lastCorpusFiles = 0;

  // The journal targets deliberately load corrupt files; their per-line
  // "skipping corrupt line" warnings are expected behavior, not signal.
  const util::LogLevel savedLevel = util::logLevel();
  util::setLogLevel(util::LogLevel::Error);
  struct LogRestore {
    util::LogLevel level;
    ~LogRestore() { util::setLogLevel(level); }
  } restore{savedLevel};

  std::error_code ec;
  std::filesystem::directory_iterator top{corpusDir, ec};
  if (ec) {
    return findings;  // caller checks lastCorpusFileCount() == 0
  }

  for (const auto& sub : std::filesystem::directory_iterator{corpusDir}) {
    if (!sub.is_directory()) {
      continue;
    }
    FuzzTarget target;
    if (!fuzzTargetByName(sub.path().filename().string(), target)) {
      continue;
    }
    // Deterministic order: directory iteration order is fs-dependent.
    std::vector<std::filesystem::path> entries;
    for (const auto& entry : std::filesystem::directory_iterator{sub.path()}) {
      if (entry.is_regular_file()) {
        entries.push_back(entry.path());
      }
    }
    std::sort(entries.begin(), entries.end());

    for (const auto& path : entries) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string original = buf.str();
      ++g_lastCorpusFiles;

      (void)fuzzOne(target, original, &findings);

      // Seeded mutations: flips, truncations, duplications, splices.
      util::Rng rng{util::mix64(seed, util::hash64(path.filename().string()))};
      for (int m = 0; m < mutationsPerEntry; ++m) {
        std::string mutated = original;
        const int kind = static_cast<int>(rng.uniformInt(0, 3));
        if (mutated.empty() || kind == 0) {
          // Append random bytes (also the only mutation for empty seeds).
          const int extra = static_cast<int>(rng.uniformInt(1, 16));
          for (int i = 0; i < extra; ++i) {
            mutated.push_back(static_cast<char>(rng.uniformInt(0, 255)));
          }
        } else if (kind == 1) {
          // Flip a byte.
          const auto pos = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
          mutated[pos] = static_cast<char>(rng.uniformInt(0, 255));
        } else if (kind == 2) {
          // Truncate (torn write).
          const auto cut = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
          mutated.resize(cut);
        } else {
          // Duplicate a slice somewhere else (repeated keys, nested junk).
          const auto a = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
          const auto b = static_cast<std::size_t>(
              rng.uniformInt(static_cast<std::int64_t>(a),
                             static_cast<std::int64_t>(mutated.size()) - 1));
          mutated.insert(mutated.size() / 2, mutated.substr(a, b - a + 1));
        }
        (void)fuzzOne(target, mutated, &findings);
      }
    }
  }
  return findings;
}

std::size_t lastCorpusFileCount() noexcept { return g_lastCorpusFiles; }

}  // namespace stellar::testkit
