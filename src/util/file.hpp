// Minimal file I/O helpers, and the one crash-safe layer every durable file
// goes through: JSONL journals (session journals, tenant shards, the
// experience store) append with appendJsonLine and load with
// forEachJsonLine; whole-file generations (the compacted store, the rule
// set) are written with replaceFile.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace stellar::util {

/// Reads an entire file; throws std::runtime_error if unreadable.
[[nodiscard]] std::string readFile(const std::string& path);

/// Writes (truncating) an entire file; throws std::runtime_error on error.
void writeFile(const std::string& path, const std::string& contents);

/// Appends `json` as one line in one fwrite, creating the parent directory
/// and the file as needed: a kill tears at most this line. If the file
/// ends in a torn line (no trailing '\n'), the write starts a fresh line
/// first, so the fragment stays one corrupt line and this line stays whole.
/// Throws std::runtime_error naming the path when the file cannot be opened
/// or the write comes up short.
void appendJsonLine(const std::string& path, const Json& json);

/// Calls `fn` with every non-blank line of the JSONL file at `path`, parsed.
/// A line that does not parse, or that `fn` rejects by throwing JsonError,
/// is skipped and logged under `component` as
/// `path:N: skipping corrupt line (why)`. Returns the number of skipped
/// lines. A missing file has no lines.
std::size_t forEachJsonLine(const std::string& path, std::string_view component,
                            const std::function<void(const Json&)>& fn);

/// Replaces `path` with `contents` atomically: writes `<path>.tmp`
/// (creating the parent directory as needed), then renames it over
/// `path`. A kill or a failed write before the rename leaves the old file
/// whole; a stale `<path>.tmp` is overwritten by the next call and never
/// read. Throws std::runtime_error on error.
void replaceFile(const std::string& path, const std::string& contents);

[[nodiscard]] bool fileExists(const std::string& path);

/// Creates the parent directory of `path` (and any missing ancestors).
/// No-op when the parent already exists or the path has no directory part.
void ensureParentDir(const std::string& path);

/// Full paths of the regular files directly inside `dir`, sorted by name
/// for deterministic iteration. A missing directory yields an empty list
/// (callers treat "no shards yet" and "no directory yet" the same).
[[nodiscard]] std::vector<std::string> listDir(const std::string& dir);

}  // namespace stellar::util
