// Minimal file I/O helpers (rule-set persistence, trace archiving, and the
// append-only JSONL journals).
#pragma once

#include <string>
#include <vector>

namespace stellar::util {

/// Reads an entire file; throws std::runtime_error if unreadable.
[[nodiscard]] std::string readFile(const std::string& path);

/// Writes (truncating) an entire file; throws std::runtime_error on error.
void writeFile(const std::string& path, const std::string& contents);

/// Appends `text` to `path` in one fwrite, creating the parent directory
/// and the file as needed — the durability unit of every JSONL journal (a
/// crash tears at most the tail line). Throws std::runtime_error naming the
/// path when the file cannot be opened or the write comes up short.
void appendToFile(const std::string& path, const std::string& text);

[[nodiscard]] bool fileExists(const std::string& path);

/// Creates the parent directory of `path` (and any missing ancestors).
/// No-op when the parent already exists or the path has no directory part.
void ensureParentDir(const std::string& path);

/// Full paths of the regular files directly inside `dir`, sorted by name
/// for deterministic iteration. A missing directory yields an empty list
/// (callers treat "no shards yet" and "no directory yet" the same).
[[nodiscard]] std::vector<std::string> listDir(const std::string& dir);

}  // namespace stellar::util
