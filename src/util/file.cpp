#include "util/file.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace stellar::util {

std::string readFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error("cannot read file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("error while reading file: " + path);
  }
  return buffer.str();
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out << contents;
  out.close();  // writes the buffered tail, so a full disk can fail here too
  if (!out) {
    throw std::runtime_error("error while writing file: " + path);
  }
}

void appendJsonLine(const std::string& path, const Json& json) {
  ensureParentDir(path);
  std::FILE* f = std::fopen(path.c_str(), "a+b");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for append: " + path);
  }
  std::string text;
  // A kill mid-write can leave a torn last line; glued onto it, this line
  // would be lost with the fragment.
  if (std::fseek(f, -1, SEEK_END) == 0 && std::fgetc(f) != '\n') {
    text += '\n';
  }
  text += json.dump();
  text += '\n';
  const bool buffered = std::fseek(f, 0, SEEK_END) == 0 &&
                        std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose writes what stdio still holds, for a short line all of it.
  if (std::fclose(f) != 0 || !buffered) {
    throw std::runtime_error("short write appending to " + path);
  }
}

std::size_t forEachJsonLine(const std::string& path, std::string_view component,
                            const std::function<void(const Json&)>& fn) {
  if (!fileExists(path)) {
    return 0;
  }
  std::size_t skipped = 0;
  std::size_t lineNo = 0;
  for (const std::string& line : split(readFile(path), '\n')) {
    ++lineNo;
    if (trim(line).empty()) {
      continue;
    }
    try {
      fn(Json::parse(line));
    } catch (const JsonError& e) {
      // A torn tail after a kill, or plain corruption: skip the line and
      // keep the file usable, saying exactly where the damage is.
      ++skipped;
      logLine(LogLevel::Warn, component,
              path + ":" + std::to_string(lineNo) + ": skipping corrupt line (" +
                  e.what() + ")");
    }
  }
  return skipped;
}

void replaceFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  ensureParentDir(path);
  writeFile(tmp, contents);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
}

bool fileExists(const std::string& path) {
  return std::ifstream{path}.good();
}

std::vector<std::string> listDir(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  std::filesystem::directory_iterator it{dir, ec};
  if (ec) {
    return out;  // missing/unreadable directory: nothing to list
  }
  for (const std::filesystem::directory_entry& entry : it) {
    if (entry.is_regular_file(ec) && !ec) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ensureParentDir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path{path}.parent_path();
  if (parent.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory " + parent.string() +
                             ": " + ec.message());
  }
}

}  // namespace stellar::util
