#include "util/file.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

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
  if (!out) {
    throw std::runtime_error("error while writing file: " + path);
  }
}

void appendToFile(const std::string& path, const std::string& text) {
  ensureParentDir(path);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for append: " + path);
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) {
    throw std::runtime_error("short write appending to " + path);
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
