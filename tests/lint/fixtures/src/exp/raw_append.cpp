// Fixture: RES-RAW-APPEND (never compiled; consumed by test_lint).
namespace fixture {

void bad(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");  // finding: raw append
  std::ofstream out{path, std::ios::app};  // finding
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);  // finding
  std::FILE* g = fopen(path.c_str(), "a+b");  // finding
  std::fstream io{path, std::ios_base::in | std::ios_base::app};  // finding
}

void ok(const std::string& path, const util::Json& line) {
  std::FILE* f = std::fopen(path.c_str(), "rb");  // reading is not appending
  std::ofstream out{path, std::ios::trunc};
  std::FILE* g = std::fopen(pick("ab", "wb"), "w");  // the mode is "w"
  util::appendJsonLine(path, line);  // the one append route
  const std::string app = "a";
}

}  // namespace fixture
