// Fixture: the crash-safe file layer is where RES-RAW-APPEND allows
// appends (never compiled; consumed by test_lint).
namespace fixture {

void appendJsonLine(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a+b");  // legal here
}

}  // namespace fixture
