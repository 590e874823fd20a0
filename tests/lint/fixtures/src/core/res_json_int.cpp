// Fixture: RES-JSON-INT (never compiled; consumed by test_lint).
namespace fixture {

void bad(const util::Json& json, const util::Json* doc, Options opts) {
  opts.ranks = static_cast<std::uint32_t>(json.getNumber("ranks", opts.ranks));  // finding
  const auto index = static_cast<std::size_t>(doc->asNumber());                // finding
  const long long big = static_cast<long long>(
      std::trunc(json.asNumber()));  // finding: truncating first does not bound it
}

void ok(const util::Json& json, const df::Value& cell, Options opts) {
  const auto count = static_cast<std::int64_t>(*df::asNumber(cell));  // not the member
  const double whole = std::trunc(json.asNumber());                   // stays a double
  const auto ratio = static_cast<float>(json.getNumber("ratio"));     // not an integer
  opts.ranks = json.getInteger<std::uint32_t>("ranks", opts.ranks);   // checked
  const auto seed = json.asInteger<std::uint64_t>();                  // checked
}

}  // namespace fixture
