#include "pfs/params.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "util/strings.hpp"

namespace stellar::pfs {

namespace {

struct FieldDescriptor {
  const char* name;
  std::int64_t PfsConfig::*field;
};

/// Every tunable, in dependency order: a parameter whose bounds depend on
/// another comes after it (the per-file readahead cap after the client
/// cap, the whole-file cap after the per-file cap, the modifying-RPC cap
/// after mdc.max_rpcs_in_flight), so clampConfig can clamp in this order.
constexpr std::array<FieldDescriptor, 13> kFields{{
    {"lov.stripe_count", &PfsConfig::stripe_count},
    {"lov.stripe_size", &PfsConfig::stripe_size},
    {"osc.max_rpcs_in_flight", &PfsConfig::osc_max_rpcs_in_flight},
    {"osc.max_pages_per_rpc", &PfsConfig::osc_max_pages_per_rpc},
    {"osc.max_dirty_mb", &PfsConfig::osc_max_dirty_mb},
    {"llite.max_read_ahead_mb", &PfsConfig::llite_max_read_ahead_mb},
    {"llite.max_read_ahead_per_file_mb", &PfsConfig::llite_max_read_ahead_per_file_mb},
    {"llite.max_read_ahead_whole_mb", &PfsConfig::llite_max_read_ahead_whole_mb},
    {"llite.statahead_max", &PfsConfig::llite_statahead_max},
    {"mdc.max_rpcs_in_flight", &PfsConfig::mdc_max_rpcs_in_flight},
    {"mdc.max_mod_rpcs_in_flight", &PfsConfig::mdc_max_mod_rpcs_in_flight},
    {"ldlm.lru_size", &PfsConfig::ldlm_lru_size},
    {"ldlm.lru_max_age", &PfsConfig::ldlm_lru_max_age},
}};

const FieldDescriptor* findField(std::string_view name) {
  for (const auto& fd : kFields) {
    if (name == fd.name) {
      return &fd;
    }
  }
  return nullptr;
}

}  // namespace

bool PfsConfig::set(std::string_view name, std::int64_t value) {
  const FieldDescriptor* fd = findField(name);
  if (fd == nullptr) {
    return false;
  }
  this->*(fd->field) = value;
  return true;
}

std::optional<std::int64_t> PfsConfig::get(std::string_view name) const {
  const FieldDescriptor* fd = findField(name);
  if (fd == nullptr) {
    return std::nullopt;
  }
  return this->*(fd->field);
}

const std::vector<std::string>& PfsConfig::tunableNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    out.reserve(kFields.size());
    for (const auto& fd : kFields) {
      out.emplace_back(fd.name);
    }
    return out;
  }();
  return names;
}

util::Json PfsConfig::toJson() const {
  util::Json obj = util::Json::makeObject();
  for (const auto& fd : kFields) {
    obj.set(fd.name, util::Json{this->*(fd.field)});
  }
  obj.set("osc.checksums", util::Json{osc_checksums});
  return obj;
}

PfsConfig PfsConfig::fromJson(const util::Json& json) {
  PfsConfig cfg;
  for (const auto& [key, value] : json.asObject()) {
    if (key == "osc.checksums") {
      cfg.osc_checksums = value.asBool();
      continue;
    }
    if (!cfg.set(key, value.asInteger<std::int64_t>())) {
      throw util::JsonError("unknown parameter in config JSON: " + key);
    }
  }
  return cfg;
}

std::string PfsConfig::diffAgainst(const PfsConfig& base) const {
  std::vector<std::string> changes;
  for (const auto& fd : kFields) {
    const std::int64_t before = base.*(fd.field);
    const std::int64_t after = this->*(fd.field);
    if (before != after) {
      changes.push_back(std::string{fd.name} + ": " + std::to_string(before) +
                        " -> " + std::to_string(after));
    }
  }
  return util::join(changes, ", ");
}

std::optional<ParamBounds> paramBounds(std::string_view name, const PfsConfig& cfg,
                                       const BoundsContext& ctx) {
  // Dependent bounds follow the Lustre manual's documented constraints;
  // the offline extractor re-derives these as `expression` strings and the
  // online tuner evaluates them against the same facts (§4.2.2).
  if (name == "lov.stripe_count") {
    return ParamBounds{-1, ctx.ostCount};
  }
  if (name == "lov.stripe_size") {
    return ParamBounds{64 * 1024, 4LL * 1024 * 1024 * 1024};
  }
  if (name == "osc.max_rpcs_in_flight") {
    return ParamBounds{1, 256};
  }
  if (name == "osc.max_pages_per_rpc") {
    return ParamBounds{16, 4096};  // 64 KiB .. 16 MiB payload
  }
  if (name == "osc.max_dirty_mb") {
    return ParamBounds{1, std::max<std::int64_t>(1, ctx.clientRamMb / 8)};
  }
  if (name == "llite.max_read_ahead_mb") {
    return ParamBounds{0, std::max<std::int64_t>(0, ctx.clientRamMb / 2)};
  }
  if (name == "llite.max_read_ahead_per_file_mb") {
    return ParamBounds{0, std::max<std::int64_t>(0, cfg.llite_max_read_ahead_mb / 2)};
  }
  if (name == "llite.max_read_ahead_whole_mb") {
    return ParamBounds{0, std::max<std::int64_t>(0, cfg.llite_max_read_ahead_per_file_mb)};
  }
  if (name == "llite.statahead_max") {
    return ParamBounds{0, 8192};
  }
  if (name == "mdc.max_rpcs_in_flight") {
    return ParamBounds{1, 256};
  }
  if (name == "mdc.max_mod_rpcs_in_flight") {
    return ParamBounds{1, std::max<std::int64_t>(1, cfg.mdc_max_rpcs_in_flight - 1)};
  }
  if (name == "ldlm.lru_size") {
    return ParamBounds{0, 10'000'000};
  }
  if (name == "ldlm.lru_max_age") {
    return ParamBounds{1, 86'400};
  }
  return std::nullopt;
}

std::vector<std::string> validateConfig(const PfsConfig& cfg, const BoundsContext& ctx) {
  std::vector<std::string> violations;
  for (const std::string& name : PfsConfig::tunableNames()) {
    const auto bounds = paramBounds(name, cfg, ctx);
    const auto value = cfg.get(name);
    if (!bounds || !value) {
      continue;
    }
    if (*value < bounds->min || *value > bounds->max) {
      violations.push_back(name + "=" + std::to_string(*value) + " outside [" +
                           std::to_string(bounds->min) + ", " +
                           std::to_string(bounds->max) + "]");
    }
  }
  // stripe_count = 0 is not meaningful (Lustre treats 0 as "inherit"; the
  // simulator requires an explicit count or -1).
  if (cfg.stripe_count == 0) {
    violations.push_back("lov.stripe_count=0 is not a valid explicit layout");
  }
  return violations;
}

PfsConfig clampConfig(PfsConfig cfg, const BoundsContext& ctx) {
  // kFields is in dependency order, so each dependent parameter's bounds
  // see the clamped values of the parameters they depend on.
  for (const std::string& name : PfsConfig::tunableNames()) {
    const auto bounds = paramBounds(name, cfg, ctx);
    const auto value = cfg.get(name);
    if (!bounds || !value) {
      continue;
    }
    const std::int64_t clamped = std::clamp(*value, bounds->min, bounds->max);
    (void)cfg.set(name, clamped);
  }
  if (cfg.stripe_count == 0) {
    cfg.stripe_count = 1;
  }
  return cfg;
}

}  // namespace stellar::pfs
