// Session surface of the stellard service core: what a client submits, the
// states a session moves through, and the typed outcomes it can end in.
// The service is an in-process library (ServiceClient == TuningService
// method calls) so the whole surface stays deterministic and testable; a
// network front end would serialize exactly these structs.
//
// Coalescing identity: sessions whose requests agree on the
// (workload-fingerprint, cluster, knob-space) cell — workload, seed, scale,
// ranks, model, fault spec — share ONE engine run and fan the result out.
// The tenant is deliberately NOT part of the cell key: cross-tenant
// coalescing is the point of a fleet-wide service. Tenancy governs
// fairness, admission, and store shard layout instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace stellar::service {

/// Monotonic per-service session handle (1-based; 0 is never issued).
using SessionId = std::uint64_t;

enum class SessionState {
  Queued,       ///< admitted, waiting for a dispatch slot
  Running,      ///< the cell's engine run is in flight
  Completed,    ///< result available (fresh run, fan-out, or journal replay)
  Failed,       ///< the cell's run threw deterministically (bad request data)
  Interrupted,  ///< the service was stopped/capped before the cell ran
};
[[nodiscard]] const char* sessionStateName(SessionState state) noexcept;

/// Why admission control refused a submission.
enum class RejectReason {
  QueueFull,    ///< global outstanding-session bound reached
  TenantQuota,  ///< per-tenant outstanding-session bound reached
  Stopped,      ///< the service no longer accepts work
  BadRequest,   ///< malformed submission (empty workload, bad tenant id)
};
[[nodiscard]] const char* rejectReasonName(RejectReason reason) noexcept;

/// One tuning-session request (the service-side analogue of the CLI's
/// `tune` argument surface).
struct SubmitOptions {
  std::string tenant = "default";
  std::string workload;
  std::uint64_t seed = 1;
  std::string model = "claude-3.7-sonnet";
  std::string faults;  ///< fault spec/scenario; "" = clean weather
  double scale = 0.05;
  std::uint32_t ranks = 50;
  bool warmStart = true;  ///< recall fleet history for this session

  [[nodiscard]] util::Json toJson() const;
  /// Absent fields keep the struct defaults (workload stays "" and is then
  /// rejected by admission as BadRequest); mistyped fields throw JsonError.
  [[nodiscard]] static SubmitOptions fromJson(const util::Json& json);
};

/// Tenant ids become file-name components (shard journals) and metric
/// labels, so they are restricted to [a-z0-9_-], non-empty.
[[nodiscard]] bool validTenantId(const std::string& tenant) noexcept;

/// Stable coalescing identity of a request: the cell every duplicate
/// submission shares. Excludes the tenant (see file comment) and the
/// warmStart flag (recall changes how a run starts, not which cell it is —
/// but mixed warmStart duplicates still share the first submitter's run).
[[nodiscard]] std::string cellKey(const SubmitOptions& request);

/// Filesystem-safe stem for per-cell artifacts (session journals):
/// sanitized key prefix plus an FNV-1a hash suffix for uniqueness.
[[nodiscard]] std::string cellFileStem(const std::string& key);

struct Rejection {
  RejectReason reason = RejectReason::QueueFull;
  std::string detail;
};

/// Outcome of TuningService::submit — a session id, or a typed rejection.
struct SubmitResult {
  std::optional<SessionId> id;
  std::optional<Rejection> rejection;

  [[nodiscard]] bool accepted() const noexcept { return id.has_value(); }
};

/// Terminal session outcome handed back by wait()/drainAll().
struct SessionResult {
  SessionId id = 0;
  std::string tenant;
  std::string key;
  SessionState state = SessionState::Queued;
  bool coalesced = false;  ///< a prior submission already owned this cell
  /// The cell result came from its complete session journal instead of a
  /// fresh run. Deliberately excluded from toJson(): it is the one field
  /// that distinguishes a resumed service from an uninterrupted one, and
  /// the resume law byte-compares the documents across both.
  bool replayed = false;
  std::string error;  ///< set for Failed/Interrupted sessions
  /// Canonical engine-run document of the cell (dump+parse normalized);
  /// null for Failed/Interrupted sessions. Shared across fan-out.
  util::Json cellDoc;
  /// Latency stamps from ServiceOptions::clock (0 when no clock is
  /// injected); excluded from toJson() for the same determinism reason.
  std::uint64_t submitNanos = 0;
  std::uint64_t completeNanos = 0;

  /// The byte-compared per-session document: identical across worker
  /// counts and across kill/resume for the same submission schedule.
  [[nodiscard]] util::Json toJson() const;
};

}  // namespace stellar::service
