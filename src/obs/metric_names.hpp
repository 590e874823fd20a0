// The single registry of metric names (stellar-lint RES-COUNTER-NAME).
//
// Every counter/gauge/histogram name used anywhere in src/ must be listed
// here; stellar-lint cross-checks each registrar call site's string
// literal against this file and fails the build otherwise. That turns the
// two failure modes we have already hit — a counter flushed under one name
// and read back under another (the pfs.rpc.* / rpc.* drift fixed in PR 8),
// and dashboards silently reading a name nobody emits — into lint errors.
//
// Keep the list sorted. Adding a metric = add the emit site and one line
// here; the lint self-test (tests/lint) fails if either half is missing.
#pragma once

#include <string_view>

namespace stellar::obs {

inline constexpr std::string_view kMetricNames[] = {
    "agent.llm.breaker_short_circuits",
    "agent.llm.breaker_trips",
    "agent.llm.clamped_values",
    "agent.llm.failed_attempts",
    "agent.llm.rejected_actions",
    "agent.llm.retries",
    "agent.llm.stale_analyses",
    "agent.llm.timeouts",
    "core.extraction.cache_hit",
    "core.extraction.cache_miss",
    "core.resilience.escalations",
    "core.tuning.aborted_runs",
    "core.tuning.attempts",
    "core.tuning.best_speedup",
    "core.tuning.measurements_retried",
    "core.tuning.measurements_skipped",
    "core.tuning.runs",
    "core.warm_start.miss",
    "core.warm_start.outcomes",
    "core.warm_start.recalled",
    "exp.store.appends",
    "exp.store.compactions",
    "exp.store.confirmed",
    "exp.store.corrupt_lines",
    "exp.store.evicted",
    "exp.store.penalized",
    "exp.store.recall_hits",
    "exp.store.recall_misses",
    "exp.store.records_loaded",
    "faults.windows_opened",
    "harness.failed_runs",
    "harness.unstable_measures",
    "pfs.cache.page_hit_bytes",
    "pfs.cache.readahead_hit_bytes",
    "pfs.cache.readahead_miss_bytes",
    "pfs.lock.extent_conflicts",
    "pfs.lock.hits",
    "pfs.lock.misses",
    "pfs.lock.wait_seconds",
    "pfs.lock.waits",
    "pfs.mds.busy_seconds",
    "pfs.mds.ops",
    "pfs.meta.statahead_served",
    "pfs.ost.peak_queue",
    "pfs.ost.seek_seconds",
    "pfs.ost.seeks",
    "pfs.ost.transfer_seconds",
    "pfs.reada.consumed_bytes",
    "pfs.reada.discarded_bytes",
    "pfs.reada.prefetched_bytes",
    "pfs.reada.resident_bytes",
    "pfs.reada.windows_grown",
    "pfs.reada.windows_opened",
    "pfs.reada.windows_reset",
    "pfs.rpc.data",
    "pfs.rpc.gave_up",
    "pfs.rpc.meta",
    "pfs.rpc.retries",
    "pfs.rpc.timeouts",
    "pfs.sim.config_rejected",
    "service.commits",
    "service.dispatch.fresh_runs",
    "service.queue.peak_depth",
    "service.sessions.coalesced",
    "service.sessions.completed",
    "service.sessions.failed",
    "service.sessions.interrupted",
    "service.sessions.rejected",
    "service.sessions.replayed",
    "service.sessions.submitted",
    "service.store.absorbed",
    "service.store.shard_appends",
    "service.store.snapshot_swaps",
    "sim.callbacks_spilled",
    "sim.drains",
    "sim.events_dispatched",
};

}  // namespace stellar::obs
