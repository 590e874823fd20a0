#include "manual/param_facts.hpp"

namespace stellar::manual {

namespace {

std::vector<ParamFact> buildFacts() {
  std::vector<ParamFact> facts;
  const auto add = [&facts](ParamFact f) { facts.push_back(std::move(f)); };

  // ------------------------------------------------ the 13 tunables -----
  add({.name = "lov.stripe_count",
       .procPath = "/proc/fs/stellarfs/lov/stripe_count",
       .writable = true,
       .userAccessible = true,  // lfs setstripe needs no privileges
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The number of Object Storage Targets (OSTs) across which a new file "
           "will be striped. A value of -1 stripes across every available OST.",
       .ioImpact =
           "Directly affects I/O throughput: striping a large shared file across "
           "more OSTs aggregates their bandwidth, while small files should keep a "
           "stripe count of 1 because every additional stripe adds object "
           "allocation and destruction work on create and unlink.",
       .minExpr = "-1",
       .maxExpr = "ost_count",
       .defaultValue = 1,
       .unit = "OSTs"});

  add({.name = "lov.stripe_size",
       .procPath = "/proc/fs/stellarfs/lov/stripe_size",
       .writable = true,
       .userAccessible = true,  // lfs setstripe needs no privileges
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The number of bytes stored on each OST before the file layout moves "
           "to the next OST. Must be a multiple of 64 KiB.",
       .ioImpact =
           "Directly affects I/O throughput for striped files: matching the "
           "stripe size to the application transfer size keeps large sequential "
           "transfers contiguous on each OST; undersized stripes fragment bulk "
           "transfers across servers.",
       .minExpr = "65536",
       .maxExpr = "4294967296",
       .defaultValue = 1 << 20,
       .unit = "bytes"});

  add({.name = "osc.max_rpcs_in_flight",
       .procPath = "/proc/fs/stellarfs/osc/max_rpcs_in_flight",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The maximum number of concurrent bulk RPCs a client keeps in flight "
           "to a single OST.",
       .ioImpact =
           "Directly affects I/O throughput for concurrent and small-record "
           "workloads: higher values keep the server pipeline full and hide "
           "network latency, with diminishing returns once the OST saturates.",
       .minExpr = "1",
       .maxExpr = "256",
       .defaultValue = 8,
       .unit = "RPCs"});

  add({.name = "osc.max_pages_per_rpc",
       .procPath = "/proc/fs/stellarfs/osc/max_pages_per_rpc",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The maximum number of 4 KiB pages carried by one bulk RPC, bounding "
           "the RPC payload (256 pages = 1 MiB).",
       .ioImpact =
           "Directly affects I/O throughput for large transfers: bigger RPCs "
           "amortize per-RPC processing, so streaming workloads benefit from the "
           "maximum of 4096 pages (16 MiB); small random records see no benefit.",
       .minExpr = "16",
       .maxExpr = "4096",
       .defaultValue = 256,
       .unit = "pages"});

  add({.name = "osc.max_dirty_mb",
       .procPath = "/proc/fs/stellarfs/osc/max_dirty_mb",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The amount of dirty write-back cache, in MiB, a client may "
           "accumulate per OST before writers are throttled.",
       .ioImpact =
           "Directly affects write throughput: a larger budget lets writers run "
           "ahead of the storage targets and absorbs bursts, which matters most "
           "when computation can overlap the background flush.",
       .minExpr = "1",
       .maxExpr = "client_ram_mb / 8",
       .defaultValue = 32,
       .unit = "MiB"});

  add({.name = "llite.max_read_ahead_mb",
       .procPath = "/proc/fs/stellarfs/llite/max_read_ahead_mb",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The client-wide budget, in MiB, of readahead data that may be "
           "prefetched and not yet consumed.",
       .ioImpact =
           "Directly affects sequential read throughput: prefetching hides "
           "server latency for streaming readers. Random readers gain nothing "
           "and wasted prefetch consumes disk time.",
       .minExpr = "0",
       .maxExpr = "client_ram_mb / 2",
       .defaultValue = 64,
       .unit = "MiB"});

  add({.name = "llite.max_read_ahead_per_file_mb",
       .procPath = "/proc/fs/stellarfs/llite/max_read_ahead_per_file_mb",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The per-file cap, in MiB, on the readahead window. The window "
           "doubles while a stream stays sequential until it reaches this cap.",
       .ioImpact =
           "Directly affects sequential read throughput on a per-stream basis; "
           "its maximum is half of llite.max_read_ahead_mb so one file cannot "
           "monopolize the client budget.",
       .minExpr = "0",
       .maxExpr = "llite.max_read_ahead_mb / 2",
       .defaultValue = 32,
       .unit = "MiB"});

  add({.name = "llite.max_read_ahead_whole_mb",
       .procPath = "/proc/fs/stellarfs/llite/max_read_ahead_whole_mb",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "Files at most this many MiB are read in their entirety on the first "
           "read access, regardless of the requested range.",
       .ioImpact =
           "Directly affects small-file read latency: whole-file prefetch turns "
           "many small reads into one round trip. Bounded by the per-file "
           "readahead cap.",
       .minExpr = "0",
       .maxExpr = "llite.max_read_ahead_per_file_mb",
       .defaultValue = 2,
       .unit = "MiB"});

  add({.name = "llite.statahead_max",
       .procPath = "/proc/fs/stellarfs/llite/statahead_max",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The maximum number of asynchronous stat-ahead requests the client "
           "issues when it detects a directory traversal pattern (such as ls -l "
           "or a per-file stat scan). Zero disables stat-ahead.",
       .ioImpact =
           "Directly affects metadata scan throughput: pipelining attribute "
           "fetches hides metadata server latency during stat-heavy phases. The "
           "in-flight requests still count against mdc.max_rpcs_in_flight, so "
           "both must be raised together.",
       .minExpr = "0",
       .maxExpr = "8192",
       .defaultValue = 32,
       .unit = "requests"});

  add({.name = "mdc.max_rpcs_in_flight",
       .procPath = "/proc/fs/stellarfs/mdc/max_rpcs_in_flight",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The maximum number of concurrent metadata RPCs a client keeps in "
           "flight to the metadata server.",
       .ioImpact =
           "Directly affects metadata throughput when many processes per node "
           "issue metadata operations concurrently, or when stat-ahead pipelines "
           "attribute fetches.",
       .minExpr = "1",
       .maxExpr = "256",
       .defaultValue = 8,
       .unit = "RPCs"});

  add({.name = "mdc.max_mod_rpcs_in_flight",
       .procPath = "/proc/fs/stellarfs/mdc/max_mod_rpcs_in_flight",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The maximum number of concurrent *modifying* metadata RPCs (create, "
           "unlink, rename, setattr). Must be strictly less than "
           "mdc.max_rpcs_in_flight.",
       .ioImpact =
           "Directly affects create/delete throughput in file-per-process and "
           "many-small-files workloads.",
       .minExpr = "1",
       .maxExpr = "mdc.max_rpcs_in_flight - 1",
       .defaultValue = 7,
       .unit = "RPCs"});

  add({.name = "ldlm.lru_size",
       .procPath = "/proc/fs/stellarfs/ldlm/lru_size",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The capacity of the client's cached-lock LRU. Zero selects dynamic "
           "sizing, which shrinks the cache aggressively under server load.",
       .ioImpact =
           "Directly affects workloads that revisit many files: a cached lock "
           "makes re-open, re-stat, and cached-page reads local, while an "
           "evicted lock also drops the pages it protected. Working sets larger "
           "than the LRU thrash lock acquisition.",
       .minExpr = "0",
       .maxExpr = "10000000",
       .defaultValue = 0,
       .unit = "locks"});

  add({.name = "ldlm.lru_max_age",
       .procPath = "/proc/fs/stellarfs/ldlm/lru_max_age",
       .writable = true,
       .category = ParamCategory::PerformanceTunable,
       .description =
           "The time, in seconds, an unused lock may stay in the client LRU "
           "before it is cancelled.",
       .ioImpact =
           "Directly affects long-running jobs that revisit files after idle "
           "periods: an age shorter than the revisit interval forces lock "
           "re-acquisition and drops cached pages.",
       .minExpr = "1",
       .maxExpr = "86400",
       .defaultValue = 3900,
       .unit = "seconds"});

  // ------------------------------------------- binary trade-offs --------
  add({.name = "osc.checksums",
       .procPath = "/proc/fs/stellarfs/osc/checksums",
       .writable = true,
       .category = ParamCategory::BinaryTradeoff,
       .description =
           "Enables or disables checksumming of bulk data between client and "
           "OST. This is a data-integrity feature, not a tuning knob.",
       .ioImpact =
           "Boolean switch. Disabling checksums measurably increases throughput "
           "but removes protection against network corruption; the setting "
           "should follow site integrity policy rather than performance goals.",
       .minExpr = "0",
       .maxExpr = "1",
       .defaultValue = 0,
       .unit = "boolean"});

  add({.name = "llite.checksum_pages",
       .procPath = "/proc/fs/stellarfs/llite/checksum_pages",
       .writable = true,
       .category = ParamCategory::BinaryTradeoff,
       .description =
           "Enables or disables in-memory checksumming of cached pages on the "
           "client, guarding against RAM corruption.",
       .ioImpact =
           "Boolean switch guarding data integrity; it costs CPU time per page "
           "and must be chosen by policy, not tuned for speed.",
       .minExpr = "0",
       .maxExpr = "1",
       .defaultValue = 0,
       .unit = "boolean"});

  add({.name = "llite.statahead_agl",
       .procPath = "/proc/fs/stellarfs/llite/statahead_agl",
       .writable = true,
       .category = ParamCategory::BinaryTradeoff,
       .description =
           "Enables asynchronous glimpse locking during stat-ahead so file "
           "sizes are fetched along with attributes.",
       .ioImpact =
           "Boolean switch; keep enabled unless glimpse storms overload the "
           "OSTs.",
       .minExpr = "0",
       .maxExpr = "1",
       .defaultValue = 1,
       .unit = "boolean"});

  add({.name = "osc.grant_shrink",
       .procPath = "/proc/fs/stellarfs/osc/grant_shrink",
       .writable = true,
       .category = ParamCategory::BinaryTradeoff,
       .description =
           "Enables returning unused space grants to the OSTs when the client "
           "is idle.",
       .ioImpact =
           "Boolean switch affecting space accounting behaviour rather than "
           "I/O performance.",
       .minExpr = "0",
       .maxExpr = "1",
       .defaultValue = 1,
       .unit = "boolean"});

  // ------------------------------------------- not runtime-tunable ------
  add({.name = "mgs.mount_block_size",
       .procPath = "/proc/fs/stellarfs/mgs/mount_block_size",
       .writable = false,
       .category = ParamCategory::NotRuntime,
       .description =
           "The backing filesystem block size chosen when a target is "
           "formatted. Fixed for the life of the target.",
       .ioImpact = "Set at format time; it cannot be changed at runtime.",
       .minExpr = "1024",
       .maxExpr = "65536",
       .defaultValue = 4096,
       .unit = "bytes"});

  add({.name = "mds.mdt_inode_size",
       .procPath = "/proc/fs/stellarfs/mds/mdt_inode_size",
       .writable = false,
       .category = ParamCategory::NotRuntime,
       .description =
           "The on-disk inode size of the metadata target, fixed at format "
           "time.",
       .ioImpact = "Set at format time; it cannot be changed at runtime.",
       .minExpr = "512",
       .maxExpr = "4096",
       .defaultValue = 1024,
       .unit = "bytes"});

  add({.name = "ost.backfs_journal_mb",
       .procPath = "/proc/fs/stellarfs/ost/backfs_journal_mb",
       .writable = false,
       .category = ParamCategory::NotRuntime,
       .description = "The journal size of the OST backing filesystem.",
       .ioImpact = "Set at format time; it cannot be changed at runtime.",
       .minExpr = "64",
       .maxExpr = "16384",
       .defaultValue = 1024,
       .unit = "MiB"});

  // -------------------------------- runtime but not performance ---------
  add({.name = "ost.nrs_delay_min",
       .procPath = "/proc/fs/stellarfs/ost/nrs_delay_min",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "The minimum artificial delay, in milliseconds, the NRS delay "
           "policy injects into selected requests. Used to simulate a loaded "
           "server for testing.",
       .ioImpact =
           "Diagnostic parameter for fault-injection experiments; it does not "
           "improve production I/O performance.",
       .minExpr = "0",
       .maxExpr = "100000",
       .defaultValue = 0,
       .unit = "ms"});

  add({.name = "ost.nrs_delay_max",
       .procPath = "/proc/fs/stellarfs/ost/nrs_delay_max",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "The maximum artificial delay of the NRS delay policy; see "
           "ost.nrs_delay_min.",
       .ioImpact =
           "Diagnostic parameter for fault-injection experiments; it does not "
           "improve production I/O performance.",
       .minExpr = "0",
       .maxExpr = "100000",
       .defaultValue = 0,
       .unit = "ms"});

  add({.name = "ost.nrs_delay_pct",
       .procPath = "/proc/fs/stellarfs/ost/nrs_delay_pct",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "The percentage of requests the NRS delay policy applies its "
           "artificial delay to.",
       .ioImpact =
           "Diagnostic parameter for fault-injection experiments; it does not "
           "improve production I/O performance.",
       .minExpr = "0",
       .maxExpr = "100",
       .defaultValue = 0,
       .unit = "percent"});

  add({.name = "llite.debug_level",
       .procPath = "/proc/fs/stellarfs/llite/debug_level",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "The verbosity mask of the client debug log. Higher levels trace "
           "more subsystems.",
       .ioImpact =
           "Diagnostic parameter; verbose levels slow the client down and it "
           "should stay at the default outside debugging sessions.",
       .minExpr = "0",
       .maxExpr = "65535",
       .defaultValue = 0,
       .unit = "mask"});

  add({.name = "mdc.ping_interval",
       .procPath = "/proc/fs/stellarfs/mdc/ping_interval",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "Seconds between keep-alive pings from the client to the metadata "
           "server, used for failure detection.",
       .ioImpact =
           "Affects failover detection latency, not I/O performance; lowering "
           "it increases idle network chatter.",
       .minExpr = "1",
       .maxExpr = "600",
       .defaultValue = 25,
       .unit = "seconds"});

  add({.name = "ldlm.lru_cancel_batch",
       .procPath = "/proc/fs/stellarfs/ldlm/lru_cancel_batch",
       .writable = true,
       .category = ParamCategory::NotPerformance,
       .description =
           "How many locks the client cancels per batch when trimming its "
           "LRU.",
       .ioImpact =
           "Internal housekeeping granularity; it primarily affects memory "
           "reclaim smoothness rather than I/O performance.",
       .minExpr = "1",
       .maxExpr = "1024",
       .defaultValue = 64,
       .unit = "locks"});

  // --------------------------------------------- undocumented -----------
  add({.name = "osc.experimental_prefetch_mode",
       .procPath = "/proc/fs/stellarfs/osc/experimental_prefetch_mode",
       .writable = true,
       .category = ParamCategory::Undocumented,
       .description = "(not covered by the administrator manual)",
       .ioImpact = "(not covered by the administrator manual)",
       .minExpr = "0",
       .maxExpr = "3",
       .defaultValue = 0,
       .unit = ""});

  add({.name = "llite.scratch_reserve_mb",
       .procPath = "/proc/fs/stellarfs/llite/scratch_reserve_mb",
       .writable = true,
       .category = ParamCategory::Undocumented,
       .description = "(not covered by the administrator manual)",
       .ioImpact = "(not covered by the administrator manual)",
       .minExpr = "0",
       .maxExpr = "1024",
       .defaultValue = 0,
       .unit = "MiB"});

  add({.name = "mdc.batch_rpc_gap_us",
       .procPath = "/proc/fs/stellarfs/mdc/batch_rpc_gap_us",
       .writable = true,
       .category = ParamCategory::Undocumented,
       .description = "(not covered by the administrator manual)",
       .ioImpact = "(not covered by the administrator manual)",
       .minExpr = "0",
       .maxExpr = "100000",
       .defaultValue = 0,
       .unit = "us"});

  return facts;
}

}  // namespace

const std::vector<ParamFact>& allParamFacts() {
  static const std::vector<ParamFact> facts = buildFacts();
  return facts;
}

const ParamFact* findParamFact(std::string_view name) {
  for (const ParamFact& fact : allParamFacts()) {
    if (fact.name == name) {
      return &fact;
    }
  }
  return nullptr;
}

std::vector<std::string> groundTruthTunables() {
  std::vector<std::string> names;
  for (const ParamFact& fact : allParamFacts()) {
    if (fact.category == ParamCategory::PerformanceTunable) {
      names.push_back(fact.name);
    }
  }
  return names;
}

std::optional<double> SystemFacts::resolve(std::string_view name) const {
  if (name == "client_ram_mb") {
    return static_cast<double>(clientRamMb);
  }
  if (name == "ost_count") {
    return static_cast<double>(ostCount);
  }
  if (name == "cpu_cores") {
    return static_cast<double>(cpuCores);
  }
  return std::nullopt;
}

}  // namespace stellar::manual
