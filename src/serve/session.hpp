#pragma once
// End-to-end raw-netlist serving with multi-tenant session caching.
//
// InferenceServer (server.hpp) answers requests that already carry model
// tensors; this layer accepts what a real client actually has — a raw
// SPICE netlist, or a small delta (value edits) against a netlist the
// server has already seen — and runs feature extraction server-side.
//
// The unit of reuse is a *session*: one tenant's stream of related
// revisions (a load sweep, an ECO loop).  Each session owns
//   * the current spice::Netlist (so deltas have a base to apply to),
//   * a feat::FeatureContext (so same-topology revisions reuse the four
//     topology-invariant channels — the ~25x warm extraction path),
//   * the featurized tensors of the latest revision, keyed on
//     spice::Netlist::revision() (a repeat of the same revision skips
//     featurization entirely).
//
// Sessions live in an LRU cache bounded two ways: entry count
// (max_sessions) and estimated resident bytes (max_resident_bytes).
// Eviction walks from the LRU tail, skipping entries whose per-session
// lock is held by an in-flight request (shared_ptr keeps an evicted
// entry alive for its current request; it is simply no longer cached).
//
// Threading / deadlock contract: submit() runs feature extraction INLINE
// on the calling thread and returns a SessionTicket whose get() blocks on
// the inner inference future.  Calling get() from a runtime::global_pool
// worker can deadlock (the batched forward fans out over the same pool;
// if every worker is blocked in get(), the forward's chunks never run).
// Submit from anywhere; get() from a non-pool thread.  Requests within
// one session serialize on the session lock (a session is one tenant's
// ordered revision stream); distinct sessions proceed concurrently.
//
// Deadlines: SessionRequest::deadline_us covers the WHOLE server-side
// path — parse + extraction + queue wait.  Whatever extraction spends is
// subtracted before the inner submit; an already-blown deadline rejects
// with RejectedError{DeadlineExceeded} without wasting a forward pass.
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/sample.hpp"
#include "features/feature_context.hpp"
#include "serve/server.hpp"
#include "spice/netlist.hpp"

namespace lmmir::serve {

struct SessionServeOptions {
  ServeOptions serve;          // inner dynamic-batching server
  data::SampleOptions sample;  // featurization (input_side, pc_grid, ...)
  /// LRU capacity: number of concurrently cached sessions.  0 = unbounded.
  std::size_t max_sessions = 64;
  /// Memory budget over the estimated resident bytes of all cached
  /// sessions (netlist + feature context + featurized tensors).  Enforced
  /// after each request by evicting from the LRU tail.  0 = unbounded.
  std::size_t max_resident_bytes = 256ull << 20;
};

/// One in-place element value rewrite (ECO / load-sweep delta): the
/// element at `element_index` in the session's current netlist gets
/// `value` (amps / ohms / volts depending on the element).
struct ValueEdit {
  std::size_t element_index = 0;
  double value = 0.0;
};

/// A raw-netlist (or delta) prediction request.
///
/// Exactly one of three shapes:
///   * full netlist:  netlist_text set (SPICE source); edits may refine it;
///   * delta:         netlist_text empty, edits non-empty — applied to the
///                    session's cached netlist (requires a prior request
///                    on this session; base_revision, when non-zero, must
///                    match the cached netlist's revision or the request
///                    is rejected as stale);
///   * replay:        both empty — re-predict the session's current
///                    revision (hits the full-reuse fast path).
struct SessionRequest {
  std::string session_id;     // tenant/session key (cache key)
  std::string id;             // caller tag, echoed in the result
  std::string netlist_text;   // raw SPICE source ("" = delta/replay)
  std::vector<ValueEdit> edits;
  /// Optimistic concurrency check for deltas: 0 = skip the check.
  std::uint64_t base_revision = 0;
  /// Whole-path deadline in microseconds from submit() entry (0 = none);
  /// see the header comment.
  std::uint64_t deadline_us = 0;
};

struct SessionResult {
  std::string id;
  std::string session_id;
  std::uint64_t revision = 0;   // netlist revision this prediction is for
  grid::Grid2D percent_map;     // percent-of-vdd at original resolution
  tensor::Tensor map;           // [1,S,S] model-side prediction
  bool session_hit = false;     // session already cached at submit
  bool revision_reuse = false;  // same revision: featurization skipped
  std::size_t channels_reused = 0;    // feature channels reused this request
  std::size_t channels_computed = 0;  // feature channels rasterized
  double extract_us = 0.0;  // parse + delta + featurize wall clock
  double queue_us = 0.0;    // inner server: submit -> batch start
  double compute_us = 0.0;  // inner server: batched forward
  double total_us = 0.0;    // submit() entry -> result assembled
};

/// Lifetime counters of the session cache (always-on per-server view;
/// the same quantities stream into obs:: lmmir_serve_session_* when
/// LMMIR_METRICS is enabled).
struct SessionCacheStats {
  std::size_t requests = 0;
  std::size_t hits = 0;             // session already cached
  std::size_t misses = 0;           // session created (or recreated)
  std::size_t revision_reuses = 0;  // featurization skipped entirely
  std::size_t evictions_lru = 0;    // evicted for max_sessions
  std::size_t evictions_memory = 0; // evicted for max_resident_bytes
  std::size_t channels_reused = 0;  // across all session FeatureContexts
  std::size_t channels_computed = 0;
  std::size_t sessions = 0;         // currently cached
  std::size_t resident_bytes = 0;   // current estimated footprint
  std::size_t peak_resident_bytes = 0;  // post-enforcement high-water mark
};

class SessionServer;

/// Handle to an in-flight session prediction.  get() blocks on the inner
/// inference future and assembles the SessionResult (call it at most
/// once, and never from a runtime::global_pool worker — see the header
/// comment).  Rethrows inference errors and RejectedError.
class SessionTicket {
 public:
  SessionTicket() = default;
  SessionTicket(SessionTicket&&) = default;
  SessionTicket& operator=(SessionTicket&&) = default;

  bool valid() const { return future_.valid(); }
  SessionResult get();

 private:
  friend class SessionServer;
  std::future<PredictResult> future_;
  SessionResult partial_;      // metadata filled at submit time
  feat::AdjustInfo adjust_;    // restore record for percent_map
  std::chrono::steady_clock::time_point start_{};
};

class SessionServer {
 public:
  SessionServer(std::shared_ptr<models::IrModel> model,
                SessionServeOptions options = {});
  ~SessionServer();
  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Parse/apply + featurize inline, enqueue the inference, return a
  /// ticket.  Throws RejectedError (shutdown, inner queue full, deadline
  /// blown during extraction), std::invalid_argument (malformed request:
  /// delta with no cached base, stale base_revision, bad element index),
  /// and whatever the parser/extractor throw on bad netlist text.
  SessionTicket submit(SessionRequest request);

  /// Synchronous convenience wrapper: submit + get.  Same thread
  /// restrictions as SessionTicket::get().
  SessionResult predict(SessionRequest request);

  /// Stop accepting new requests, drain the inner server, join.
  /// Idempotent; also run by the destructor.  Submissions racing
  /// shutdown either complete or reject with RejectedError{Shutdown}.
  void shutdown();

  /// Drop a session from the cache (tenant disconnect).  In-flight
  /// requests on it finish normally.  Returns true when it was cached.
  bool drop_session(const std::string& session_id);

  SessionCacheStats cache_stats() const;
  ServerStats server_stats() const { return server_->stats(); }
  const SessionServeOptions& options() const { return opts_; }
  InferenceServer& server() { return *server_; }

 private:
  struct Entry {
    std::string session_id;
    std::mutex mu;  // serializes requests within the session
    spice::Netlist netlist;
    bool has_netlist = false;
    feat::FeatureContext context;
    // Featurized tensors of `featurized_revision` (shared-impl handles;
    // requests ride the same buffers — inference never mutates inputs).
    std::uint64_t featurized_revision = 0;
    bool has_featurized = false;
    tensor::Tensor circuit;
    tensor::Tensor tokens;
    feat::AdjustInfo adjust;
    // Snapshot of context.stats() already folded into the server-wide
    // channel counters (so eviction never loses telemetry).
    feat::FeatureContextStats reported;
    std::size_t bytes = 0;   // last accounted footprint
    bool resident = true;    // false once evicted (entry may outlive it)
  };
  using EntryPtr = std::shared_ptr<Entry>;

  std::size_t entry_bytes(const Entry& e) const;
  /// Under cache_mu_: find-or-create + move to MRU front.
  EntryPtr acquire_entry(const std::string& session_id, bool& hit);
  /// Under cache_mu_: evict from the LRU tail until both bounds hold.
  /// Evicted entries move to `evicted`, for the caller to release once
  /// cache_mu_ is dropped.
  void enforce_budget_locked(std::vector<EntryPtr>& evicted);
  void evict_locked(std::list<EntryPtr>::iterator it, bool memory,
                    std::vector<EntryPtr>& evicted);

  std::shared_ptr<models::IrModel> model_;
  SessionServeOptions opts_;
  std::unique_ptr<InferenceServer> server_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex cache_mu_;
  std::list<EntryPtr> lru_;  // MRU at front
  std::unordered_map<std::string, std::list<EntryPtr>::iterator> index_;
  std::size_t resident_bytes_ = 0;
  std::size_t peak_resident_bytes_ = 0;

  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> revision_reuses_{0};
  std::atomic<std::size_t> evictions_lru_{0};
  std::atomic<std::size_t> evictions_memory_{0};
  std::atomic<std::size_t> channels_reused_{0};
  std::atomic<std::size_t> channels_computed_{0};
};

}  // namespace lmmir::serve
