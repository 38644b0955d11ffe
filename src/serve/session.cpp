#include "serve/session.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "spice/parser.hpp"

namespace lmmir::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Session-cache instruments (lazy, lock-free writes; no-ops unless
/// LMMIR_METRICS is on — see obs/metrics.hpp).
struct SessionMetrics {
  obs::Counter& requests =
      obs::counter("lmmir_serve_session_requests_total");
  obs::Counter& hits = obs::counter("lmmir_serve_session_hits_total");
  obs::Counter& misses = obs::counter("lmmir_serve_session_misses_total");
  obs::Counter& revision_reuses =
      obs::counter("lmmir_serve_session_revision_reuses_total");
  obs::Counter& evictions =
      obs::counter("lmmir_serve_session_evictions_total");
  obs::Gauge& sessions = obs::gauge("lmmir_serve_session_count");
  obs::Gauge& resident_bytes =
      obs::gauge("lmmir_serve_session_resident_bytes");
};

SessionMetrics& metrics() {
  static SessionMetrics m;
  return m;
}

std::size_t tensor_bytes(const tensor::Tensor& t) {
  return t.defined() ? t.numel() * sizeof(float) : 0;
}

}  // namespace

SessionResult SessionTicket::get() {
  if (!future_.valid())
    throw std::logic_error("SessionTicket::get: no pending request");
  PredictResult inner = future_.get();
  SessionResult out = std::move(partial_);
  out.queue_us = inner.queue_us;
  out.compute_us = inner.compute_us;
  out.percent_map = restore_percent_map(inner, adjust_);
  out.map = std::move(inner.map);
  out.total_us = us_since(start_);
  return out;
}

SessionServer::SessionServer(std::shared_ptr<models::IrModel> model,
                             SessionServeOptions options)
    : model_(std::move(model)),
      opts_(options),
      server_(std::make_unique<InferenceServer>(model_, options.serve)) {}

SessionServer::~SessionServer() { shutdown(); }

void SessionServer::shutdown() {
  stopping_.store(true, std::memory_order_release);
  server_->shutdown();
}

std::size_t SessionServer::entry_bytes(const Entry& e) const {
  std::size_t bytes = sizeof(Entry) + e.session_id.capacity();
  if (e.has_netlist) bytes += e.netlist.resident_bytes();
  bytes += e.context.resident_bytes();
  if (e.has_featurized)
    bytes += tensor_bytes(e.circuit) + tensor_bytes(e.tokens);
  return bytes;
}

SessionServer::EntryPtr SessionServer::acquire_entry(
    const std::string& session_id, bool& hit) {
  auto found = index_.find(session_id);
  if (found != index_.end()) {
    hit = true;
    lru_.splice(lru_.begin(), lru_, found->second);  // move to MRU front
    found->second = lru_.begin();
    return *found->second;
  }
  hit = false;
  auto entry = std::make_shared<Entry>();
  entry->session_id = session_id;
  lru_.push_front(entry);
  index_[session_id] = lru_.begin();
  metrics().sessions.set(static_cast<double>(lru_.size()));
  return entry;
}

void SessionServer::evict_locked(std::list<EntryPtr>::iterator it,
                                 bool memory, std::vector<EntryPtr>& evicted) {
  EntryPtr& entry = evicted.emplace_back(std::move(*it));
  entry->resident = false;
  resident_bytes_ -= entry->bytes;
  index_.erase(entry->session_id);
  lru_.erase(it);
  (memory ? evictions_memory_ : evictions_lru_)
      .fetch_add(1, std::memory_order_relaxed);
  metrics().evictions.add();
  metrics().sessions.set(static_cast<double>(lru_.size()));
  metrics().resident_bytes.set(static_cast<double>(resident_bytes_));
}

void SessionServer::enforce_budget_locked(std::vector<EntryPtr>& evicted) {
  // Walk from the LRU tail, skipping entries whose lock is held by an
  // in-flight request (they stay cached; shared_ptr would keep an evicted
  // entry alive anyway, but evicting active sessions is bad policy).
  auto evict_one = [&](bool memory) {
    if (lru_.empty()) return false;
    auto it = std::prev(lru_.end());
    while (true) {
      std::unique_lock<std::mutex> lock((*it)->mu, std::try_to_lock);
      if (lock.owns_lock()) {
        // bytes/resident are cache_mu_-guarded; mu was only probed for
        // in-flight activity.
        lock.unlock();
        evict_locked(it, memory, evicted);
        return true;
      }
      if (it == lru_.begin()) return false;
      --it;
    }
  };
  while (opts_.max_sessions > 0 && lru_.size() > opts_.max_sessions)
    if (!evict_one(false)) break;
  while (opts_.max_resident_bytes > 0 &&
         resident_bytes_ > opts_.max_resident_bytes)
    if (!evict_one(true)) break;
}

SessionTicket SessionServer::submit(SessionRequest request) {
  const Clock::time_point start = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics().requests.add();
  if (stopping_.load(std::memory_order_acquire))
    throw RejectedError(RejectReason::Shutdown, 0,
                        "submit: server is shut down");

  bool hit = false;
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    entry = acquire_entry(request.session_id, hit);
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (hit ? metrics().hits : metrics().misses).add();

  SessionTicket ticket;
  ticket.start_ = start;
  ticket.partial_.id = request.id;
  ticket.partial_.session_id = request.session_id;
  ticket.partial_.session_hit = hit;

  std::lock_guard<std::mutex> entry_lock(entry->mu);

  // --- Materialize the netlist revision this request asks about. ---
  if (!request.netlist_text.empty()) {
    entry->netlist = spice::parse_netlist_string(request.netlist_text);
    entry->has_netlist = true;
  } else if (!entry->has_netlist) {
    throw std::invalid_argument(
        "session submit: delta/replay request but session '" +
        request.session_id + "' has no cached base netlist");
  }
  if (request.base_revision != 0 &&
      entry->netlist.revision() != request.base_revision)
    throw std::invalid_argument(
        "session submit: stale base_revision " +
        std::to_string(request.base_revision) + " (session '" +
        request.session_id + "' is at revision " +
        std::to_string(entry->netlist.revision()) + ")");
  for (const ValueEdit& edit : request.edits)
    entry->netlist.set_element_value(edit.element_index, edit.value);

  // --- Featurize (or reuse the cached tensors of this exact revision). ---
  const std::uint64_t revision = entry->netlist.revision();
  ticket.partial_.revision = revision;
  const bool revision_reuse =
      entry->has_featurized && entry->featurized_revision == revision;
  ticket.partial_.revision_reuse = revision_reuse;
  if (revision_reuse) {
    revision_reuses_.fetch_add(1, std::memory_order_relaxed);
    metrics().revision_reuses.add();
    ticket.partial_.channels_reused = feat::kChannelCount;
  } else {
    data::SampleOptions sample_opts = opts_.sample;
    sample_opts.feature_context = &entry->context;
    const feat::FeatureContextStats before = entry->context.stats();
    data::FeaturizedNetlist f =
        data::featurize_netlist(entry->netlist, sample_opts);
    const feat::FeatureContextStats& after = entry->context.stats();
    ticket.partial_.channels_reused =
        after.channels_reused - before.channels_reused;
    ticket.partial_.channels_computed =
        after.channels_computed - before.channels_computed;
    entry->circuit = std::move(f.circuit);
    entry->tokens = std::move(f.tokens);
    entry->adjust = f.adjust;
    entry->featurized_revision = revision;
    entry->has_featurized = true;
    // Fold the context's lifetime counters into the server-wide totals as
    // a delta against what was already reported, so eviction (which
    // destroys the context) never loses telemetry.
    channels_reused_.fetch_add(
        after.channels_reused - entry->reported.channels_reused,
        std::memory_order_relaxed);
    channels_computed_.fetch_add(
        after.channels_computed - entry->reported.channels_computed,
        std::memory_order_relaxed);
    entry->reported = after;
  }
  ticket.adjust_ = entry->adjust;
  ticket.partial_.extract_us = us_since(start);

  // --- Re-account this session's footprint and enforce the budgets.  The
  // current entry's lock is held, so the eviction walk skips it, and its
  // size can be taken before cache_mu_.  Evicted entries are released
  // after the lock scope: destroying a large netlist, context and tensors
  // under cache_mu_ would stall every other request on it. ---
  const std::size_t new_bytes = entry_bytes(*entry);
  std::vector<EntryPtr> evicted;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (entry->resident) {
      resident_bytes_ -= entry->bytes;
      resident_bytes_ += new_bytes;
    }
    entry->bytes = new_bytes;
    enforce_budget_locked(evicted);
    if (resident_bytes_ > peak_resident_bytes_)
      peak_resident_bytes_ = resident_bytes_;
    metrics().resident_bytes.set(static_cast<double>(resident_bytes_));
  }
  evicted.clear();

  // --- Forward whatever deadline budget extraction left over. ---
  PredictRequest inner;
  inner.id = request.id;
  inner.circuit = entry->circuit;  // shared-impl handles: no copy, and the
  inner.tokens = entry->tokens;    // forward pass never mutates its inputs
  if (request.deadline_us > 0) {
    const std::uint64_t spent =
        static_cast<std::uint64_t>(us_since(start));
    if (spent >= request.deadline_us)
      throw RejectedError(
          RejectReason::DeadlineExceeded, 0,
          "session submit: deadline of " + std::to_string(request.deadline_us) +
              " us exhausted during extraction (" + std::to_string(spent) +
              " us spent)");
    inner.deadline_us = request.deadline_us - spent;
  }
  ticket.future_ = server_->submit(std::move(inner));
  return ticket;
}

SessionResult SessionServer::predict(SessionRequest request) {
  return submit(std::move(request)).get();
}

bool SessionServer::drop_session(const std::string& session_id) {
  EntryPtr entry;  // released after the lock, like evictions
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto found = index_.find(session_id);
  if (found == index_.end()) return false;
  entry = std::move(*found->second);
  entry->resident = false;
  resident_bytes_ -= entry->bytes;
  lru_.erase(found->second);
  index_.erase(found);
  metrics().sessions.set(static_cast<double>(lru_.size()));
  metrics().resident_bytes.set(static_cast<double>(resident_bytes_));
  return true;
}

SessionCacheStats SessionServer::cache_stats() const {
  SessionCacheStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.revision_reuses = revision_reuses_.load(std::memory_order_relaxed);
  s.evictions_lru = evictions_lru_.load(std::memory_order_relaxed);
  s.evictions_memory = evictions_memory_.load(std::memory_order_relaxed);
  s.channels_reused = channels_reused_.load(std::memory_order_relaxed);
  s.channels_computed = channels_computed_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mu_);
  s.sessions = lru_.size();
  s.resident_bytes = resident_bytes_;
  s.peak_resident_bytes = peak_resident_bytes_;
  return s;
}

}  // namespace lmmir::serve
