#pragma once
// Arena-backed tensor memory for the inference hot path.
//
// Every tensor op allocates a fresh output node (TensorImpl + float
// buffer); a single CNN forward pass churns through dozens of heap
// allocations per layer.  Training needs owning allocations — tape nodes
// outlive the pass arbitrarily — but inference tensors have a strict
// request lifetime, so the serving layers recycle them through a
// TensorArena instead:
//
//   tensor::TensorArena arena;              // one per worker thread
//   {
//     tensor::NoGradGuard no_grad;          // the engage condition
//     tensor::ArenaScope scope(&arena);     // install for this thread
//     pred = model.forward(circuit, tokens);
//   }                                       // intermediates return to the pools
//   ... copy results out (owning) ...
//   arena.reset();                          // per-request barrier
//
// Ownership model (safety first): the arena keeps every node it ever
// created alive in a slot vector of shared_ptrs.  A node whose slot
// use_count() is back to 1 is free and gets recycled — its float buffer
// returns to a per-size free-list and the TensorImpl is reinitialized in
// place — so in steady state (same op sequence every request) a forward
// pass performs zero heap allocations.  A tensor that escapes the
// request (a bug, or a deliberate hand-off) simply keeps its node alive:
// the slot is never reused while referenced and destroying the arena
// cannot dangle it, because lifetime is plain shared_ptr ownership.
// Contract violations degrade to ordinary heap behaviour, never to
// use-after-free.
//
// Engage conditions:
//   * op outputs / make_node adopt into the arena only when the calling
//     thread has an ArenaScope installed AND grad mode is off
//     (NoGradGuard) AND the tensor does not require grad — training and
//     autograd keep the owning-allocation path untouched;
//   * ScratchBuffer / IndexScratchBuffer (op-internal temporaries that
//     never affect results) pool whenever an arena is installed,
//     including on runtime::ThreadPool workers, which own one arena each
//     (see runtime/thread_pool.hpp).
//
// Determinism: pooled buffers are zero-filled on acquisition exactly
// like the `std::vector<float>(n)` they replace, so results are bitwise
// identical with the arena on or off (bench_serve_throughput gates
// this).
//
// Thread model: a TensorArena is single-threaded state — one instance
// per worker thread, installed via ArenaScope.  Tensors allocated from
// it must be released by the owning thread before the arena is reused
// (escaped tensors are safe but pin their slot).
//
// Env: LMMIR_TENSOR_ARENA=0 disables arena adoption process-wide (the
// serving and runtime layers consult arena_enabled_from_env() when
// deciding whether to create arenas at all).
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace lmmir::tensor {

/// Lifetime counters of a TensorArena.  `*_allocs` count heap
/// allocations the pools could not serve (warm-up and shape changes);
/// `*_reuses` count the allocations saved by recycling.
struct ArenaStats {
  std::size_t node_allocs = 0;     // TensorImpl slots created
  std::size_t node_reuses = 0;     // nodes recycled in place
  std::size_t buffer_allocs = 0;   // data buffers heap-allocated
  std::size_t buffer_reuses = 0;   // data buffers served from the pool
  std::size_t scratch_allocs = 0;  // scratch buffers heap-allocated
  std::size_t scratch_reuses = 0;  // scratch buffers served from the pool
  std::size_t resets = 0;          // per-request reset() calls
  std::size_t bytes_reserved = 0;  // bytes held by slots + free-lists
  std::size_t live_nodes = 0;      // arena nodes currently referenced

  std::size_t allocations_saved() const {
    return node_reuses + buffer_reuses + scratch_reuses;
  }
  /// Heap allocations the arena had to perform.  Flat across steady-state
  /// requests once every shape has been seen — the bench gate.
  std::size_t heap_allocations() const {
    return node_allocs + buffer_allocs + scratch_allocs;
  }

  /// Field-wise sum (aggregation across per-worker arenas).
  ArenaStats& operator+=(const ArenaStats& o) {
    node_allocs += o.node_allocs;
    node_reuses += o.node_reuses;
    buffer_allocs += o.buffer_allocs;
    buffer_reuses += o.buffer_reuses;
    scratch_allocs += o.scratch_allocs;
    scratch_reuses += o.scratch_reuses;
    resets += o.resets;
    bytes_reserved += o.bytes_reserved;
    live_nodes += o.live_nodes;
    return *this;
  }
};

class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Adopt (shape, data) into a recycled node, or grow a new slot.  The
  /// returned node returns to the arena when its last reference drops.
  std::shared_ptr<TensorImpl> make_node(Shape shape, std::vector<float> data);

  /// Zero-filled data buffer of exactly `n` floats from the per-size
  /// free-list (bitwise-identical semantics to `std::vector<float>(n)`).
  std::vector<float> acquire(std::size_t n);
  /// Buffer initialized as a copy of [first, last): one pass instead of
  /// zero-fill + copy.
  std::vector<float> acquire_copy(const float* first, const float* last);
  /// Buffer of `n` floats whose contents are UNSPECIFIED (recycled as-is
  /// on a pool hit): the caller must overwrite every element before any
  /// read, or results become nondeterministic.
  std::vector<float> acquire_unfilled(std::size_t n);
  /// Return a buffer to the per-size free-list (keyed by size()).
  void release(std::vector<float>&& buf);

  /// Zero-filled scratch of `n` floats, capacity-fit from a small
  /// free-list (scratch sizes vary with chunking, so best-fit beats
  /// exact-size keying here).
  std::vector<float> acquire_scratch(std::size_t n);
  void release_scratch(std::vector<float>&& buf);
  std::vector<std::size_t> acquire_index_scratch(std::size_t n);
  void release_index_scratch(std::vector<std::size_t>&& buf);

  /// Per-request barrier: rewinds the slot scan cursor so the next pass
  /// re-walks slots in the same deterministic order.  Pools and slots
  /// stay warm — that is the point.
  void reset();

  /// Nodes currently referenced outside the arena (0 between requests
  /// unless a tensor escaped its scope).
  std::size_t live_nodes() const;

  /// Counter snapshot with bytes_reserved / live_nodes computed.
  ArenaStats stats() const;

 private:
  /// Push counter/gauge deltas since the last push into the process-wide
  /// obs registry (lmmir_arena_*).  Called from reset() — the per-request
  /// barrier — only when metrics are enabled, so the per-op hot path
  /// carries no instrumentation at all.
  void publish_metrics();

  std::vector<std::shared_ptr<TensorImpl>> slots_;
  std::size_t cursor_ = 0;  // round-robin free-slot scan position
  // Data-buffer free-lists keyed by element count (steady-state traffic
  // re-requests the exact sizes of the previous pass).
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> buffers_;
  std::vector<std::vector<float>> scratch_;
  std::vector<std::vector<std::size_t>> index_scratch_;
  ArenaStats stats_;
  ArenaStats pushed_;  // snapshot at the last publish_metrics()
};

/// RAII: installs `arena` as the calling thread's active arena for the
/// scope's lifetime (restores the previous one on exit; nesting is
/// fine).  Passing nullptr is a no-op scope.
class ArenaScope {
 public:
  explicit ArenaScope(TensorArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  TensorArena* saved_;
};

/// The calling thread's installed arena, or nullptr.
TensorArena* active_arena();

/// Process-wide default for creating arenas at all: LMMIR_TENSOR_ARENA
/// unset or non-zero enables, "0" disables.  Read once.
bool arena_enabled_from_env();

/// Worker-init hook for runtime::ThreadPool that gives each pool worker
/// its own TensorArena, installed as the worker's active arena for the
/// worker's lifetime — so op-internal scratch drawn inside fanned-out
/// kernel chunks (e.g. conv2d's im2col buffer) is pooled per worker
/// instead of heap-allocated per chunk.  The arena layer registers the
/// env-gated form of this hook as the pool's process default at startup
/// (the pool itself knows nothing about tensors); pass
/// `worker_arena_init(false)` — an empty hook — to force arenas off, or
/// `worker_arena_init(true)` to force them on regardless of
/// LMMIR_TENSOR_ARENA (A/B measurement runs).
runtime::WorkerInit worker_arena_init(bool enabled);

/// Observable variant for tests and telemetry: a registry that records
/// each worker's arena.  One registry serves ONE pool: keep it alive for
/// the pool's whole lifetime, do not reuse it for a second pool (the
/// hook refuses rather than free an arena a live worker still holds),
/// and read arenas only while the pool is quiescent (counters are
/// written by the owning worker).
class WorkerArenas {
 public:
  /// The init hook; creates one arena per worker and records it here.
  /// Captures `this` — the registry must outlive the pool using the hook.
  runtime::WorkerInit init();

  /// Worker `i`'s arena, or nullptr (never spawned / index out of range).
  TensorArena* arena(std::size_t worker) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TensorArena>> arenas_;  // indexed by worker
};

/// Zero-filled float buffer for data destined to become a tensor: drawn
/// from the active arena when the adoption conditions hold (arena
/// installed, grad mode off), plain heap otherwise.  Ops use this for
/// their output buffers so make_node can recycle them.
std::vector<float> arena_buffer(std::size_t n);

/// Same routing, initialized as a copy of [first, last) in a single pass
/// (for reshape/detach-style whole-buffer copies).
std::vector<float> arena_buffer_copy(const float* first, const float* last);

/// Same routing, contents UNSPECIFIED on the arena path (zero-filled on
/// the heap fallback): only for callers that overwrite every element
/// before any read, e.g. batch stacking.
std::vector<float> arena_buffer_overwrite(std::size_t n);

/// RAII op-internal scratch (e.g. the im2col buffer): pooled whenever an
/// arena is installed on the calling thread, regardless of grad mode —
/// scratch never carries semantics.  take() detaches the underlying
/// vector for autograd closures that outlive the call.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t n);
  ~ScratchBuffer();
  /// Moves keep the arena pairing (so buffers can live in a container).
  ScratchBuffer(ScratchBuffer&& other) noexcept
      : arena_(std::exchange(other.arena_, nullptr)),
        buf_(std::move(other.buf_)) {}
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  float& operator[](std::size_t i) { return buf_[i]; }
  float operator[](std::size_t i) const { return buf_[i]; }

  /// Detach the vector (ownership leaves the arena; the buffer is freed
  /// by whoever holds it, e.g. a backward closure).
  std::vector<float> take();

 private:
  TensorArena* arena_;
  std::vector<float> buf_;
};

/// Same, for index scratch (e.g. maxpool argmax).
class IndexScratchBuffer {
 public:
  explicit IndexScratchBuffer(std::size_t n);
  ~IndexScratchBuffer();
  IndexScratchBuffer(const IndexScratchBuffer&) = delete;
  IndexScratchBuffer& operator=(const IndexScratchBuffer&) = delete;

  std::size_t* data() { return buf_.data(); }
  const std::size_t* data() const { return buf_.data(); }
  std::size_t& operator[](std::size_t i) { return buf_[i]; }
  std::size_t operator[](std::size_t i) const { return buf_[i]; }

  std::vector<std::size_t> take();

 private:
  TensorArena* arena_;
  std::vector<std::size_t> buf_;
};

}  // namespace lmmir::tensor
