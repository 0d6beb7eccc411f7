// Bump-pointer arena for short-lived, trivially-destructible records.
//
// The per-candidate hot paths (RootedTree construction during online
// admission Phase C, AuxOverlay realization in Appro_Multi) repeatedly
// build small scratch structures — adjacency arrays, edge-record buffers —
// whose lifetimes nest perfectly: allocate, use, discard, repeat. Routing
// them through the general-purpose heap costs an allocator round trip per
// structure per candidate. An Arena turns each allocation into a pointer
// bump against a block that is reused forever after warm-up.
//
// Lifetime rules (see docs/performance.md, "SP engine internals"):
//  * allocate()/make_span() return uninitialized storage valid until the
//    enclosing scope is rewound.
//  * ArenaScope is the intended API: mark on entry, rewind on exit (LIFO
//    nesting, exception-safe). Rewinding reclaims the bytes in O(1).
//  * If an allocation outgrows the live block, the block is retired (NOT
//    freed — outstanding pointers stay valid) and a larger one starts;
//    rewinding across a growth is a no-op, and retired blocks live as long
//    as the arena, i.e. as long as its thread.
//
// Thread model: an Arena is single-threaded, and there is one per thread:
// every call site takes thread_local_arena() (pool workers building
// RootedTrees in parallel, Appro_Multi realizing a candidate) and uses it
// through an ArenaScope, so nested call sites on one thread compose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace nfvm::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_capacity = kDefaultCapacity);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage of `bytes` bytes aligned to `align` (a power of
  /// two). Valid until the covering rewind().
  void* allocate(std::size_t bytes, std::size_t align);

  /// Typed span of `count` uninitialized T slots. T must be trivially
  /// destructible (the arena never runs destructors).
  template <typename T>
  std::span<T> make_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is reclaimed without destructors");
    T* data = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    return {data, count};
  }

  /// Position marker for LIFO rewinding (see ArenaScope).
  struct Marker {
    std::uint64_t block_generation = 0;
    std::size_t used = 0;
  };
  Marker mark() const noexcept { return Marker{block_generation_, used_}; }

  /// Reclaims everything allocated since `m` — O(1). If the arena grew a
  /// new block since the mark, the rewind is a no-op: pointers into the
  /// retired block stay valid.
  void rewind(Marker m) noexcept {
    if (m.block_generation == block_generation_) used_ = m.used;
  }

  /// Per-thread arena for call sites without a natural owner (e.g.
  /// RootedTree scratch inside ThreadPool workers). Confine use to
  /// ArenaScope so independent call sites on one thread compose.
  static Arena& thread_local_arena();

  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

 private:
  std::vector<std::byte> block_;
  std::size_t used_ = 0;
  std::uint64_t block_generation_ = 0;
  /// Outgrown blocks, kept alive so pointers into them stay valid.
  std::vector<std::vector<std::byte>> retired_;
};

/// RAII mark/rewind pair. Scopes must nest LIFO (stack order), which
/// C++ scoping enforces for automatic storage.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), marker_(arena.mark()) {}
  ~ArenaScope() { arena_->rewind(marker_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  Arena& arena() noexcept { return *arena_; }

 private:
  Arena* arena_;
  Arena::Marker marker_;
};

}  // namespace nfvm::util
