#include "util/arena.h"

#include <algorithm>
#include <utility>

namespace nfvm::util {

Arena::Arena(std::size_t initial_capacity) { block_.resize(initial_capacity); }

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  std::size_t offset = (used_ + align - 1) & ~(align - 1);
  if (offset + bytes > block_.size()) {
    // Outgrown: retire the live block (outstanding pointers stay valid
    // until reset) and start a bigger one. Doubling amortizes to O(1)
    // growths per epoch; after warm-up this path never runs.
    const std::size_t next_size =
        std::max(block_.size() * 2, offset + bytes + align);
    retired_.push_back(std::move(block_));
    block_.clear();
    block_.resize(next_size);
    used_ = 0;
    ++block_generation_;
    offset = 0;
  }
  used_ = offset + bytes;
  return block_.data() + offset;
}

Arena& Arena::thread_local_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace nfvm::util
