#include "smst/runtime/frame_pool.h"

#include <sanitizer/asan_interface.h>

#include <new>

namespace smst {

namespace {

constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

// Precedes every frame, pooled or not; 16 bytes keeps the frame itself
// aligned for any fundamental type, as operator new must.
struct alignas(16) BlockHeader {
  FramePool* owner;  // null: global operator new
};
constexpr std::size_t kHeaderBytes = sizeof(BlockHeader);

constexpr std::size_t BucketOf(std::size_t block_bytes) {
  return (block_bytes - 1) / FramePool::kGranularity;
}

thread_local FramePool* t_current = nullptr;

}  // namespace

FramePool::~FramePool() {
  while (char* slab = slabs_) {
    ASAN_UNPOISON_MEMORY_REGION(slab, kSlabBytes);
    slabs_ = *reinterpret_cast<char**>(slab);
    ::operator delete(slab);
  }
}

FramePool::Scope::Scope(FramePool& pool) : saved_(t_current) {
  t_current = &pool;
}

FramePool::Scope::~Scope() { t_current = saved_; }

void* FramePool::Take(std::size_t bucket) {
  const std::size_t block = (bucket + 1) * kGranularity;
  if (FreeBlock* head = heads_[bucket]) {
    ASAN_UNPOISON_MEMORY_REGION(head, block);
    heads_[bucket] = head->next;
    return head;
  }
  if (static_cast<std::size_t>(end_ - cur_) < block) {
    // A slab's first header-sized bytes link it to the previous slab.
    char* slab = static_cast<char*>(::operator new(kSlabBytes));
    *reinterpret_cast<char**>(slab) = slabs_;
    slabs_ = slab;
    cur_ = slab + kHeaderBytes;
    end_ = slab + kSlabBytes;
  }
  void* p = cur_;
  cur_ += block;
  ++fresh_blocks_;
  return p;
}

void FramePool::Give(void* block, std::size_t bucket) noexcept {
  FreeBlock* b = static_cast<FreeBlock*>(block);
  b->next = heads_[bucket];
  heads_[bucket] = b;
  ASAN_POISON_MEMORY_REGION(b, (bucket + 1) * kGranularity);
}

void* FrameAllocate(std::size_t bytes) {
  const std::size_t total = bytes + kHeaderBytes;
  FramePool* pool = t_current;
  void* block;
  if (pool != nullptr && total <= FramePool::kMaxPooledBytes) {
    block = pool->Take(BucketOf(total));
  } else {
    pool = nullptr;
    block = ::operator new(total);
  }
  static_cast<BlockHeader*>(block)->owner = pool;
  return static_cast<char*>(block) + kHeaderBytes;
}

void FrameDeallocate(void* p, std::size_t bytes) noexcept {
  void* block = static_cast<char*>(p) - kHeaderBytes;
  const std::size_t total = bytes + kHeaderBytes;
  if (FramePool* owner = static_cast<BlockHeader*>(block)->owner) {
    owner->Give(block, BucketOf(total));
  } else {
    ::operator delete(block, total);
  }
}

std::uint64_t CurrentFramePoolFreshBlocks() {
  return t_current != nullptr ? t_current->FreshBlocks() : 0;
}

}  // namespace smst
