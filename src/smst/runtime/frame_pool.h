// Size-bucketed recycling pool for coroutine frames, owned by one run.
//
// Every `co_await`ed sub-procedure (Task<T>) allocates one coroutine
// frame; a single MST run performs millions of such awaits, and the
// frames come in a handful of distinct sizes (one per coroutine
// function). Task's promise-level operator new/delete route frames
// through FrameAllocate/FrameDeallocate, which recycle them through the
// run's pool: per-size free lists, so after a brief warm-up the run's
// awake path performs zero heap allocations for frames.
//
// A CoroutineProgram owns one pool (one per serial run, one per shard)
// and installs it as the thread's current pool (FramePool::Scope) while
// it spawns and resumes frames. Frames made with no current pool (a bare
// TaskRunner outside any run) use global operator new/delete. Every
// block begins with a header naming its pool, so a frame returns to its
// own pool whichever thread releases it: a sharded run builds a shard's
// frames on its worker and destroys them on the calling thread after the
// join. A pool is single-threaded and frees its slabs when destroyed, so
// it must outlive every frame it served.
//
// Free blocks are poisoned for AddressSanitizer (a no-op in other
// builds), so an ASan build reports a recycled frame being touched.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smst {

class FramePool {
 public:
  // Blocks (frame plus header) come in 64-byte size classes; anything
  // above 8 KiB bypasses the pool. The largest frame in this codebase is
  // the randomized-MST NodeMain at ~4.7 KiB, so the cap leaves ~2x room.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooledBytes = 8192;
  static constexpr std::size_t kNumBuckets = kMaxPooledBytes / kGranularity;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();

  // Makes `pool` the calling thread's current pool for this scope's
  // lifetime, then restores the previous one (usually none).
  class Scope {
   public:
    explicit Scope(FramePool& pool);
    ~Scope();

   private:
    FramePool* saved_;
  };

  // Blocks carved fresh from a slab so far (the rest were recycled).
  std::uint64_t FreshBlocks() const { return fresh_blocks_; }

 private:
  friend void* FrameAllocate(std::size_t bytes);
  friend void FrameDeallocate(void* p, std::size_t bytes) noexcept;

  struct FreeBlock {
    FreeBlock* next;
  };

  void* Take(std::size_t bucket);
  void Give(void* block, std::size_t bucket) noexcept;

  FreeBlock* heads_[kNumBuckets] = {};
  // Fresh blocks are carved from 1 MiB slabs: spawning 10^6 node frames
  // one malloc each takes seconds on a worker thread whose malloc arena
  // grows in small syscall-metered steps.
  char* cur_ = nullptr;
  char* end_ = nullptr;
  char* slabs_ = nullptr;  // newest slab; each links to the one before
  std::uint64_t fresh_blocks_ = 0;
};

// Allocates a frame of `bytes` bytes from the calling thread's current
// pool, or from global operator new outside any run or beyond the pooled
// size range.
void* FrameAllocate(std::size_t bytes);

// Returns a frame obtained from FrameAllocate to where it came from.
// `bytes` must be the allocation size (coroutine deallocation is sized,
// so the bucket is recomputed instead of stored per block).
void FrameDeallocate(void* p, std::size_t bytes) noexcept;

// FreshBlocks() of the calling thread's current pool (0 outside a run).
std::uint64_t CurrentFramePoolFreshBlocks();

}  // namespace smst
