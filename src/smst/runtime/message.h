// CONGEST messages.
//
// The model allows O(log n)-bit messages per edge per round. We represent
// a message as a small tagged record (a type tag plus three 64-bit
// fields); BitSize() reports the information content actually used so
// tests can assert the O(log n) budget. Field values are IDs, levels,
// weights, counts — all poly(n), i.e. O(log n) bits each.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "smst/graph/graph.h"
#include "smst/util/small_vec.h"

namespace smst {

// The synchronous round clock. Real awake rounds are >= 1; kMaxRound
// stands for "never" (no pending wake, no crash).
using Round = std::uint64_t;
inline constexpr Round kMaxRound = ~Round{0};

// Sentinel weight values used by the deterministic algorithm's validity
// echo (the paper's ±infinity). They sit outside the generator weight
// range, and compare correctly as uint64s.
inline constexpr std::uint64_t kMinusInfinity = 0;
inline constexpr std::uint64_t kPlusInfinity = ~std::uint64_t{0};

struct Message {
  std::uint16_t type = 0;  // algorithm-defined tag
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  // Bits needed to encode this message: tag byte + the occupied widths.
  // (An exact wire format would add field delimiters; this is the
  // standard information-theoretic accounting used for CONGEST.)
  std::uint32_t BitSize() const {
    auto width = [](std::uint64_t v) -> std::uint32_t {
      return v == 0 ? 1u : static_cast<std::uint32_t>(std::bit_width(v));
    };
    return 8u + width(a) + width(b) + width(c);
  }

  friend bool operator==(const Message&, const Message&) = default;
};

// A message queued for sending, addressed by local port number (CONGEST
// nodes address neighbors only through ports).
struct OutMessage {
  std::uint32_t port = 0;
  Message msg;
};

// A received message, tagged with the local port it arrived on.
struct InMessage {
  std::uint32_t port = 0;
  Message msg;
};

// Per-awake message batches. Typical degrees in the model workloads are
// small, so batches of up to kInlineMessageCapacity messages live inside
// the coroutine frame and never touch the heap; larger batches (high-
// degree nodes) fall back to a heap buffer transparently.
inline constexpr std::size_t kInlineMessageCapacity = 4;
using SendBatch = SmallVec<OutMessage, kInlineMessageCapacity>;
using InboxBatch = SmallVec<InMessage, kInlineMessageCapacity>;

// One routed message with its canonical identity: (birth_round, src,
// batch_pos, copy) is the round it was sent in, its sender, its position
// in the sender's send batch, and 0/1 for original versus adversary
// duplicate. `due` = 0 means fresh (deliver in the current round iff the
// receiver is awake); otherwise it is the absolute round an adversary-
// delayed message falls due. The round core parks delayed messages in a
// heap ordered by (due, identity), and the sharded engine's outboxes
// carry cross-shard messages in this form, so drain order is a function
// of the messages alone, never of which shard parked them (DESIGN.md
// §12).
struct WireEntry {
  NodeIndex src = kInvalidNode;
  NodeIndex dst = kInvalidNode;
  std::uint32_t dst_port = 0;
  std::uint32_t batch_pos = 0;
  Round due = 0;
  Round birth_round = 0;
  std::uint8_t copy = 0;
  Message msg;
};

}  // namespace smst
