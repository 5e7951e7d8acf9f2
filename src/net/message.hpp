// Message and node-id types shared by the network, communication
// structures and RM daemons.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/inplace_any.hpp"

namespace eslurm::net {

/// Dense node index; node 0..n-1 are cluster members.  The RM layer
/// assigns roles (master / satellite / compute) on top of these ids.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

/// Application-level message tag.  Ranges are reserved per subsystem so
/// multiple protocols can coexist on one node's inbox:
///   0-99    network internal
///   100-199 communication structures (comm)
///   200-299 resource-manager control traffic (rm)
///   300-399 user-facing RPC front-end (frontend)
using MessageType = int;

/// First type of the dynamically-allocated range handed out by
/// Network::alloc_message_types (the comm structures' 100-199 block).
inline constexpr MessageType kDynamicTypeBase = 100;

/// Inline body budget: the control-plane bodies (tree relay/completion,
/// RM task, RPC request ...) are a few ids and fit; larger or
/// non-trivially-copyable bodies take one heap allocation.
inline constexpr std::size_t kMessageInlineBytes = 32;

struct Message {
  MessageType type = 0;
  NodeId src = kNoNode;
  std::size_t bytes = 256;   ///< serialized size driving the link model
  util::InplaceAny<kMessageInlineBytes> payload;  ///< typed body, owned by the message

  template <typename T>
  const T& body() const { return payload.get<T>(); }
};
static_assert(sizeof(Message) == 56, "a 16-byte header plus the inline body");

}  // namespace eslurm::net
