#include "bmp/runtime/event.hpp"

#include <stdexcept>

namespace bmp::runtime {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kChannelOpen: return "channel_open";
    case EventType::kChannelClose: return "channel_close";
    case EventType::kNodeJoin: return "node_join";
    case EventType::kNodeLeave: return "node_leave";
    case EventType::kRenegotiate: return "renegotiate";
    case EventType::kDegrade: return "degrade";
    case EventType::kFault: return "fault";
  }
  throw std::invalid_argument("unknown event type");
}

const char* to_string(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kCrash: return "crash";
    case FaultAction::Kind::kPartitionStart: return "partition_start";
    case FaultAction::Kind::kPartitionHeal: return "partition_heal";
    case FaultAction::Kind::kCorruptStart: return "corrupt_start";
    case FaultAction::Kind::kCorruptEnd: return "corrupt_end";
    case FaultAction::Kind::kBlackoutStart: return "blackout_start";
    case FaultAction::Kind::kBlackoutEnd: return "blackout_end";
    case FaultAction::Kind::kPlannerOutageStart: return "planner_outage_start";
    case FaultAction::Kind::kPlannerOutageEnd: return "planner_outage_end";
  }
  throw std::invalid_argument("unknown fault kind");
}

}  // namespace bmp::runtime
