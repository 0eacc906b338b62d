#include "common/metrics.h"

namespace seve {

void ChannelStats::Merge(const ChannelStats& other) {
  MergeFields(kChannelFields, this, other);
}

void FanoutCounters::Merge(const FanoutCounters& other) {
  MergeFields(kFanoutFields, this, other);
}

void SyncCounters::Merge(const SyncCounters& other) {
  MergeFields(kSyncFields, this, other);
}

void ProtocolStats::Merge(const ProtocolStats& other) {
  MergeFields(kProtocolFields, this, other);
  closure_size.Merge(other.closure_size);
  response_time_us.Merge(other.response_time_us);
  channel.Merge(other.channel);
  fanout.Merge(other.fanout);
  sync.Merge(other.sync);
}

}  // namespace seve
