#pragma once

// Socket-free replays: a workload's own inputs timed through one layer's
// public functions, outside any measured interval of the workload.

#include <cstdint>
#include <string>
#include <vector>

#include "core/alarm_registry.h"
#include "core/policy_factory.h"
#include "web/types.h"

namespace perfbench {

/// Mean ns per DnsScheduler::schedule over `sequence` (repeated to about
/// 300k decisions), through the scheduler make_scheduler builds for
/// `policy` from `fc` and `alarms`.
double replay_schedule(const std::string& policy, const adattl::core::SchedulerFactoryConfig& fc,
                       const adattl::core::AlarmRegistry& alarms,
                       const std::vector<adattl::web::DomainId>& sequence, std::uint64_t seed);

}  // namespace perfbench
