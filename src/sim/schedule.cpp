#include "sim/schedule.hpp"

namespace san {

const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kFifo:
      return "fifo";
    case SchedulePolicy::kLocality:
      return "locality";
  }
  return "?";
}

void ScheduleConfig::validate() const {
  if (window < 1) throw TreeError("ScheduleConfig: window must be >= 1");
}

}  // namespace san
