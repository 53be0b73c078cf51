#pragma once

#include "bench.hpp"

namespace stmbench {

WorkloadReport run_disjoint_update(const Options& opt);
WorkloadReport run_hashmap_mixed(const Options& opt);

}  // namespace stmbench
