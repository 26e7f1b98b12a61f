#include "sim/congest.hpp"

#include <cstdlib>

#include "util/assert.hpp"

namespace fl::sim {

CongestConfig default_congest_config() {
  CongestConfig cfg;
  const char* env = std::getenv("FL_SIM_CONGEST");
  if (env == nullptr || *env == '\0') return cfg;
  // Digits only up front: strtoull would happily wrap "-5" into a huge
  // "valid" budget, silently ignoring what the user asked for.
  FL_REQUIRE(*env >= '0' && *env <= '9',
             "FL_SIM_CONGEST must start with a positive word budget");
  char* end = nullptr;
  const unsigned long long words = std::strtoull(env, &end, 10);
  FL_REQUIRE(end != env && words >= 1,
             "FL_SIM_CONGEST must start with a positive word budget");
  FL_REQUIRE(words < CongestConfig::kUnlimited,
             "FL_SIM_CONGEST budget out of range");
  FL_REQUIRE(*end == '\0', "FL_SIM_CONGEST must be '<words>'");
  cfg.words_per_edge_per_round = words;
  return cfg;
}

}  // namespace fl::sim
