#include "experiment/scenario_file.h"

#include "sim/text.h"

namespace adattl::experiment {

std::vector<std::string> scenario_text_to_args(const std::string& text) {
  // Every line becomes "--key=value" verbatim; the parameter registry owns
  // key lookup, typing (including booleans — `key = false` genuinely
  // switches a default-on knob off) and did-you-mean diagnostics for
  // unknown keys.
  std::vector<std::string> args;
  for (const text::KeyValue& kv : text::key_values(text, "scenario")) {
    args.push_back("--" + kv.key + "=" + kv.value);
  }
  return args;
}

std::vector<std::string> load_scenario_file(const std::string& path) {
  return scenario_text_to_args(text::read_file(path, "scenario file"));
}

}  // namespace adattl::experiment
