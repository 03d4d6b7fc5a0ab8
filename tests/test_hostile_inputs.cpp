// Hostile text through every layer that reads it. Each registry knob gets
// the hostile texts of its kind on the command line, in its ADATTL_*
// variable and in a scenario file; each field of a colon-packed spec gets
// them in turn, and each spec a missing and an extra field; fault and
// trace files get the same texts, and the file knobs a missing path.
//
// A resolve builds no site. It must return or throw std::invalid_argument
// or std::runtime_error. A text is accepted or rejected alike in every
// layer, and a text its field's grammar does not read is rejected in every
// field of that kind with the text in the message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "experiment/param_registry.h"

namespace adattl::experiment {
namespace {

enum class Kind { kNumber, kInt, kUint, kBool };

const std::vector<std::string> kHostile = {
    "nan", "inf", "-inf", "-1",   "0",   "1e-300", "1e300", "4000000000",
    "2.0", "1e3", "0x10", " 4",   "4 ",  "junk",   ""};

/// The hostile texts each grammar reads (sim/text.h), written out here so
/// the test does not lean on the code it checks. kInt is 32 bits.
bool grammar_reads(Kind kind, const std::string& t) {
  switch (kind) {
    case Kind::kNumber:
      return !(t.empty() || t == " 4" || t == "4 " || t == "junk" || t == "yes");
    case Kind::kInt: return t == "-1" || t == "0";
    case Kind::kUint: return t == "0" || t == "4000000000";
    case Kind::kBool: return t == "0";
  }
  return false;
}

/// A field of a colon-packed spec, by its name in the knob's hint.
Kind field_kind(const std::string& name) {
  return name == "DOMAIN" || name == "SERVER" ? Kind::kInt : Kind::kNumber;
}

/// A valid value for each colon-packed spec.
const std::map<std::string, std::string> kSpecBase = {
    {"shift", "600:3:5"},     {"trace-point", "900:4:2.5"}, {"crash", "900:60:2"},
    {"degrade", "900:60:1:0.5"}, {"pause", "100:50:3"},     {"dns-outage", "1000:120"},
    {"scale-up", "500:2"},    {"scale-down", "700:3"},      {"resize", "800:1:1.5"}};

// The test's own split, join and trim, kept apart from sim/text.h for the
// same reason.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += sep;
    out += fields[i];
  }
  return out;
}

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  return s.substr(a, s.find_last_not_of(" \t\r") - a + 1);
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

struct Outcome {
  bool accepted = false;
  std::string message;
};

Outcome resolve(const std::vector<std::string>& args) {
  try {
    ParamRegistry::instance().resolve(args);
    return {true, ""};
  } catch (const std::invalid_argument& e) {
    return {false, e.what()};
  } catch (const std::runtime_error& e) {
    return {false, e.what()};
  } catch (const std::exception& e) {
    ADD_FAILURE() << join(args, ' ') << ": threw " << typeid(e).name() << ": " << e.what();
    return {false, e.what()};
  }
}

/// One knob value holding one hostile text, plus the flags it needs.
struct Case {
  std::string knob;
  std::string value;
  std::string text;  ///< the hostile field; all of `value` when the shape is wrong
  bool read;         ///< whether the field's grammar reads `text`
  std::vector<std::string> rest;
};

class HostileInputs : public ::testing::Test {
 protected:
  // Every registry-bound variable is cleared for the test and restored after.
  void SetUp() override {
    for (const ParamSpec& spec : ParamRegistry::instance().specs()) {
      if (spec.env.empty()) continue;
      if (const char* v = std::getenv(spec.env.c_str())) saved_[spec.env] = v;
      ::unsetenv(spec.env.c_str());
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) ::setenv(name.c_str(), value.c_str(), 1);
  }

  static std::vector<std::string> with(std::string arg, std::vector<std::string> rest) {
    rest.insert(rest.begin(), std::move(arg));
    return rest;
  }

  /// A rejection the grammar owes names the text.
  static void expect_rejected(const Outcome& o, const Case& c, const std::string& layer) {
    EXPECT_FALSE(o.accepted) << layer << " accepted --" << c.knob << "='" << c.value << "'";
    EXPECT_NE(o.message.find(c.text), std::string::npos)
        << layer << " --" << c.knob << "='" << c.value << "': " << o.message;
  }

  void check(const ParamSpec& spec, const Case& c) {
    const std::string at = "--" + c.knob + "='" + c.value + "'";
    const Outcome cli = resolve(with("--" + c.knob + "=" + c.value, c.rest));
    if (!c.read) expect_rejected(cli, c, "the command line");

    // An empty variable counts as unset.
    if (!spec.env.empty() && !c.value.empty()) {
      ::setenv(spec.env.c_str(), c.value.c_str(), 1);
      const Outcome env = resolve(c.rest);
      ::unsetenv(spec.env.c_str());
      EXPECT_EQ(env.accepted, cli.accepted) << spec.env << " vs " << at << ": " << env.message;
      if (!c.read) expect_rejected(env, c, spec.env);
    }

    // A file's line reader trims the value it hands over.
    const bool survives_trim = trim(c.value) == c.value;
    const Outcome trimmed =
        survives_trim ? cli : resolve(with("--" + c.knob + "=" + trim(c.value), c.rest));
    const std::string scenario =
        write_temp("adattl_hostile.scenario", c.knob + " = " + c.value + "\n");
    const Outcome file = resolve(with("--config=" + scenario, c.rest));
    EXPECT_EQ(file.accepted, trimmed.accepted)
        << "scenario line for " << at << ": " << file.message;
    if (!c.read && survives_trim) expect_rejected(file, c, "a scenario file");
    std::remove(scenario.c_str());

    if (spec.group == "faults" && kSpecBase.count(spec.name) != 0) {
      const std::string faults =
          write_temp("adattl_hostile.faults", c.knob + " = " + c.value + "\n");
      const Outcome fault_file = resolve(with("--faults=" + faults, c.rest));
      EXPECT_EQ(fault_file.accepted, trimmed.accepted)
          << "fault file line for " << at << ": " << fault_file.message;
      if (!c.read && survives_trim) expect_rejected(fault_file, c, "a fault file");
      std::remove(faults.c_str());
    }
    if (c.knob == "trace-point") {
      // The CSV row of the same fields, each trimmed by the CSV reader.
      std::vector<std::string> fields = split(c.value, ':');
      const std::string csv = write_temp("adattl_hostile.csv", join(fields, ',') + "\n");
      for (std::string& f : fields) f = trim(f);
      const Outcome expect = resolve(with("--trace-point=" + join(fields, ':'), c.rest));
      const Outcome trace_file = resolve(with("--workload-trace=" + csv, c.rest));
      EXPECT_EQ(trace_file.accepted, expect.accepted)
          << "trace row for " << at << ": " << trace_file.message;
      if (!c.read && trim(c.text) == c.text) {
        expect_rejected(trace_file, {c.knob, c.value, join(split(c.text, ':'), ','), false, {}},
                        "a trace file");
      }
      std::remove(csv.c_str());
    }
  }

  std::map<std::string, std::string> saved_;
};

TEST_F(HostileInputs, EveryKnobReadsEveryTextAlikeInEveryLayer) {
  int cases = 0;
  for (const ParamSpec& spec : ParamRegistry::instance().specs()) {
    const auto run = [&](const Case& c) {
      check(spec, c);
      ++cases;
    };
    switch (spec.kind) {
      case ParamKind::kBool:
        for (const std::string& t : kHostile) {
          run({spec.name, t, t, grammar_reads(Kind::kBool, t), {}});
        }
        for (const std::string t : {"yes", "2"}) run({spec.name, t, t, false, {}});
        break;
      case ParamKind::kInt:
      case ParamKind::kUint:
      case ParamKind::kDouble: {
        const Kind kind = spec.kind == ParamKind::kInt    ? Kind::kInt
                          : spec.kind == ParamKind::kUint ? Kind::kUint
                                                          : Kind::kNumber;
        for (const std::string& t : kHostile) run({spec.name, t, t, grammar_reads(kind, t), {}});
        break;
      }
      case ParamKind::kDoubleList:
        for (const std::string& t : kHostile) {
          const bool read = grammar_reads(Kind::kNumber, t);
          run({spec.name, t, t, read, {}});
          run({spec.name, "1," + t, t, read, {}});
        }
        break;
      case ParamKind::kString:
        // The numbers inside policy names: COST(ALPHA), COSTCAP(SEC) and a
        // TTL class count.
        if (spec.name != "policy") break;
        for (const std::string& t : kHostile) {
          const bool number = grammar_reads(Kind::kNumber, t);
          run({spec.name, "COST(" + t + ")-TTL/K", t, number, {"--geo-regions=3"}});
          run({spec.name, "COSTCAP(" + t + ")", t, number, {"--geo-regions=3"}});
          run({spec.name, "PRR-TTL/" + t, t, grammar_reads(Kind::kInt, t), {}});
        }
        break;
      case ParamKind::kSpecList: {
        const auto base = kSpecBase.find(spec.name);
        if (base == kSpecBase.end()) break;  // the file knobs: see MissingFiles
        const std::vector<std::string> shape = split(spec.hint, ':');
        const std::vector<std::string> fields = split(base->second, ':');
        ASSERT_EQ(shape.size(), fields.size()) << spec.name;
        for (std::size_t i = 0; i < fields.size(); ++i) {
          for (const std::string& t : kHostile) {
            std::vector<std::string> f = fields;
            f[i] = t;
            run({spec.name, join(f, ':'), t, grammar_reads(field_kind(shape[i]), t), {}});
          }
        }
        const std::vector<std::string> missing(fields.begin(), fields.end() - 1);
        run({spec.name, join(missing, ':'), join(missing, ':'), false, {}});
        run({spec.name, base->second + ":1", base->second + ":1", false, {}});
        break;
      }
    }
  }
  EXPECT_GT(cases, 1000);
}

TEST_F(HostileInputs, MissingFilesAreRejectedByName) {
  const std::string missing = ::testing::TempDir() + "/adattl_no_such_dir/none";
  for (const std::string knob : {"config", "faults", "workload-trace"}) {
    const Outcome cli = resolve({"--" + knob + "=" + missing});
    EXPECT_FALSE(cli.accepted) << knob;
    EXPECT_NE(cli.message.find(missing), std::string::npos) << knob << ": " << cli.message;
    if (knob == "config") continue;
    const std::string scenario =
        write_temp("adattl_hostile_missing.scenario", knob + " = " + missing + "\n");
    const Outcome file = resolve({"--config=" + scenario});
    std::remove(scenario.c_str());
    EXPECT_FALSE(file.accepted) << knob;
    EXPECT_NE(file.message.find(missing), std::string::npos) << knob << ": " << file.message;
  }
}

}  // namespace
}  // namespace adattl::experiment
