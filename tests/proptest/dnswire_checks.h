#pragma once

// Shared contract machinery for the dnswire fuzzer and the committed
// regression corpus: a ready-made DnsFrontend harness, the full
// handle()-contract checker both suites assert, and the corpus file
// format (hex bytes + an optional "# expect:" outcome directive).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "dnswire/frontend.h"
#include "dnswire/message.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace adattl::proptest {

/// A scheduler + DnsFrontend pair with a known site name and address set.
class FrontendHarness {
 public:
  explicit FrontendHarness(std::uint64_t seed, std::string site_name = "www.site.org",
                           int servers = 4, int domains = 8)
      : rng_(seed), site_name_(std::move(site_name)), alarms_(servers, 0.9) {
    core::SchedulerFactoryConfig fc;
    fc.capacities.assign(static_cast<std::size_t>(servers), 100.0);
    fc.initial_weights.assign(static_cast<std::size_t>(domains), 1.0);
    fc.class_threshold = 1.0 / domains;
    bundle_ = core::make_scheduler("RR2-TTL/K", fc, alarms_, simulator_, rng_);
    for (int s = 0; s < servers; ++s) {
      addresses_.push_back(0x0a000001u + static_cast<std::uint32_t>(s));
    }
    frontend_ = std::make_unique<dnswire::DnsFrontend>(*bundle_.scheduler, site_name_,
                                                       addresses_);
  }

  dnswire::DnsFrontend& frontend() { return *frontend_; }
  core::DnsScheduler& scheduler() { return *bundle_.scheduler; }
  const std::string& site_name() const { return site_name_; }
  const std::vector<std::uint32_t>& addresses() const { return addresses_; }
  int num_domains() const { return static_cast<int>(bundle_.domains->num_domains()); }

 private:
  sim::Simulator simulator_;
  sim::RngStream rng_;
  std::string site_name_;
  core::AlarmRegistry alarms_;
  core::SchedulerBundle bundle_;
  std::vector<std::uint32_t> addresses_;
  std::unique_ptr<dnswire::DnsFrontend> frontend_;
};

/// Feeds one datagram through handle() and asserts the whole contract:
///  * exactly one of answered/refused advances per call;
///  * an empty reply (drop) happens only when the id is unrecoverable
///    (input shorter than 2 bytes);
///  * every non-empty reply decodes as a well-formed response, has QR set,
///    and echoes the query id from the raw input bytes;
///  * rcode 0 replies carry a known server address and TTL >= 1 and
///    consume exactly one scheduling decision; every other rcode consumes
///    none.
/// The reply is copied to `reply_out` when the caller wants to assert an
/// expected outcome on top.
inline void check_frontend_contract(FrontendHarness& h, const std::vector<std::uint8_t>& input,
                                    web::DomainId source_domain = 0,
                                    std::vector<std::uint8_t>* reply_out = nullptr) {
  dnswire::DnsFrontend& f = h.frontend();
  const std::uint64_t answered0 = f.answered();
  const std::uint64_t refused0 = f.refused();
  const std::uint64_t decisions0 = h.scheduler().decisions();

  std::vector<std::uint8_t> reply;
  f.handle(input, source_domain, &reply);
  if (reply_out != nullptr) *reply_out = reply;

  const std::uint64_t moved = (f.answered() - answered0) + (f.refused() - refused0);
  ASSERT_EQ(moved, 1u) << "every datagram is counted exactly once";

  if (reply.empty()) {
    ASSERT_LT(input.size(), 2u) << "a readable id must never be silently dropped";
    ASSERT_EQ(f.refused(), refused0 + 1);
    ASSERT_EQ(h.scheduler().decisions(), decisions0);
    return;
  }

  dnswire::Header rh;
  std::uint32_t ipv4 = 0;
  dnswire::Ipv6 ipv6{};
  std::uint32_t ttl = 0;
  // Positive answers come back as either record family; error replies
  // (ancount 0) decode through either path.
  const bool is_a = dnswire::decode_a_response(reply, &rh, &ipv4, &ttl);
  if (!is_a) {
    ASSERT_TRUE(dnswire::decode_aaaa_response(reply, &rh, &ipv6, &ttl))
        << "every reply must itself be well-formed";
  }
  ASSERT_TRUE(rh.qr);
  ASSERT_GE(input.size(), 2u);
  const auto qid = static_cast<std::uint16_t>((input[0] << 8) | input[1]);
  ASSERT_EQ(rh.id, qid) << "replies echo the query id from the raw bytes";

  if (rh.rcode == dnswire::kRcodeNoError) {
    ASSERT_EQ(f.answered(), answered0 + 1);
    ASSERT_EQ(h.scheduler().decisions(), decisions0 + 1)
        << "positive answers consume exactly one decision";
    ASSERT_GE(ttl, 1u);
    const auto& addrs = h.addresses();
    if (is_a) {
      ASSERT_NE(std::find(addrs.begin(), addrs.end(), ipv4), addrs.end())
          << "answers only ever point at real servers";
    } else {
      // AAAA without native v6 configured: the v4-mapped form of a real
      // server address.
      const bool known = std::any_of(addrs.begin(), addrs.end(), [&](std::uint32_t a) {
        return dnswire::v4_mapped_ipv6(a) == ipv6;
      });
      ASSERT_TRUE(known) << "AAAA answers only ever point at real servers";
    }
  } else {
    ASSERT_EQ(f.answered(), answered0);
    ASSERT_EQ(h.scheduler().decisions(), decisions0)
        << "errors and outages never consume decisions";
    ASSERT_LE(rh.rcode, dnswire::kRcodeRefused);
  }
}

/// One committed regression input: the raw datagram plus the outcome the
/// fixed defect is pinned to ("drop", "noerror", "formerr", "servfail",
/// "nxdomain", "notimp", "refused"). `expect_ecs` additionally pins what
/// the EDNS0 Client-Subnet scanner must conclude ("absent", "present",
/// "malformed") for inputs that target the ECS parser.
struct CorpusEntry {
  std::string path;
  std::vector<std::uint8_t> bytes;
  std::optional<std::string> expect;
  std::optional<std::string> expect_ecs;
};

/// Parses one corpus file: whitespace-separated hex byte tokens, '#'
/// comments to end of line, and an optional "# expect: <outcome>"
/// directive. Gtest-fails (and returns nullopt) on malformed files so a
/// bad commit cannot silently shrink coverage.
inline std::optional<CorpusEntry> load_corpus_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open corpus file " << path;
    return std::nullopt;
  }
  CorpusEntry entry;
  entry.path = path;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      const std::string comment = line.substr(hash + 1);
      const std::size_t tag = comment.find("expect:");
      if (tag != std::string::npos) {
        std::istringstream expect_in(comment.substr(tag + 7));
        std::string outcome;
        expect_in >> outcome;
        if (!outcome.empty()) entry.expect = outcome;
      }
      const std::size_t ecs_tag = comment.find("ecs:");
      if (ecs_tag != std::string::npos) {
        std::istringstream ecs_in(comment.substr(ecs_tag + 4));
        std::string verdict;
        ecs_in >> verdict;
        if (!verdict.empty()) entry.expect_ecs = verdict;
      }
      line = line.substr(0, hash);
    }
    std::istringstream tokens(line);
    std::string tok;
    while (tokens >> tok) {
      if (tok.size() % 2 != 0) {
        ADD_FAILURE() << path << ": odd-length hex token '" << tok << "'";
        return std::nullopt;
      }
      for (std::size_t i = 0; i < tok.size(); i += 2) {
        const std::string byte = tok.substr(i, 2);
        char* end = nullptr;
        const unsigned long v = std::strtoul(byte.c_str(), &end, 16);
        if (end != byte.c_str() + 2) {
          ADD_FAILURE() << path << ": bad hex byte '" << byte << "'";
          return std::nullopt;
        }
        entry.bytes.push_back(static_cast<std::uint8_t>(v));
      }
    }
  }
  return entry;
}

/// All corpus files (sorted for stable test order) from the directory
/// compiled in via ADATTL_CORPUS_DIR.
inline std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(ADATTL_CORPUS_DIR)) {
    if (e.is_regular_file() && e.path().extension() == ".hex") {
      files.push_back(e.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Maps a reply to its corpus outcome word.
inline std::string reply_outcome(const std::vector<std::uint8_t>& reply) {
  if (reply.empty()) return "drop";
  dnswire::Header rh;
  std::uint32_t ipv4 = 0;
  dnswire::Ipv6 ipv6{};
  std::uint32_t ttl = 0;
  if (!dnswire::decode_a_response(reply, &rh, &ipv4, &ttl) &&
      !dnswire::decode_aaaa_response(reply, &rh, &ipv6, &ttl)) {
    return "malformed";
  }
  switch (rh.rcode) {
    case dnswire::kRcodeNoError: return "noerror";
    case dnswire::kRcodeFormErr: return "formerr";
    case dnswire::kRcodeServFail: return "servfail";
    case dnswire::kRcodeNxDomain: return "nxdomain";
    case dnswire::kRcodeNotImp: return "notimp";
    case dnswire::kRcodeRefused: return "refused";
    default: return "rcode" + std::to_string(rh.rcode);
  }
}

}  // namespace adattl::proptest
