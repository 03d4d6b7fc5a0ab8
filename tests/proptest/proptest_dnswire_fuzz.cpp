// Byte-mangling fuzzer for dnswire::message parsing and
// DnsFrontend::handle: truncation, bit flips, compression-pointer loops,
// length-field lies, counts that lie about the sections that follow —
// every input must yield a well-formed FORMERR/NOTIMP/NXDOMAIN
// answer or an explicit drop (id unrecoverable), never UB and never an
// empty reply for a readable header. Runs under ASan/UBSan in CI; inputs
// that once broke the contract live on as tests/proptest/corpus/*.hex,
// replayed by proptest_dnswire_corpus.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "dnswire/ecs.h"
#include "dnswire/frontend.h"
#include "dnswire/message.h"
#include "dnswire_checks.h"
#include "proptest.h"
#include "sim/random.h"

namespace adattl {
namespace {

using proptest::check_frontend_contract;
using proptest::for_each_case;
using proptest::FrontendHarness;
using proptest::PropertyCase;

std::string random_name(sim::RngStream& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789-";
  const int labels = static_cast<int>(rng.uniform_int(1, 5));
  std::string name;
  for (int l = 0; l < labels; ++l) {
    if (l > 0) name += '.';
    const int len = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < len; ++i) {
      name += kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
    }
  }
  return name;
}

/// A plausible starting datagram: a real query (often for the site name),
/// a real response fed back as a query, or plain noise.
std::vector<std::uint8_t> draw_base(sim::RngStream& rng, const FrontendHarness& h) {
  static const std::uint16_t kTypes[] = {1, 2, 5, 15, 16, 28, 255};
  static const std::uint16_t kClasses[] = {1, 3, 254, 255};
  const double which = rng.uniform(0.0, 1.0);
  if (which < 0.55) {
    const std::string qname = rng.bernoulli(0.5) ? h.site_name() : random_name(rng);
    auto q = dnswire::encode_query(static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff)),
                                   qname, kTypes[rng.uniform_int(0, 6)],
                                   kClasses[rng.uniform_int(0, 3)], rng.bernoulli(0.5));
    if (rng.bernoulli(0.4)) {
      // Graft an EDNS0 Client-Subnet option so mutations hit the ECS
      // scanner's option walk, not just the question decoder.
      dnswire::ClientSubnet subnet{};
      const bool v6 = rng.bernoulli(0.25);
      subnet.family = v6 ? dnswire::kEcsFamilyIpv6 : dnswire::kEcsFamilyIpv4;
      subnet.source_prefix =
          static_cast<std::uint8_t>(rng.uniform_int(0, v6 ? 128 : 32));
      subnet.address_len = static_cast<std::uint8_t>((subnet.source_prefix + 7) / 8);
      for (int i = 0; i < subnet.address_len; ++i) {
        subnet.address[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      dnswire::append_ecs_option(&q, subnet);
    }
    return q;
  }
  if (which < 0.7) {
    dnswire::Header qh;
    qh.id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
    dnswire::Question q;
    q.qname = random_name(rng);
    q.qtype = dnswire::kTypeA;
    q.qclass = dnswire::kClassIn;
    std::vector<std::uint8_t> response;
    dnswire::encode_a_response(qh, q, 0x0a000001u,
                               static_cast<std::uint32_t>(rng.uniform_int(1, 3600)),
                               dnswire::kRcodeNoError, &response);
    return response;
  }
  std::vector<std::uint8_t> noise(static_cast<std::size_t>(rng.uniform_int(0, 80)));
  for (std::uint8_t& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return noise;
}

void mutate(sim::RngStream& rng, std::vector<std::uint8_t>* msg) {
  const int rounds = static_cast<int>(rng.uniform_int(0, 4));
  for (int r = 0; r < rounds; ++r) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.2 && !msg->empty()) {
      // bit flip
      const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 1));
      (*msg)[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    } else if (op < 0.35 && !msg->empty()) {
      // byte rewrite
      const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 1));
      (*msg)[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else if (op < 0.5 && !msg->empty()) {
      // truncate: the classic datagram cut
      msg->resize(static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 1)));
    } else if (op < 0.65) {
      // extend with noise
      const int extra = static_cast<int>(rng.uniform_int(1, 16));
      for (int i = 0; i < extra; ++i) {
        msg->push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
    } else if (op < 0.8 && msg->size() >= 2) {
      // plant a compression pointer (possibly a loop) mid-message
      const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 2));
      (*msg)[i] = static_cast<std::uint8_t>(0xc0 | rng.uniform_int(0, 3));
      (*msg)[i + 1] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else if (op < 0.9 && msg->size() >= 12) {
      // lie in a header count field
      const std::size_t field = 4 + 2 * static_cast<std::size_t>(rng.uniform_int(0, 3));
      (*msg)[field] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      (*msg)[field + 1] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else if (op < 0.95 && msg->size() > 14) {
      // OPT option-region mangling: find a type-41 marker and corrupt the
      // bytes that follow it — rdlength, option code/length, ECS family,
      // prefix or address — the ECS scanner's own parse path.
      std::size_t opt = msg->size();
      for (std::size_t i = 12; i + 1 < msg->size(); ++i) {
        if ((*msg)[i] == 0x00 && (*msg)[i + 1] == 0x29) {
          opt = i;
          break;
        }
      }
      if (opt < msg->size()) {
        const std::size_t span = msg->size() - opt;
        const std::size_t i =
            opt + static_cast<std::size_t>(rng.uniform_int(0, span - 1));
        (*msg)[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      } else {
        // No OPT present: fabricate a type-41 marker somewhere plausible
        // so the scanner's RR walk meets one with lying fields around it.
        const std::size_t i =
            12 + static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 14));
        (*msg)[i] = 0x00;
        (*msg)[i + 1] = 0x29;
      }
    } else if (!msg->empty()) {
      // lie in a length byte: make some label claim more than remains
      const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, msg->size() - 1));
      (*msg)[i] = static_cast<std::uint8_t>(rng.uniform_int(40, 63));
    }
  }
}

TEST(DnswireFuzz, ArbitraryBytesNeverBreakTheContract) {
  for_each_case("proptest_dnswire_fuzz", 100, [](PropertyCase& pc) {
    sim::RngStream& rng = pc.rng;
    FrontendHarness h(rng.next_u64());
    for (int m = 0; m < 60; ++m) {
      std::vector<std::uint8_t> msg = draw_base(rng, h);
      mutate(rng, &msg);

      // The raw decoders must stay memory-safe on anything (ASan/UBSan
      // watch this half; the return values are unconstrained).
      dnswire::Header dh;
      dnswire::Question dq;
      (void)dnswire::decode_query(msg, &dh, &dq);
      std::uint32_t ipv4 = 0;
      std::uint32_t ttl = 0;
      (void)dnswire::decode_a_response(msg, &dh, &ipv4, &ttl);

      // So must the ECS scanner and the daemon's key derivation — any
      // verdict is fine, reading out of bounds is not, and the key must
      // stay in range whatever the bytes claim.
      dnswire::ClientSubnet subnet{};
      (void)dnswire::extract_client_subnet(msg.data(), msg.size(), &subnet);
      const web::DomainId key = dnswire::derive_domain_key(
          msg.data(), msg.size(), static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff)), h.num_domains(), true);
      ASSERT_GE(key, 0);
      ASSERT_LT(key, h.num_domains());

      check_frontend_contract(
          h, msg, static_cast<web::DomainId>(rng.uniform_int(0, h.num_domains() - 1)));
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

TEST(DnswireFuzz, ValidQueriesAlwaysGetAPositiveAnswer) {
  for_each_case("proptest_dnswire_fuzz", 100, [](PropertyCase& pc) {
    sim::RngStream& rng = pc.rng;
    FrontendHarness h(rng.next_u64());
    for (int i = 0; i < 20; ++i) {
      const auto id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
      // Case-insensitive: resolvers may query any capitalization.
      std::string qname = h.site_name();
      for (char& c : qname) {
        if (rng.bernoulli(0.3)) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      std::vector<std::uint8_t> reply;
      check_frontend_contract(h, dnswire::encode_query(id, qname),
                              static_cast<web::DomainId>(rng.uniform_int(0, h.num_domains() - 1)),
                              &reply);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(proptest::reply_outcome(reply), "noerror");
    }
  });
}

}  // namespace
}  // namespace adattl
