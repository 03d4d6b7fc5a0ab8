// RFC 1035 wire-format codec + scheduler frontend suite.
#include "dnswire/frontend.h"
#include "dnswire/message.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/policy_factory.h"
#include "sim/random.h"

namespace adattl::dnswire {
namespace {

// ------------------------------------------------------------- names

TEST(DnsName, EncodeDecodeRoundTrip) {
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(encode_name("www.example.org", &wire));
  // 3www7example3org0
  ASSERT_EQ(wire.size(), 17u);
  EXPECT_EQ(wire[0], 3u);
  EXPECT_EQ(wire[4], 7u);
  EXPECT_EQ(wire.back(), 0u);

  std::size_t pos = 0;
  std::string decoded;
  ASSERT_TRUE(decode_name(wire.data(), wire.size(), &pos, &decoded));
  EXPECT_EQ(decoded, "www.example.org");
  EXPECT_EQ(pos, wire.size());
}

TEST(DnsName, DecodeLowercasesAndSingleLabelWorks) {
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(encode_name("WWW.ExAmPlE.ORG", &wire));
  std::size_t pos = 0;
  std::string decoded;
  ASSERT_TRUE(decode_name(wire.data(), wire.size(), &pos, &decoded));
  EXPECT_EQ(decoded, "www.example.org");

  wire.clear();
  ASSERT_TRUE(encode_name("localhost", &wire));
  pos = 0;
  ASSERT_TRUE(decode_name(wire.data(), wire.size(), &pos, &decoded));
  EXPECT_EQ(decoded, "localhost");
}

TEST(DnsName, EncodeRejectsBadLabels) {
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(encode_name("", &out));
  EXPECT_FALSE(encode_name("a..b", &out));
  EXPECT_FALSE(encode_name(".leading", &out));
  EXPECT_FALSE(encode_name(std::string(64, 'x') + ".com", &out));  // label > 63
  std::string huge;
  for (int i = 0; i < 60; ++i) huge += "abcd.";
  huge += "com";  // > 255 bytes total
  EXPECT_FALSE(encode_name(huge, &out));
  EXPECT_TRUE(out.empty());  // failed encodes leave the buffer untouched

  // Names are written in place after what the buffer holds; a failure,
  // early (a bad label) or late (the length limit), truncates back to it.
  out = {0xAA, 0xBB};
  EXPECT_FALSE(encode_name("ok.a..b", &out));
  EXPECT_FALSE(encode_name(huge, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  ASSERT_TRUE(encode_name("a.b", &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0xBB, 1, 'a', 1, 'b', 0}));
}

TEST(DnsName, DecodeHandlesCompressionPointer) {
  // Message: name "site.org" at offset 0, then a pointer to it at offset 10.
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(encode_name("site.org", &wire));  // 10 bytes: 4site3org0
  ASSERT_EQ(wire.size(), 10u);
  wire.push_back(0xc0);
  wire.push_back(0x00);
  std::size_t pos = 10;
  std::string decoded;
  ASSERT_TRUE(decode_name(wire.data(), wire.size(), &pos, &decoded));
  EXPECT_EQ(decoded, "site.org");
  EXPECT_EQ(pos, 12u);  // past the 2-byte pointer, not the target
}

TEST(DnsName, DecodeRejectsPointerLoopsAndTruncation) {
  // Self-pointing pointer at offset 0.
  const std::vector<std::uint8_t> loop = {0xc0, 0x00};
  std::size_t pos = 0;
  std::string out;
  EXPECT_FALSE(decode_name(loop.data(), loop.size(), &pos, &out));

  // Truncated label.
  const std::vector<std::uint8_t> truncated = {5, 'a', 'b'};
  pos = 0;
  EXPECT_FALSE(decode_name(truncated.data(), truncated.size(), &pos, &out));

  // Pointer past the end.
  const std::vector<std::uint8_t> wild = {0xc0, 0x50};
  pos = 0;
  EXPECT_FALSE(decode_name(wild.data(), wild.size(), &pos, &out));
}

// ------------------------------------------------------------- messages

TEST(DnsMessage, QueryRoundTrip) {
  const std::vector<std::uint8_t> wire = encode_query(0xBEEF, "www.site.org");
  ASSERT_FALSE(wire.empty());
  Header h;
  Question q;
  ASSERT_TRUE(decode_query(wire, &h, &q));
  EXPECT_EQ(h.id, 0xBEEF);
  EXPECT_FALSE(h.qr);
  EXPECT_TRUE(h.rd);
  EXPECT_EQ(h.qdcount, 1);
  EXPECT_EQ(q.qname, "www.site.org");
  EXPECT_EQ(q.qtype, kTypeA);
  EXPECT_EQ(q.qclass, kClassIn);
}

TEST(DnsMessage, ResponseRoundTrip) {
  Header qh;
  qh.id = 42;
  qh.rd = true;
  Question q{"www.site.org", kTypeA, kClassIn};
  std::vector<std::uint8_t> wire;
  encode_a_response(qh, q, 0x0A000001, 43, kRcodeNoError, &wire);
  Header rh;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(wire, &rh, &ip, &ttl));
  EXPECT_EQ(rh.id, 42);
  EXPECT_TRUE(rh.qr);
  EXPECT_TRUE(rh.aa);
  EXPECT_TRUE(rh.rd);
  EXPECT_EQ(rh.rcode, kRcodeNoError);
  EXPECT_EQ(rh.ancount, 1);
  EXPECT_EQ(ip, 0x0A000001u);  // 10.0.0.1
  EXPECT_EQ(ttl, 43u);
}

TEST(DnsMessage, ErrorResponseHasNoAnswer) {
  Header qh;
  qh.id = 7;
  Question q{"other.org", kTypeA, kClassIn};
  std::vector<std::uint8_t> wire;
  encode_a_response(qh, q, 0, 0, kRcodeNxDomain, &wire);
  Header rh;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(wire, &rh, &ip, &ttl));
  EXPECT_EQ(rh.rcode, kRcodeNxDomain);
  EXPECT_EQ(rh.ancount, 0);
}

// ------------------------------------------------------------- goldens
//
// Exact wire images, byte for byte, per RFC 1035 §4.1. These pin the
// encoder's output format so a layout regression (field order, endianness,
// label framing) cannot hide behind a symmetric decode bug: the decoder is
// then driven from the SAME golden bytes, not from the encoder's output.

TEST(DnsGolden, AQueryWireImage) {
  const std::vector<std::uint8_t> golden = {
      0x12, 0x34,              // id
      0x01, 0x00,              // flags: QR=0 opcode=0 RD=1
      0x00, 0x01,              // qdcount
      0x00, 0x00,              // ancount
      0x00, 0x00,              // nscount
      0x00, 0x00,              // arcount
      3,    'w',  'w',  'w',   // qname
      4,    's',  'i',  't',  'e',
      3,    'o',  'r',  'g',  0,
      0x00, 0x01,              // qtype A
      0x00, 0x01,              // qclass IN
  };
  EXPECT_EQ(encode_query(0x1234, "www.site.org"), golden);

  Header h;
  Question q;
  ASSERT_TRUE(decode_query(golden, &h, &q));
  EXPECT_EQ(h.id, 0x1234);
  EXPECT_FALSE(h.qr);
  EXPECT_TRUE(h.rd);
  EXPECT_EQ(q.qname, "www.site.org");
  EXPECT_EQ(q.qtype, kTypeA);
  EXPECT_EQ(q.qclass, kClassIn);
}

TEST(DnsGolden, NsQueryWireImage) {
  const std::vector<std::uint8_t> golden = {
      0xAB, 0xCD,                   // id
      0x00, 0x00,                   // flags: RD=0
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      4,    's',  'i',  't',  'e',  // qname
      3,    'o',  'r',  'g',  0,
      0x00, 0x02,                   // qtype NS
      0x00, 0x01,                   // qclass IN
  };
  EXPECT_EQ(encode_query(0xABCD, "site.org", /*qtype=*/2, kClassIn,
                         /*recursion_desired=*/false),
            golden);

  Header h;
  Question q;
  ASSERT_TRUE(decode_query(golden, &h, &q));
  EXPECT_FALSE(h.rd);
  EXPECT_EQ(q.qname, "site.org");
  EXPECT_EQ(q.qtype, 2u);
}

TEST(DnsGolden, Edns0QueryDecodesLikeItsPlainTwin) {
  // The same A question with an RFC 6891 OPT pseudo-RR in the additional
  // section (arcount 1). Our decoder reads only the header and the first
  // question, so the OPT record must be invisible: both images decode to
  // identical (header-modulo-arcount, question) pairs.
  std::vector<std::uint8_t> plain = encode_query(0x0042, "www.site.org");
  std::vector<std::uint8_t> edns = plain;
  edns[11] = 1;  // arcount: 0 -> 1
  const std::uint8_t opt[] = {
      0x00,                    // owner: root name
      0x00, 0x29,              // type OPT (41)
      0x04, 0xd0,              // "class": udp payload size 1232
      0x00, 0x00, 0x00, 0x00,  // "ttl": ext-rcode/version/flags
      0x00, 0x00,              // rdlength 0
  };
  edns.insert(edns.end(), std::begin(opt), std::end(opt));

  Header hp, he;
  Question qp, qe;
  ASSERT_TRUE(decode_query(plain, &hp, &qp));
  ASSERT_TRUE(decode_query(edns, &he, &qe));
  EXPECT_EQ(he.arcount, 1u);
  EXPECT_EQ(hp.id, he.id);
  EXPECT_EQ(qp.qname, qe.qname);
  EXPECT_EQ(qp.qtype, qe.qtype);
  EXPECT_EQ(qp.qclass, qe.qclass);
}

TEST(DnsGolden, AResponseWireImage) {
  Header qh;
  qh.id = 0x1234;
  qh.rd = true;
  const Question q{"www.site.org", kTypeA, kClassIn};
  const std::vector<std::uint8_t> golden = {
      0x12, 0x34,              // id echoed
      0x85, 0x00,              // QR=1 AA=1 RD=1 RA=0 rcode=0
      0x00, 0x01,              // qdcount: question echoed
      0x00, 0x01,              // ancount
      0x00, 0x00, 0x00, 0x00,  // nscount, arcount
      3,    'w',  'w',  'w',  4, 's', 'i', 't', 'e', 3, 'o', 'r', 'g', 0,
      0x00, 0x01, 0x00, 0x01,  // question qtype/qclass
      0xc0, 0x0c,              // answer owner: pointer to offset 12
      0x00, 0x01,              // type A
      0x00, 0x01,              // class IN
      0x00, 0x00, 0x00, 0x2b,  // ttl 43
      0x00, 0x04,              // rdlength
      0x0a, 0x00, 0x00, 0x01,  // 10.0.0.1
  };
  std::vector<std::uint8_t> wire = {0xde, 0xad};  // stale bytes are cleared
  encode_a_response(qh, q, 0x0A000001, 43, kRcodeNoError, &wire);
  EXPECT_EQ(wire, golden);

  Header rh;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(golden, &rh, &ip, &ttl));
  EXPECT_EQ(ip, 0x0A000001u);
  EXPECT_EQ(ttl, 43u);
}

TEST(DnsGolden, AaaaResponseWireImage) {
  Header qh;
  qh.id = 0x1234;
  qh.rd = true;
  const Question q{"www.site.org", kTypeAaaa, kClassIn};
  const std::vector<std::uint8_t> golden = {
      0x12, 0x34,              // id echoed
      0x85, 0x00,              // QR=1 AA=1 RD=1 RA=0 rcode=0
      0x00, 0x01,              // qdcount: question echoed
      0x00, 0x01,              // ancount
      0x00, 0x00, 0x00, 0x00,  // nscount, arcount
      3,    'w',  'w',  'w',  4, 's', 'i', 't', 'e', 3, 'o', 'r', 'g', 0,
      0x00, 0x1c, 0x00, 0x01,  // question qtype AAAA / qclass IN
      0xc0, 0x0c,              // answer owner: pointer to offset 12
      0x00, 0x1c,              // type AAAA
      0x00, 0x01,              // class IN
      0x00, 0x00, 0x00, 0x2b,  // ttl 43
      0x00, 0x10,              // rdlength 16
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xff, 0xff, 0x0a, 0x00, 0x00, 0x01,  // ::ffff:10.0.0.1
  };
  std::vector<std::uint8_t> wire;
  encode_aaaa_response(qh, q, v4_mapped_ipv6(0x0A000001), 43, kRcodeNoError, &wire);
  EXPECT_EQ(wire, golden);

  Header rh;
  Ipv6 addr{};
  std::uint32_t ttl = 0;
  ASSERT_TRUE(decode_aaaa_response(golden, &rh, &addr, &ttl));
  EXPECT_EQ(addr, v4_mapped_ipv6(0x0A000001));
  EXPECT_EQ(ttl, 43u);
  // The record families do not decode as each other.
  std::uint32_t ip = 0;
  EXPECT_FALSE(decode_a_response(golden, &rh, &ip, &ttl));
}

TEST(DnsMessage, V4MappedIpv6Layout) {
  const Ipv6 m = v4_mapped_ipv6(0xC0A80164);  // 192.168.1.100
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m[static_cast<std::size_t>(i)], 0) << i;
  EXPECT_EQ(m[10], 0xff);
  EXPECT_EQ(m[11], 0xff);
  EXPECT_EQ(m[12], 192);
  EXPECT_EQ(m[13], 168);
  EXPECT_EQ(m[14], 1);
  EXPECT_EQ(m[15], 100);
}

TEST(DnsMessage, DecodeQueryRejectsGarbage) {
  Header h;
  Question q;
  EXPECT_FALSE(decode_query({}, &h, &q));
  EXPECT_FALSE(decode_query({1, 2, 3}, &h, &q));
  // Valid header claiming a question, but no question bytes.
  std::vector<std::uint8_t> hdr_only = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode_query(hdr_only, &h, &q));
}

// ------------------------------------------------------------- fuzz

TEST(DnsWireFuzz, RandomBuffersNeverCrashDecoders) {
  sim::RngStream rng(31337);
  Header h;
  Question q;
  std::uint32_t ip = 0, ttl = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const int len = static_cast<int>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Must never crash, loop forever, or read out of bounds (ASan-checked
    // in sanitizer builds); the return value is free to be false.
    (void)decode_query(buf, &h, &q);
    (void)decode_a_response(buf, &h, &ip, &ttl);
    std::size_t pos = 0;
    std::string name;
    (void)decode_name(buf.data(), buf.size(), &pos, &name);
  }
}

TEST(DnsWireFuzz, MutatedValidPacketsNeverCrashDecoders) {
  sim::RngStream rng(777);
  const std::vector<std::uint8_t> valid = encode_query(0x5555, "www.site.org");
  Header h;
  Question q;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> buf = valid;
    // Flip 1-4 random bytes; truncate sometimes.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
      buf[idx] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.3)) {
      buf.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf.size()))));
    }
    if (decode_query(buf, &h, &q)) {
      // Anything that decodes must satisfy the container invariants.
      EXPECT_LE(q.qname.size(), 255u);
    }
  }
}

// ------------------------------------------------------------- frontend

struct FrontendRig {
  FrontendRig() : rng(5), alarms(3, 0.9) {
    core::SchedulerFactoryConfig fc;
    fc.capacities = {100.0, 80.0, 60.0};
    fc.initial_weights = sim::ZipfDistribution(10, 1.0).probabilities();
    fc.class_threshold = 0.1;
    bundle = core::make_scheduler("PRR2-TTL/K", fc, alarms, simulator, rng);
    frontend = std::make_unique<DnsFrontend>(
        *bundle.scheduler, "WWW.Site.Org",
        std::vector<std::uint32_t>{0x0A000001, 0x0A000002, 0x0A000003});
  }

  sim::Simulator simulator;
  sim::RngStream rng;
  core::AlarmRegistry alarms;
  core::SchedulerBundle bundle;
  std::unique_ptr<DnsFrontend> frontend;
};

TEST(DnsFrontendTest, AnswersWithSchedulerDecision) {
  FrontendRig rig;
  const std::vector<std::uint8_t> query = encode_query(0x1234, "www.site.org");
  std::vector<std::uint8_t> response;
  rig.frontend->handle(query, /*domain=*/0, &response);
  Header h;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(response, &h, &ip, &ttl));
  EXPECT_EQ(h.id, 0x1234);
  EXPECT_EQ(h.rcode, kRcodeNoError);
  // The address is one of the configured servers.
  EXPECT_TRUE(ip == 0x0A000001 || ip == 0x0A000002 || ip == 0x0A000003);
  // Domain 0 is the hottest: its TTL is the policy's minimum, rounded to
  // integral seconds but never to zero.
  EXPECT_GE(ttl, 1u);
  EXPECT_LE(ttl, 240u);
  EXPECT_EQ(rig.frontend->answered(), 1u);
  EXPECT_EQ(rig.bundle.scheduler->decisions(), 1u);
}

TEST(DnsFrontendTest, HotDomainsGetShorterTtlsOnTheWire) {
  FrontendRig rig;
  const auto ttl_for = [&](int domain) {
    std::vector<std::uint8_t> r;
    rig.frontend->handle(encode_query(1, "www.site.org"), domain, &r);
    Header h;
    std::uint32_t ip = 0, ttl = 0;
    EXPECT_TRUE(decode_a_response(r, &h, &ip, &ttl));
    return ttl;
  };
  EXPECT_LT(ttl_for(0), ttl_for(9));  // rank 1 vs rank 10 under Zipf
}

TEST(DnsFrontendTest, CaseInsensitiveNameMatch) {
  FrontendRig rig;
  std::vector<std::uint8_t> r;
  rig.frontend->handle(encode_query(2, "WWW.SITE.ORG"), 0, &r);
  Header h;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(r, &h, &ip, &ttl));
  EXPECT_EQ(h.rcode, kRcodeNoError);
}

TEST(DnsFrontendTest, ForeignNameGetsNxDomainWithoutSchedulingCost) {
  FrontendRig rig;
  std::vector<std::uint8_t> r;
  rig.frontend->handle(encode_query(3, "evil.example.com"), 0, &r);
  Header h;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(r, &h, &ip, &ttl));
  EXPECT_EQ(h.rcode, kRcodeNxDomain);
  EXPECT_EQ(rig.bundle.scheduler->decisions(), 0u);
  EXPECT_EQ(rig.frontend->refused(), 1u);
}

TEST(DnsFrontendTest, NonAddressQueriesGetNotImp) {
  FrontendRig rig;
  std::vector<std::uint8_t> r;
  rig.frontend->handle(encode_query(4, "www.site.org", /*qtype=*/15), 0, &r);  // MX
  Header h;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(r, &h, &ip, &ttl));
  EXPECT_EQ(h.rcode, kRcodeNotImp);
}

TEST(DnsFrontendTest, AaaaQueriesGetV4MappedAnswers) {
  FrontendRig rig;
  std::vector<std::uint8_t> r;
  rig.frontend->handle(encode_query(5, "www.site.org", kTypeAaaa), 0, &r);
  Header h;
  Ipv6 addr{};
  std::uint32_t ttl = 0;
  ASSERT_TRUE(decode_aaaa_response(r, &h, &addr, &ttl));
  EXPECT_EQ(h.rcode, kRcodeNoError);
  EXPECT_GE(ttl, 1u);
  const std::vector<std::uint32_t> known{0x0A000001, 0x0A000002, 0x0A000003};
  const bool real = std::any_of(known.begin(), known.end(), [&](std::uint32_t v4) {
    return v4_mapped_ipv6(v4) == addr;
  });
  EXPECT_TRUE(real);
  EXPECT_EQ(rig.frontend->answered(), 1u);  // AAAA consumes a real decision
}

TEST(DnsFrontendTest, ExplicitIpv6AddressesWinOverMapping) {
  FrontendRig rig;
  Ipv6 native{};
  native[0] = 0x20;
  native[1] = 0x01;  // 2001::1
  native[15] = 0x01;
  DnsFrontend v6_frontend(*rig.bundle.scheduler, "www.site.org",
                          std::vector<std::uint32_t>{0x0A000001},
                          std::vector<Ipv6>{native});
  std::vector<std::uint8_t> r;
  v6_frontend.handle(encode_query(6, "www.site.org", kTypeAaaa), 0, &r);
  Header h;
  Ipv6 addr{};
  std::uint32_t ttl = 0;
  ASSERT_TRUE(decode_aaaa_response(r, &h, &addr, &ttl));
  EXPECT_EQ(addr, native);

  EXPECT_THROW(DnsFrontend(*rig.bundle.scheduler, "www.site.org",
                           std::vector<std::uint32_t>{1, 2},
                           std::vector<Ipv6>{native}),
               std::invalid_argument);
}

TEST(DnsFrontendTest, MalformedQueryGetsFormErrOrDrop) {
  FrontendRig rig;
  // One byte: not even an id — dropped, and the stale reply is cleared.
  std::vector<std::uint8_t> r = {0x12, 0x34};
  rig.frontend->handle({0xFF}, 0, &r);
  EXPECT_TRUE(r.empty());
  // Header-only with a claimed question: FORMERR echoing the id.
  const std::vector<std::uint8_t> bad = {0xAB, 0xCD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  rig.frontend->handle(bad, 0, &r);
  Header h;
  std::uint32_t ip = 0, ttl = 0;
  ASSERT_TRUE(decode_a_response(r, &h, &ip, &ttl));
  EXPECT_EQ(h.id, 0xABCD);
  EXPECT_EQ(h.rcode, kRcodeFormErr);
}

TEST(DnsFrontendTest, Validation) {
  FrontendRig rig;
  EXPECT_THROW(DnsFrontend(*rig.bundle.scheduler, "", {1}), std::invalid_argument);
  EXPECT_THROW(DnsFrontend(*rig.bundle.scheduler, "x.org", {}), std::invalid_argument);
}

}  // namespace
}  // namespace adattl::dnswire
