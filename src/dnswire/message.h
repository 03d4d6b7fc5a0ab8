#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace adattl::dnswire {

/// Minimal RFC 1035 wire-format support: enough to parse an A-record query
/// and build the authoritative response the scheduler's Decision implies
/// (address + TTL). This is the integration surface for running the
/// library behind a real UDP responder; the simulation never touches it.
///
/// Scope: queries with one question; responses with one A record;
/// compression pointers accepted on decode (with loop protection), never
/// emitted on encode. Everything else is answered with an error rcode
/// rather than parsed.

/// DNS header flags/ids in decoded form.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;  ///< response flag
  std::uint8_t opcode = 0;
  bool aa = false;  ///< authoritative answer
  bool tc = false;
  bool rd = false;  ///< recursion desired (echoed)
  bool ra = false;
  std::uint8_t rcode = 0;
  std::uint16_t qdcount = 0;
  std::uint16_t ancount = 0;
  std::uint16_t nscount = 0;
  std::uint16_t arcount = 0;
};

/// One question section entry.
struct Question {
  std::string qname;  ///< dotted, lower-cased, no trailing dot ("www.site.org")
  std::uint16_t qtype = 0;
  std::uint16_t qclass = 0;
};

inline constexpr std::uint16_t kTypeA = 1;
inline constexpr std::uint16_t kTypeAaaa = 28;
inline constexpr std::uint16_t kClassIn = 1;

/// IPv6 address in wire order (16 bytes, network byte order).
using Ipv6 = std::array<std::uint8_t, 16>;

/// The IPv4-mapped IPv6 address ::ffff:a.b.c.d for `ipv4` (host byte
/// order) — the standard dual-stack answer for a site without native v6.
Ipv6 v4_mapped_ipv6(std::uint32_t ipv4);

inline constexpr std::uint8_t kRcodeNoError = 0;
inline constexpr std::uint8_t kRcodeFormErr = 1;
inline constexpr std::uint8_t kRcodeServFail = 2;
inline constexpr std::uint8_t kRcodeNxDomain = 3;
inline constexpr std::uint8_t kRcodeNotImp = 4;
inline constexpr std::uint8_t kRcodeRefused = 5;

/// Appends a dotted name as DNS labels to `out`, in place. Returns false
/// (truncating `out` back to its old size) if any label is empty, longer
/// than 63 bytes, or the whole name exceeds 255 bytes.
bool encode_name(const std::string& dotted, std::vector<std::uint8_t>* out);

/// Decodes a (possibly compressed) name starting at `*pos`. On success
/// advances `*pos` past the name's wire bytes (not past any pointer
/// target) and writes the dotted, lower-cased form to `out`, or only
/// checks the name when `out` is null. Returns false on truncation, label
/// overflow, or a pointer loop.
bool decode_name(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                 std::string* out);

/// Builds a one-question query message (the client side; used by tests and
/// the demo).
std::vector<std::uint8_t> encode_query(std::uint16_t id, const std::string& qname,
                                       std::uint16_t qtype = kTypeA,
                                       std::uint16_t qclass = kClassIn,
                                       bool recursion_desired = true);

/// Parses the header and first question of a message. Returns false on
/// malformed input (too short, bad name, question truncated); the header
/// is still filled as far as possible so a FORMERR response can echo the id.
bool decode_query(const std::vector<std::uint8_t>& wire, Header* header, Question* question);

/// Writes the authoritative response to `question` into `out` (cleared
/// first; its capacity is kept, so a reused buffer allocates nothing): one
/// A record with the given IPv4 (host byte order) and TTL, or an empty
/// answer section when `rcode` is non-zero. A question whose name cannot
/// be re-encoded (the decoder accepts names the encoder must reject, e.g.
/// the root name) is omitted from an error response (qdcount 0) rather
/// than failing; a positive answer needs the echo as its
/// compression-pointer anchor, so only that combination leaves `out` empty.
void encode_a_response(const Header& query_header, const Question& question,
                       std::uint32_t ipv4, std::uint32_t ttl_sec, std::uint8_t rcode,
                       std::vector<std::uint8_t>* out);

/// Parses a response built by encode_a_response (tests / demo): fills the
/// header and, when present, the answer's IPv4 + TTL. Returns false on
/// malformed input.
bool decode_a_response(const std::vector<std::uint8_t>& wire, Header* header,
                       std::uint32_t* ipv4, std::uint32_t* ttl_sec);

/// AAAA counterpart of encode_a_response: one quad-A record (rdlength 16)
/// with the same question-echo / error-rcode / buffer semantics.
void encode_aaaa_response(const Header& query_header, const Question& question,
                          const Ipv6& ipv6, std::uint32_t ttl_sec, std::uint8_t rcode,
                          std::vector<std::uint8_t>* out);

/// Parses a response built by encode_aaaa_response. Returns false on
/// malformed input or when the answer is not a 16-byte AAAA record.
bool decode_aaaa_response(const std::vector<std::uint8_t>& wire, Header* header, Ipv6* ipv6,
                          std::uint32_t* ttl_sec);

}  // namespace adattl::dnswire
