#include "dnswire/message.h"

#include <cctype>

namespace adattl::dnswire {
namespace {

void put16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v & 0xffff));
}

bool get16(const std::uint8_t* data, std::size_t size, std::size_t* pos, std::uint16_t* v) {
  if (*pos + 2 > size) return false;
  *v = static_cast<std::uint16_t>((data[*pos] << 8) | data[*pos + 1]);
  *pos += 2;
  return true;
}

bool get32(const std::uint8_t* data, std::size_t size, std::size_t* pos, std::uint32_t* v) {
  std::uint16_t hi = 0, lo = 0;
  if (!get16(data, size, pos, &hi) || !get16(data, size, pos, &lo)) return false;
  *v = (static_cast<std::uint32_t>(hi) << 16) | lo;
  return true;
}

void encode_header(std::vector<std::uint8_t>* out, const Header& h) {
  put16(out, h.id);
  std::uint16_t flags = 0;
  flags |= static_cast<std::uint16_t>(h.qr) << 15;
  flags |= static_cast<std::uint16_t>(h.opcode & 0x0f) << 11;
  flags |= static_cast<std::uint16_t>(h.aa) << 10;
  flags |= static_cast<std::uint16_t>(h.tc) << 9;
  flags |= static_cast<std::uint16_t>(h.rd) << 8;
  flags |= static_cast<std::uint16_t>(h.ra) << 7;
  flags |= static_cast<std::uint16_t>(h.rcode & 0x0f);
  put16(out, flags);
  put16(out, h.qdcount);
  put16(out, h.ancount);
  put16(out, h.nscount);
  put16(out, h.arcount);
}

bool decode_header(const std::uint8_t* data, std::size_t size, std::size_t* pos, Header* h) {
  std::uint16_t flags = 0;
  if (!get16(data, size, pos, &h->id) || !get16(data, size, pos, &flags) ||
      !get16(data, size, pos, &h->qdcount) || !get16(data, size, pos, &h->ancount) ||
      !get16(data, size, pos, &h->nscount) || !get16(data, size, pos, &h->arcount)) {
    return false;
  }
  h->qr = (flags >> 15) & 1;
  h->opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0f);
  h->aa = (flags >> 10) & 1;
  h->tc = (flags >> 9) & 1;
  h->rd = (flags >> 8) & 1;
  h->ra = (flags >> 7) & 1;
  h->rcode = static_cast<std::uint8_t>(flags & 0x0f);
  return true;
}

}  // namespace

bool encode_name(const std::string& dotted, std::vector<std::uint8_t>* out) {
  const std::size_t mark = out->size();
  std::size_t start = 0;
  while (start <= dotted.size()) {
    const std::size_t dot = dotted.find('.', start);
    const std::size_t end = (dot == std::string::npos) ? dotted.size() : dot;
    const std::size_t len = end - start;
    if (len == 0 || len > 63) {
      out->resize(mark);
      return false;
    }
    out->push_back(static_cast<std::uint8_t>(len));
    out->insert(out->end(), dotted.begin() + static_cast<std::ptrdiff_t>(start),
                dotted.begin() + static_cast<std::ptrdiff_t>(end));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  out->push_back(0);  // root label
  if (out->size() - mark > 255) {
    out->resize(mark);
    return false;
  }
  return true;
}

bool decode_name(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                 std::string* out) {
  if (out) out->clear();
  std::size_t cursor = *pos;
  bool jumped = false;
  int hops = 0;
  std::size_t end_after_name = 0;  // set at the first pointer
  std::size_t dotted_len = 0;

  for (;;) {
    if (cursor >= size) return false;
    const std::uint8_t len = data[cursor];
    if ((len & 0xc0) == 0xc0) {
      // Compression pointer.
      if (cursor + 2 > size) return false;
      if (++hops > 32) return false;  // pointer loop guard
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | data[cursor + 1];
      if (!jumped) {
        end_after_name = cursor + 2;
        jumped = true;
      }
      if (target >= size) return false;
      cursor = target;
      continue;
    }
    if (len > 63) return false;
    if (len == 0) {
      *pos = jumped ? end_after_name : cursor + 1;
      return true;
    }
    if (cursor + 1 + len > size) return false;
    if (dotted_len != 0) ++dotted_len;  // the '.' before this label
    if (dotted_len + len > 255) return false;
    if (out) {
      if (!out->empty()) out->push_back('.');
      for (std::size_t i = 0; i < len; ++i) {
        out->push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(data[cursor + 1 + i]))));
      }
    }
    dotted_len += len;
    cursor += 1 + static_cast<std::size_t>(len);
  }
}

std::vector<std::uint8_t> encode_query(std::uint16_t id, const std::string& qname,
                                       std::uint16_t qtype, std::uint16_t qclass,
                                       bool recursion_desired) {
  Header h;
  h.id = id;
  h.rd = recursion_desired;
  h.qdcount = 1;
  std::vector<std::uint8_t> out;
  encode_header(&out, h);
  if (!encode_name(qname, &out)) return {};
  put16(&out, qtype);
  put16(&out, qclass);
  return out;
}

bool decode_query(const std::vector<std::uint8_t>& wire, Header* header, Question* question) {
  std::size_t pos = 0;
  if (!decode_header(wire.data(), wire.size(), &pos, header)) return false;
  if (header->qdcount < 1) return false;
  if (!decode_name(wire.data(), wire.size(), &pos, &question->qname)) return false;
  if (!get16(wire.data(), wire.size(), &pos, &question->qtype)) return false;
  if (!get16(wire.data(), wire.size(), &pos, &question->qclass)) return false;
  return true;
}

namespace {

/// Shared body of encode_a_response / encode_aaaa_response: one address
/// record of `rr_type` whose rdata is `rdata[0..rdata_len)`, written into
/// `out` in place.
void encode_address_response(const Header& query_header, const Question& question,
                             std::uint16_t rr_type, const std::uint8_t* rdata,
                             std::uint16_t rdata_len, std::uint32_t ttl_sec,
                             std::uint8_t rcode, std::vector<std::uint8_t>* out) {
  Header h;
  h.id = query_header.id;
  h.qr = true;
  h.aa = true;
  h.rd = query_header.rd;
  h.rcode = rcode;
  h.qdcount = 1;
  h.ancount = (rcode == kRcodeNoError) ? 1 : 0;
  out->clear();
  encode_header(out, h);

  // Echo the question when it survives re-encoding. decode_name accepts
  // names encode_name must reject — the root name (empty), labels
  // containing '.' bytes, 255-character dotted forms whose wire form
  // exceeds 255 bytes — so an error response to such a question omits the
  // echo (qdcount 0) instead of failing: the resolver still gets its
  // rcode and id. Found by the proptest dnswire fuzzer (corpus:
  // root-name-query, label-with-dot-byte, overlong-echo-name).
  if (encode_name(question.qname, out)) {
    put16(out, question.qtype);
    put16(out, question.qclass);
  } else if (rcode == kRcodeNoError) {
    // A positive answer anchors its owner name on the echoed question via
    // a compression pointer, so it cannot be built without one.
    out->clear();
    return;
  } else {
    (*out)[5] = 0;  // qdcount (bytes 4-5) 1 -> 0
  }
  if (rcode != kRcodeNoError) return;

  // Answer: pointer to the question name at offset 12 (0xc00c).
  out->push_back(0xc0);
  out->push_back(0x0c);
  put16(out, rr_type);
  put16(out, kClassIn);
  put32(out, ttl_sec);
  put16(out, rdata_len);
  out->insert(out->end(), rdata, rdata + rdata_len);
}

/// Shared body of decode_a_response / decode_aaaa_response: expects one
/// answer of `rr_type` with exactly `rdata_len` rdata bytes.
bool decode_address_response(const std::vector<std::uint8_t>& wire, Header* header,
                             std::uint16_t rr_type, std::uint8_t* rdata,
                             std::uint16_t rdata_len, std::uint32_t* ttl_sec) {
  std::size_t pos = 0;
  if (!decode_header(wire.data(), wire.size(), &pos, header)) return false;
  // Skip the echoed question(s).
  for (std::uint16_t q = 0; q < header->qdcount; ++q) {
    std::string name;
    std::uint16_t t = 0, c = 0;
    if (!decode_name(wire.data(), wire.size(), &pos, &name)) return false;
    if (!get16(wire.data(), wire.size(), &pos, &t) ||
        !get16(wire.data(), wire.size(), &pos, &c)) {
      return false;
    }
  }
  if (header->ancount == 0) return true;  // error responses carry no answer

  std::string name;
  std::uint16_t type = 0, klass = 0, rdlength = 0;
  if (!decode_name(wire.data(), wire.size(), &pos, &name)) return false;
  if (!get16(wire.data(), wire.size(), &pos, &type) ||
      !get16(wire.data(), wire.size(), &pos, &klass) ||
      !get32(wire.data(), wire.size(), &pos, ttl_sec) ||
      !get16(wire.data(), wire.size(), &pos, &rdlength)) {
    return false;
  }
  if (type != rr_type || rdlength != rdata_len) return false;
  if (pos + rdata_len > wire.size()) return false;
  for (std::uint16_t i = 0; i < rdata_len; ++i) rdata[i] = wire[pos + i];
  return true;
}

}  // namespace

Ipv6 v4_mapped_ipv6(std::uint32_t ipv4) {
  Ipv6 out{};  // ::ffff:a.b.c.d — bytes 0..9 zero, 10..11 0xff, 12..15 the v4
  out[10] = 0xff;
  out[11] = 0xff;
  out[12] = static_cast<std::uint8_t>(ipv4 >> 24);
  out[13] = static_cast<std::uint8_t>(ipv4 >> 16);
  out[14] = static_cast<std::uint8_t>(ipv4 >> 8);
  out[15] = static_cast<std::uint8_t>(ipv4);
  return out;
}

void encode_a_response(const Header& query_header, const Question& question,
                       std::uint32_t ipv4, std::uint32_t ttl_sec, std::uint8_t rcode,
                       std::vector<std::uint8_t>* out) {
  std::uint8_t rdata[4] = {static_cast<std::uint8_t>(ipv4 >> 24),
                           static_cast<std::uint8_t>(ipv4 >> 16),
                           static_cast<std::uint8_t>(ipv4 >> 8),
                           static_cast<std::uint8_t>(ipv4)};
  encode_address_response(query_header, question, kTypeA, rdata, 4, ttl_sec, rcode, out);
}

void encode_aaaa_response(const Header& query_header, const Question& question,
                          const Ipv6& ipv6, std::uint32_t ttl_sec, std::uint8_t rcode,
                          std::vector<std::uint8_t>* out) {
  encode_address_response(query_header, question, kTypeAaaa, ipv6.data(),
                          static_cast<std::uint16_t>(ipv6.size()), ttl_sec, rcode, out);
}

bool decode_a_response(const std::vector<std::uint8_t>& wire, Header* header,
                       std::uint32_t* ipv4, std::uint32_t* ttl_sec) {
  std::uint8_t rdata[4] = {0, 0, 0, 0};
  if (!decode_address_response(wire, header, kTypeA, rdata, 4, ttl_sec)) return false;
  if (header->ancount != 0) {
    *ipv4 = (static_cast<std::uint32_t>(rdata[0]) << 24) |
            (static_cast<std::uint32_t>(rdata[1]) << 16) |
            (static_cast<std::uint32_t>(rdata[2]) << 8) | rdata[3];
  }
  return true;
}

bool decode_aaaa_response(const std::vector<std::uint8_t>& wire, Header* header, Ipv6* ipv6,
                          std::uint32_t* ttl_sec) {
  return decode_address_response(wire, header, kTypeAaaa, ipv6->data(),
                                 static_cast<std::uint16_t>(ipv6->size()), ttl_sec);
}

}  // namespace adattl::dnswire
