#include "dnswire/ecs.h"

#include "dnswire/message.h"

namespace adattl::dnswire {
namespace {

bool get8(const std::uint8_t* data, std::size_t size, std::size_t* pos, std::uint8_t* v) {
  if (*pos + 1 > size) return false;
  *v = data[*pos];
  *pos += 1;
  return true;
}

bool get16be(const std::uint8_t* data, std::size_t size, std::size_t* pos, std::uint16_t* v) {
  if (*pos + 2 > size) return false;
  *v = static_cast<std::uint16_t>((data[*pos] << 8) | data[*pos + 1]);
  *pos += 2;
  return true;
}

/// Parses the payload of one ECS option (past code/length). Returns false
/// on any length/family lie.
bool parse_ecs_payload(const std::uint8_t* data, std::size_t len, ClientSubnet* out) {
  std::size_t pos = 0;
  std::uint8_t source = 0, scope = 0;
  if (!get16be(data, len, &pos, &out->family) || !get8(data, len, &pos, &source) ||
      !get8(data, len, &pos, &scope)) {
    return false;
  }
  const std::size_t addr_bytes = (static_cast<std::size_t>(source) + 7) / 8;
  // RFC 7871 §6: the address field is exactly ceil(prefix/8) bytes.
  if (len - pos != addr_bytes) return false;
  if (out->family == kEcsFamilyIpv4) {
    if (source > 32) return false;
  } else if (out->family == kEcsFamilyIpv6) {
    if (source > 128) return false;
  } else {
    return false;
  }
  out->source_prefix = source;
  out->scope_prefix = scope;
  out->address_len = static_cast<std::uint8_t>(addr_bytes);
  out->address.fill(0);
  for (std::size_t i = 0; i < addr_bytes; ++i) out->address[i] = data[pos + i];
  // Mask bits past the prefix so equal subnets hash equally regardless of
  // what the resolver left in the tail of the last byte.
  const std::uint8_t tail_bits = static_cast<std::uint8_t>(source % 8);
  if (tail_bits != 0 && addr_bytes > 0) {
    out->address[addr_bytes - 1] &=
        static_cast<std::uint8_t>(0xff << (8 - tail_bits));
  }
  return true;
}

}  // namespace

EcsResult extract_client_subnet(const std::uint8_t* data, std::size_t size,
                                ClientSubnet* out) {
  std::size_t pos = 0;
  // Header: id + flags + 4 counts.
  if (size < 12) return EcsResult::kAbsent;
  const std::uint16_t qdcount = static_cast<std::uint16_t>((data[4] << 8) | data[5]);
  const std::uint16_t ancount = static_cast<std::uint16_t>((data[6] << 8) | data[7]);
  const std::uint16_t nscount = static_cast<std::uint16_t>((data[8] << 8) | data[9]);
  const std::uint16_t arcount = static_cast<std::uint16_t>((data[10] << 8) | data[11]);
  if (arcount == 0) return EcsResult::kAbsent;  // an OPT RR can only live there
  pos = 12;

  // Skip the question section.
  for (std::uint16_t q = 0; q < qdcount; ++q) {
    if (!decode_name(data, size, &pos, nullptr)) return EcsResult::kMalformed;
    if (pos + 4 > size) return EcsResult::kMalformed;
    pos += 4;  // qtype + qclass
  }

  // Walk every RR; the OPT pseudo-RR is conventionally in the additional
  // section but a lying count puts it anywhere, so just scan all of them.
  const std::uint32_t rrs = static_cast<std::uint32_t>(ancount) + nscount + arcount;
  for (std::uint32_t r = 0; r < rrs; ++r) {
    if (!decode_name(data, size, &pos, nullptr)) return EcsResult::kMalformed;
    std::uint16_t type = 0, klass = 0, rdlength = 0;
    if (!get16be(data, size, &pos, &type) || !get16be(data, size, &pos, &klass)) {
      return EcsResult::kMalformed;
    }
    if (pos + 4 > size) return EcsResult::kMalformed;
    pos += 4;  // ttl (OPT: extended rcode + flags)
    if (!get16be(data, size, &pos, &rdlength)) return EcsResult::kMalformed;
    if (pos + rdlength > size) return EcsResult::kMalformed;
    if (type == kTypeOpt) {
      // Walk the option list inside this OPT's rdata.
      std::size_t opt_pos = pos;
      const std::size_t opt_end = pos + rdlength;
      while (opt_pos < opt_end) {
        std::uint16_t code = 0, optlen = 0;
        if (!get16be(data, opt_end, &opt_pos, &code) ||
            !get16be(data, opt_end, &opt_pos, &optlen)) {
          return EcsResult::kMalformed;
        }
        if (opt_pos + optlen > opt_end) return EcsResult::kMalformed;
        if (code == kOptionClientSubnet) {
          return parse_ecs_payload(data + opt_pos, optlen, out) ? EcsResult::kPresent
                                                                : EcsResult::kMalformed;
        }
        opt_pos += optlen;
      }
      // An OPT without an ECS option: keep scanning (another OPT may lie
      // later; real servers would FORMERR duplicates, we only need a key).
    }
    pos += rdlength;
  }
  return EcsResult::kAbsent;
}

std::uint64_t subnet_hash(const ClientSubnet& subnet) {
  // FNV-1a over family, prefix and the masked address bytes.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint8_t>(subnet.family >> 8));
  mix(static_cast<std::uint8_t>(subnet.family & 0xff));
  mix(subnet.source_prefix);
  for (std::uint8_t i = 0; i < subnet.address_len; ++i) mix(subnet.address[i]);
  return h;
}

web::DomainId derive_domain_key(const std::uint8_t* data, std::size_t size,
                                std::uint32_t src_ip_host, std::uint16_t src_port,
                                int num_domains, bool ecs_enabled,
                                DomainKeySource* source) {
  const auto domains = static_cast<std::uint64_t>(num_domains);
  if (ecs_enabled) {
    ClientSubnet subnet;
    switch (extract_client_subnet(data, size, &subnet)) {
      case EcsResult::kPresent:
        if (source) *source = DomainKeySource::kEcs;
        return static_cast<web::DomainId>(subnet_hash(subnet) % domains);
      case EcsResult::kMalformed:
        if (source) *source = DomainKeySource::kMalformedFallback;
        return static_cast<web::DomainId>(source_hash(src_ip_host, src_port) % domains);
      case EcsResult::kAbsent:
        break;
    }
  }
  if (source) *source = DomainKeySource::kSourceHash;
  return static_cast<web::DomainId>(source_hash(src_ip_host, src_port) % domains);
}

void append_ecs_option(std::vector<std::uint8_t>* query, const ClientSubnet& subnet,
                       std::uint16_t udp_payload_size) {
  if (query->size() < 12) return;
  const auto put16 = [query](std::uint16_t v) {
    query->push_back(static_cast<std::uint8_t>(v >> 8));
    query->push_back(static_cast<std::uint8_t>(v & 0xff));
  };
  query->push_back(0);  // root owner name
  put16(kTypeOpt);
  put16(udp_payload_size);  // "class" carries the UDP payload size
  query->push_back(0);      // extended rcode
  query->push_back(0);      // EDNS version
  put16(0);                 // flags
  const std::uint16_t optlen = static_cast<std::uint16_t>(4 + subnet.address_len);
  put16(static_cast<std::uint16_t>(4 + optlen));  // rdlength
  put16(kOptionClientSubnet);
  put16(optlen);
  put16(subnet.family);
  query->push_back(subnet.source_prefix);
  query->push_back(subnet.scope_prefix);
  for (std::uint8_t i = 0; i < subnet.address_len; ++i) {
    query->push_back(subnet.address[i]);
  }
  // Bump arcount (bytes 10/11 of the header).
  const std::uint16_t arcount =
      static_cast<std::uint16_t>(((*query)[10] << 8) | (*query)[11]) + 1;
  (*query)[10] = static_cast<std::uint8_t>(arcount >> 8);
  (*query)[11] = static_cast<std::uint8_t>(arcount & 0xff);
}

}  // namespace adattl::dnswire
