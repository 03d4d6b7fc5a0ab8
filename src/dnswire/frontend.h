#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "dnswire/message.h"

namespace adattl::dnswire {

/// Adapts a core::DnsScheduler into an authoritative DNS answer generator:
/// feed it the raw bytes of a query plus the requester's domain id (in a
/// real deployment: derived from the resolver's address or EDNS client
/// subnet), get back the raw bytes of the response — an A or AAAA record
/// whose address is the chosen server and whose TTL is the policy's
/// adaptive TTL. This is the zero-to-deployment bridge: bind a UDP
/// socket, call handle() per datagram, and the paper's algorithms serve
/// real resolvers.
///
/// Error handling follows authoritative-server convention: malformed
/// queries get FORMERR (when the id is recoverable), questions that are
/// neither A/IN nor AAAA/IN get NOTIMP, names we are not authoritative
/// for get NXDOMAIN — and none of those consume a scheduling decision.
class DnsFrontend {
 public:
  /// `site_name`: the one name this site is authoritative for (dotted,
  /// case-insensitive). `server_ipv4`: address of each server, index ==
  /// ServerId, host byte order. `server_ipv6`: optional native IPv6
  /// addresses (same indexing); when empty, AAAA answers carry the
  /// v4-mapped form ::ffff:a.b.c.d of the corresponding IPv4.
  DnsFrontend(core::DnsScheduler& scheduler, std::string site_name,
              std::vector<std::uint32_t> server_ipv4,
              std::vector<Ipv6> server_ipv6 = {});

  /// Answers one query datagram into `reply` (cleared first; its capacity
  /// is kept, so a reused buffer allocates nothing). Always writes a
  /// well-formed response when at least the query header was readable;
  /// leaves `reply` empty only when not even the id could be recovered
  /// (drop the datagram).
  void handle(const std::vector<std::uint8_t>& query, web::DomainId source_domain,
              std::vector<std::uint8_t>* reply);

  std::uint64_t answered() const { return answered_; }
  std::uint64_t refused() const { return errors_; }

 private:
  core::DnsScheduler& scheduler_;
  std::string site_name_;  // stored lower-cased
  std::vector<std::uint32_t> server_ipv4_;
  std::vector<Ipv6> server_ipv6_;  // always sized like server_ipv4_
  Question site_question_;  // echoed by FORMERR answers
  Question question_;       // decode target, reused so its name keeps its capacity
  std::uint64_t answered_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace adattl::dnswire
