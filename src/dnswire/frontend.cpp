#include "dnswire/frontend.h"

#include <cctype>
#include <stdexcept>

namespace adattl::dnswire {

DnsFrontend::DnsFrontend(core::DnsScheduler& scheduler, std::string site_name,
                         std::vector<std::uint32_t> server_ipv4,
                         std::vector<Ipv6> server_ipv6)
    : scheduler_(scheduler), site_name_(std::move(site_name)),
      server_ipv4_(std::move(server_ipv4)), server_ipv6_(std::move(server_ipv6)) {
  if (site_name_.empty()) throw std::invalid_argument("DnsFrontend: empty site name");
  if (server_ipv4_.empty()) throw std::invalid_argument("DnsFrontend: no server addresses");
  if (server_ipv6_.empty()) {
    // Dual-stack without native v6: AAAA answers carry the v4-mapped form.
    server_ipv6_.reserve(server_ipv4_.size());
    for (std::uint32_t v4 : server_ipv4_) server_ipv6_.push_back(v4_mapped_ipv6(v4));
  } else if (server_ipv6_.size() != server_ipv4_.size()) {
    throw std::invalid_argument("DnsFrontend: server_ipv6 size must match server_ipv4");
  }
  for (char& c : site_name_) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  // Every answer echoes this name (positive answers anchor their A record
  // on it), so a name the wire format cannot express would turn each
  // response into a silent drop. Fail construction instead.
  std::vector<std::uint8_t> scratch;
  if (!encode_name(site_name_, &scratch)) {
    throw std::invalid_argument("DnsFrontend: site name is not encodable as a DNS name");
  }
  site_question_ = {site_name_, kTypeA, kClassIn};
}

void DnsFrontend::set_outages(const fault::DnsOutageCalendar* calendar,
                              const sim::Simulator* clock) {
  if ((calendar == nullptr) != (clock == nullptr)) {
    throw std::invalid_argument("DnsFrontend: calendar and clock must be set together");
  }
  outages_ = calendar;
  clock_ = clock;
}

void DnsFrontend::handle(const std::vector<std::uint8_t>& query, web::DomainId source_domain,
                         std::vector<std::uint8_t>* reply) {
  Header header;
  Question& question = question_;
  const auto refuse = [&](const Question& echo, std::uint8_t rcode) {
    ++errors_;
    encode_a_response(header, echo, 0, 0, rcode, reply);
  };
  if (!decode_query(query, &header, &question)) {
    if (query.size() < 2) {  // cannot even echo an id: drop
      ++errors_;
      reply->clear();
      return;
    }
    // Enough header to answer FORMERR; echo what we parsed (qdcount may be
    // wrong, so answer with the site's own question via a minimal message).
    header.id = static_cast<std::uint16_t>((query[0] << 8) | query[1]);
    return refuse(site_question_, kRcodeFormErr);
  }
  if (header.qr || header.opcode != 0) return refuse(question, kRcodeFormErr);
  if ((question.qtype != kTypeA && question.qtype != kTypeAaaa) ||
      question.qclass != kClassIn) {
    return refuse(question, kRcodeNotImp);
  }
  if (question.qname != site_name_) return refuse(question, kRcodeNxDomain);

  if (outages_ && outages_->unreachable(clock_->now())) {
    // The question was valid — this is our outage, not the client's
    // mistake. SERVFAIL tells the resolver to retry later; no scheduling
    // decision is consumed (the scheduler is the thing that is down).
    ++outage_failures_;
    encode_a_response(header, question, 0, 0, kRcodeServFail, reply);
    return;
  }

  const core::Decision decision = scheduler_.schedule(source_domain);
  const auto server = static_cast<std::size_t>(decision.server);
  if (server >= server_ipv4_.size()) return refuse(question, kRcodeRefused);
  ++answered_;
  // DNS TTLs are integral seconds; never round an adaptive TTL down to 0.
  const auto ttl = static_cast<std::uint32_t>(decision.ttl_sec < 1.0 ? 1.0 : decision.ttl_sec);
  if (question.qtype == kTypeAaaa) {
    encode_aaaa_response(header, question, server_ipv6_[server], ttl, kRcodeNoError, reply);
  } else {
    encode_a_response(header, question, server_ipv4_[server], ttl, kRcodeNoError, reply);
  }
}

}  // namespace adattl::dnswire
