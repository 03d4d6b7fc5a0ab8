#pragma once

#include <cstdint>

namespace adattl::web {

/// Index of a Web server within the distributed site, 0-based; servers are
/// numbered in decreasing capacity (S_1 is index 0), matching the paper.
using ServerId = int;

/// Index of a client domain, 0-based; domains are numbered in decreasing
/// popularity (domain 0 is the busiest under Zipf rank 1).
using DomainId = int;

/// Who a page reports back to. A server calls one of these at most once
/// per page (a page still queued when the run stops hears nothing), with
/// the token the page was submitted with. Implementations must not
/// resubmit from page_failed synchronously; schedule a retry through the
/// simulator. Resubmitting from page_done is fine: the server has already
/// moved on to its next job.
class PageClient {
 public:
  /// The last hit of the page has been served.
  virtual void page_done(std::uint32_t token) = 0;
  /// The page is lost: the target server rejected the submission (crashed)
  /// or dropped the page mid-service (crash while queued or in flight).
  virtual void page_failed(std::uint32_t token) = 0;

 protected:
  /// Clients are never owned through this interface.
  ~PageClient() = default;
};

/// One page request: a burst of `hits` HTTP hits (the HTML page plus its
/// embedded objects) served back-to-back by one server. The page names the
/// client to tell and a token the client chose (the client pool uses the
/// client's index); a null client means nobody is told, and the loss or
/// completion shows only in the server-side counters. 24 bytes, trivially
/// copyable.
struct PageRequest {
  DomainId domain = 0;
  int hits = 1;
  PageClient* client = nullptr;
  std::uint32_t token = 0;
};

}  // namespace adattl::web
