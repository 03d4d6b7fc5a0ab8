// A web::PageClient for tests: records the token of every page_done and
// page_failed in the order the server reported them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "web/types.h"

namespace adattl::web {

class PageRecorder final : public PageClient {
 public:
  /// A page of `hits` hits from `domain` that reports to this recorder.
  PageRequest page(DomainId domain, int hits, std::uint32_t token = 0) {
    return PageRequest{domain, hits, this, token};
  }

  void page_done(std::uint32_t token) override {
    done.push_back(token);
    if (then_on_done) then_on_done(token);
  }
  void page_failed(std::uint32_t token) override { failed.push_back(token); }

  std::vector<std::uint32_t> done;
  std::vector<std::uint32_t> failed;
  /// Runs after each page_done is recorded; a test may resubmit from here.
  std::function<void(std::uint32_t)> then_on_done;
};

}  // namespace adattl::web
