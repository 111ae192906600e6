#include "proto/deal_spec.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace xcp::proto {

DealSpec DealSpec::uniform(std::uint64_t deal_id, int n, std::int64_t base,
                           std::int64_t commission, Currency currency) {
  DealSpec s;
  s.deal_id = deal_id;
  s.n = n;
  for (int i = 0; i < n; ++i) {
    s.hop.emplace_back(base + static_cast<std::int64_t>(n - 1 - i) * commission,
                       currency);
  }
  s.validate();
  return s;
}

DealSpec DealSpec::explicit_hops(std::uint64_t deal_id,
                                 std::vector<Amount> hops) {
  DealSpec s;
  s.deal_id = deal_id;
  s.n = static_cast<int>(hops.size());
  s.hop = std::move(hops);
  s.validate();
  return s;
}

void DealSpec::validate() const {
  XCP_REQUIRE(n >= 1, "deal needs at least one escrow");
  XCP_REQUIRE(static_cast<int>(hop.size()) == n, "need one hop value per escrow");
  for (const Amount& a : hop) {
    XCP_REQUIRE(a.units() > 0, "hop amounts must be positive");
  }
}

bool Participants::is_escrow(sim::ProcessId pid) const {
  return std::find(escrows.begin(), escrows.end(), pid) != escrows.end();
}

std::string Participants::role_name(sim::ProcessId pid) const {
  for (std::size_t i = 0; i < customers.size(); ++i) {
    if (customers[i] == pid) {
      if (i == 0) return "alice";
      if (i + 1 == customers.size()) return "bob";
      return "chloe_" + std::to_string(i);
    }
  }
  for (std::size_t i = 0; i < escrows.size(); ++i) {
    if (escrows[i] == pid) return "escrow_" + std::to_string(i);
  }
  return "?";
}

}  // namespace xcp::proto
