#pragma once
// The payment deal: who pays whom how much along the chain of Fig. 1.
//
//   c_0 (Alice) --v_0--> e_0 --v_0--> c_1 --v_1--> e_1 --...--> c_n (Bob)
//
// Customer c_i pays v_i into escrow e_i, which (on success) pays v_i out to
// c_{i+1}. The per-hop values may differ — "the value transferred from Alice
// to Chloe might be larger than the value transferred from Chloe to Bob"
// (commissions) — and may be in different currencies. Choosing the values is
// orthogonal to the protocol (Sec. 2); DealSpec just records them.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "support/amount.hpp"

namespace xcp::proto {

struct DealSpec {
  std::uint64_t deal_id = 1;
  int n = 1;                     // number of escrows; customers are c_0..c_n
  std::vector<Amount> hop;       // hop[i] = v_i, size n

  int customer_count() const { return n + 1; }
  int connector_count() const { return n - 1; }
  Amount hop_amount(int i) const { return hop.at(static_cast<std::size_t>(i)); }

  /// Single-currency deal: Bob receives `base`; every connector earns
  /// `commission`, so v_i = base + (n-1-i) * commission (Alice pays most).
  static DealSpec uniform(std::uint64_t deal_id, int n, std::int64_t base,
                          std::int64_t commission,
                          Currency currency = Currency::generic());

  /// Fully explicit hop values (cross-currency deals).
  static DealSpec explicit_hops(std::uint64_t deal_id, std::vector<Amount> hops);

  /// Structural checks: n >= 1, n hop values, positive amounts.
  void validate() const;

  bool operator==(const DealSpec&) const = default;
};

/// The cast of a run: process ids for c_0..c_n and e_0..e_{n-1}, in the
/// Fig. 1 arrangement. Filled by the protocol runner at spawn time.
struct Participants {
  std::vector<sim::ProcessId> customers;  // size n+1
  std::vector<sim::ProcessId> escrows;    // size n

  int n() const { return static_cast<int>(escrows.size()); }
  sim::ProcessId alice() const { return customers.front(); }
  sim::ProcessId bob() const { return customers.back(); }
  sim::ProcessId customer(int i) const {
    return customers.at(static_cast<std::size_t>(i));
  }
  sim::ProcessId escrow(int i) const {
    return escrows.at(static_cast<std::size_t>(i));
  }

  bool is_escrow(sim::ProcessId pid) const;
  /// "alice" / "bob" / "chloe_i" / "escrow_i" / "?" for tracing and tables.
  std::string role_name(sim::ProcessId pid) const;

  bool operator==(const Participants&) const = default;
};

}  // namespace xcp::proto
