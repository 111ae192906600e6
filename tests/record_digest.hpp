#pragma once
// One digest over everything a sim run produces: the whole trace, the run
// stats, the online verdicts and every participant's outcome. Two runs
// with equal digests are byte-identical for every checker. Shared by the
// golden-digest suite and the sweep tests that compare runs.

#include <cstdint>
#include <string>
#include <vector>

#include "proto/outcome.hpp"
#include "support/hash.hpp"

namespace xcp {

inline void write_amounts(HashWriter& w, const std::vector<Amount>& amounts) {
  w.write_u64(amounts.size());
  for (const Amount& a : amounts) w.write_str(a.str());
}

inline std::uint64_t record_digest(const proto::RunRecord& r) {
  HashWriter w;
  w.write_str(r.protocol);
  for (const auto& e : r.trace.events()) {
    w.write_u32(static_cast<std::uint32_t>(e.kind));
    w.write_i64(e.at.count());
    w.write_i64(e.local_at.count());
    w.write_u32(e.actor.value());
    w.write_u32(e.peer.value());
    w.write_str(e.label.name());
    w.write_str(e.amount ? e.amount->str() : std::string("-"));
    w.write_u64(e.deal_id);
  }
  w.write_u64(r.stats.messages_sent);
  w.write_u64(r.stats.messages_delivered);
  w.write_u64(r.stats.messages_dropped);
  w.write_u64(r.stats.events_executed);
  w.write_i64(r.stats.end_time.count());
  w.write_u32(r.stats.drained ? 1 : 0);
  w.write_u32(r.online.attached ? 1 : 0);
  w.write_u32(r.online.early_stopped ? 1 : 0);
  w.write_u32(static_cast<std::uint32_t>(r.online.termination));
  w.write_u32(static_cast<std::uint32_t>(r.online.liveness));
  w.write_u32(static_cast<std::uint32_t>(r.online.cert_consistency));
  w.write_u32(static_cast<std::uint32_t>(r.online.abort_freedom));
  w.write_i64(r.online.decided_at.count());
  w.write_u64(r.online.decided_seq);
  w.write_u64(r.online.events_seen);
  for (const auto& p : r.participants) {
    w.write_u32(p.pid.value());
    w.write_str(p.role);
    w.write_u32((p.abiding ? 1u : 0u) | (p.is_escrow ? 2u : 0u) |
                (p.terminated ? 4u : 0u) |
                (p.issued_payment_cert ? 8u : 0u) |
                (p.received_payment_cert ? 16u : 0u) |
                (p.received_commit_cert ? 32u : 0u) |
                (p.received_abort_cert ? 64u : 0u));
    w.write_i64(p.terminated_local.count());
    w.write_i64(p.terminated_global.count());
    w.write_i64(p.local_at_start.count());
    w.write_str(p.final_state);
    write_amounts(w, p.initial_holdings);
    write_amounts(w, p.final_holdings);
  }
  return w.digest();
}

}  // namespace xcp
