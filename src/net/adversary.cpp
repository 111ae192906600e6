#include "net/adversary.hpp"

#include <algorithm>

namespace xcp::net {

void RuleBasedAdversary::hold_until(Predicate pred, TimePoint release_at) {
  rules_.push_back(Rule{std::move(pred), release_at});
}

std::optional<TimePoint> RuleBasedAdversary::propose_delivery(const Message& m,
                                                              TimePoint now) {
  std::optional<TimePoint> proposal;
  for (const Rule& rule : rules_) {
    if (!rule.pred(m)) continue;
    const TimePoint t = std::max(now, rule.release_at);
    proposal = proposal ? std::max(*proposal, t) : t;
  }
  return proposal;
}

RuleBasedAdversary::Predicate RuleBasedAdversary::kind_is(MsgKind kind) {
  return [kind](const Message& m) { return m.kind == kind; };
}

RuleBasedAdversary::Predicate RuleBasedAdversary::to_process(sim::ProcessId pid) {
  return [pid](const Message& m) { return m.to == pid; };
}

RuleBasedAdversary::Predicate RuleBasedAdversary::from_process(sim::ProcessId pid) {
  return [pid](const Message& m) { return m.from == pid; };
}

RuleBasedAdversary::Predicate RuleBasedAdversary::all_of(
    std::vector<Predicate> preds) {
  return [preds = std::move(preds)](const Message& m) {
    return std::all_of(preds.begin(), preds.end(),
                       [&m](const Predicate& p) { return p(m); });
  };
}

PartitionAdversary::PartitionAdversary(
    std::function<bool(sim::ProcessId)> in_group_a, TimePoint heal_at)
    : in_group_a_(std::move(in_group_a)), heal_at_(heal_at) {}

std::optional<TimePoint> PartitionAdversary::propose_delivery(const Message& m,
                                                              TimePoint now) {
  const bool crosses_cut = in_group_a_(m.from) != in_group_a_(m.to);
  if (!crosses_cut || now >= heal_at_) return std::nullopt;
  return heal_at_;
}

}  // namespace xcp::net
