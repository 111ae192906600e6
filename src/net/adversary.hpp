#pragma once
// Network adversaries: control over message *timing* within the synchrony
// model's legal envelope. This is the tool the impossibility argument of
// Theorem 2 wields — e.g. holding the certificate chi in flight just past an
// escrow's acceptance deadline while every delivery still respects the
// partially-synchronous contract.
//
// The adversary proposes delivery times; the Network clamps each proposal to
// DelayModel::latest_delivery, so no adversary can break synchrony itself.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "support/time.hpp"

namespace xcp::net {

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Returns the adversary's proposed delivery time for `m` sent at `now`,
  /// or nullopt to accept the model's default sample.
  virtual std::optional<TimePoint> propose_delivery(const Message& m,
                                                    TimePoint now) = 0;
};

/// Declarative targeted-delay rules, sufficient for all experiments:
/// "delay every message matching PRED until time T".
class RuleBasedAdversary final : public Adversary {
 public:
  using Predicate = std::function<bool(const Message&)>;

  /// Messages matching `pred` are held until at least `release_at`.
  void hold_until(Predicate pred, TimePoint release_at);

  std::optional<TimePoint> propose_delivery(const Message& m,
                                            TimePoint now) override;

  // Common predicates.
  static Predicate kind_is(MsgKind kind);
  static Predicate to_process(sim::ProcessId pid);
  static Predicate from_process(sim::ProcessId pid);
  static Predicate all_of(std::vector<Predicate> preds);

 private:
  struct Rule {
    Predicate pred;
    TimePoint release_at;
  };
  std::vector<Rule> rules_;
};

/// Simulates a network partition: messages across the cut are held until the
/// partition heals. Group membership is a predicate over process ids.
class PartitionAdversary final : public Adversary {
 public:
  PartitionAdversary(std::function<bool(sim::ProcessId)> in_group_a,
                     TimePoint heal_at);

  std::optional<TimePoint> propose_delivery(const Message& m,
                                            TimePoint now) override;

 private:
  std::function<bool(sim::ProcessId)> in_group_a_;
  TimePoint heal_at_;
};

}  // namespace xcp::net
