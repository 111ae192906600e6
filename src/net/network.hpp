#pragma once
// The message transport, tying processes, delay model and adversary to the
// simulator. `Actor` is the base class for every protocol participant: a
// simulated process that can receive messages.

#include <cstdint>
#include <memory>
#include <vector>

#include "net/adversary.hpp"
#include "net/delay_model.hpp"
#include "net/message.hpp"
#include "props/trace.hpp"
#include "sim/simulator.hpp"

namespace xcp::net {

class Network;

/// A process that participates in message exchange.
class Actor : public sim::Process {
 public:
  virtual void on_message(const Message& m) = 0;

 protected:
  Network& net() const;
  /// Sends `body` to `to`; delivery time is governed by the network.
  void send(sim::ProcessId to, MsgKind kind, BodyPtr body = nullptr);

 private:
  friend class Network;
  Network* net_ = nullptr;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_gatewayed = 0;  // handed to the egress transport
  std::uint64_t messages_injected = 0;   // arrived from a remote transport
};

/// Abstract egress backend for messages addressed to process ids that are
/// not attached to this Network — the seam that lets the same protocol
/// actors run over real sockets in separate processes as well as in-sim.
/// Backends: SimTransport (net/transport.hpp) and SocketTransport
/// (net/socket_transport.hpp).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(const Message& m) = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, std::unique_ptr<DelayModel> model,
          props::TraceRecorder* trace = nullptr);

  /// Registers an actor (already spawned in the simulator) for delivery.
  void attach(Actor& actor);

  /// Timing adversary; may be null. Not owned.
  void set_adversary(Adversary* adversary) { adversary_ = adversary; }

  /// Egress transport for sends to unattached ids; may be null (then such
  /// sends are dropped at delivery time, the pre-seam behaviour — in-sim
  /// runs that never set a gateway are bit-identical to before the seam
  /// existed). Not owned.
  void set_gateway(Transport* gateway) { gateway_ = gateway; }

  /// Delivers a message that arrived from a remote transport: stamps a
  /// fresh local id and schedules delivery at the current instant, so the
  /// receive runs inside the event loop with normal tracing and stats.
  void inject(Message m);

  /// Sends a message; computes the delivery time as
  ///   clamp(adversary proposal or model sample)  within the legal envelope
  /// and schedules delivery. Messages to unattached ids are dropped.
  ///
  /// Delivery to attached actors is batched: messages to the same
  /// destination with the same delivery instant coalesce into one simulator
  /// event carrying the whole batch, which cuts per-message callable/heap
  /// overhead in committee broadcasts and adversarial release storms.
  /// Per-destination delivery order, trace records and stats stay per
  /// message; appended messages execute at the batch's (earlier) event
  /// sequence, so a timer or another destination's delivery scheduled
  /// between two coalesced sends runs after both.
  void send(sim::ProcessId from, sim::ProcessId to, MsgKind kind,
            BodyPtr body);

  /// Message loss injection: each message is dropped with probability p.
  /// (Only meaningful for experiments that explicitly model lossy links;
  /// the paper's models assume reliable delivery, so the default is 0.)
  void set_drop_probability(double p) { drop_probability_ = p; }

  const NetworkStats& stats() const { return stats_; }
  DelayModel& model() { return *model_; }
  sim::Simulator& simulator() { return sim_; }
  props::TraceRecorder* trace() { return trace_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One pending message in the Network-wide slab. `next` links the slot
  /// into its batch's FIFO chain, or into the freelist once delivered.
  struct Slot {
    Message msg;
    std::uint32_t next = kNone;
  };

  /// A pending same-(destination, instant) delivery batch: a head/tail
  /// chain of slots. Batches and slots are both slab-allocated and
  /// recycled through freelists, so steady-state batching allocates
  /// nothing, whatever the batch sizes.
  struct Batch {
    sim::ProcessId to;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t next_free = kNone;
  };

  struct ActorEntry {
    Actor* actor = nullptr;
    // The still-open batch for this destination, if any: subsequent sends
    // resolving to the same instant append to it instead of scheduling.
    std::uint32_t open_batch = kNone;
    TimePoint open_at;
  };

  void deliver(Message m);
  void deliver_batch(std::uint32_t batch_idx);
  void enqueue(std::uint32_t batch_idx, Message m);
  std::uint32_t acquire_batch();
  std::uint32_t acquire_slot();
  void record_deliver(const Message& m, TimePoint local_at);

  /// O(1) flat lookup: ProcessIds are dense simulator-assigned indices.
  /// Returns nullptr for ids never attached. (The entry for an attached id
  /// has a non-null actor.)
  ActorEntry* entry_for(sim::ProcessId pid) {
    const std::uint32_t v = pid.value();
    return v < actors_.size() ? &actors_[v] : nullptr;
  }

  sim::Simulator& sim_;
  std::unique_ptr<DelayModel> model_;
  props::TraceRecorder* trace_;
  Adversary* adversary_ = nullptr;
  Transport* gateway_ = nullptr;
  std::vector<ActorEntry> actors_;  // indexed by ProcessId value
  std::vector<Batch> batches_;
  std::uint32_t free_batch_ = kNone;
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNone;
  std::uint64_t next_message_id_ = 1;
  double drop_probability_ = 0.0;
  Rng rng_;
  NetworkStats stats_;
};

}  // namespace xcp::net
