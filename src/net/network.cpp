#include "net/network.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace xcp::net {

Network& Actor::net() const {
  XCP_REQUIRE(net_ != nullptr, "actor not attached to a network");
  return *net_;
}

void Actor::send(sim::ProcessId to, MsgKind kind, BodyPtr body) {
  net().send(id(), to, kind, std::move(body));
}

Network::Network(sim::Simulator& sim, std::unique_ptr<DelayModel> model,
                 props::TraceRecorder* trace)
    : sim_(sim), model_(std::move(model)), trace_(trace), rng_(sim.rng().fork()) {
  XCP_REQUIRE(model_ != nullptr, "network needs a delay model");
}

void Network::attach(Actor& actor) {
  XCP_REQUIRE(actor.id().valid(), "attach before spawning");
  actor.net_ = this;
  const std::uint32_t v = actor.id().value();
  if (v >= actors_.size()) actors_.resize(v + 1);
  actors_[v].actor = &actor;
}

void Network::send(sim::ProcessId from, sim::ProcessId to, MsgKind kind,
                   BodyPtr body) {
  Message m;
  m.id = next_message_id_++;
  m.from = from;
  m.to = to;
  m.kind = kind;
  m.body = std::move(body);

  const TimePoint now = sim_.now();
  ++stats_.messages_sent;

  if (trace_) {
    props::TraceEvent e;
    e.kind = props::EventKind::kSend;
    e.at = now;
    e.local_at = sim_.process(from).local_now();
    e.actor = from;
    e.peer = to;
    e.label = props::Label::from_wire(m.kind.value());
    trace_->record(e);
  }

  // Seam: a send to an id not attached here leaves the process through the
  // gateway transport (when installed). The kSend trace record above still
  // fires — the local trace keeps the send — but the local loss model and
  // delay model do not apply; the remote link is real. Without a gateway
  // the message takes the historical path (scheduled, dropped at delivery).
  if (gateway_ != nullptr) {
    ActorEntry* dest = entry_for(to);
    if (dest == nullptr || dest->actor == nullptr) {
      ++stats_.messages_gatewayed;
      gateway_->send(m);
      return;
    }
  }

  if (drop_probability_ > 0.0 && rng_.next_bool(drop_probability_)) {
    ++stats_.messages_dropped;
    if (trace_) {
      props::TraceEvent e;
      e.kind = props::EventKind::kDrop;
      e.at = now;
      e.local_at = now;
      e.actor = from;
      e.peer = to;
      e.label = props::Label::from_wire(m.kind.value());
      trace_->record(e);
    }
    return;
  }

  // Delivery time: adversary proposal (if any) clamped into the synchrony
  // model's legal envelope; otherwise the model's own sample.
  TimePoint deliver_at = now + model_->sample(m, now, rng_);
  if (adversary_ != nullptr) {
    if (auto proposal = adversary_->propose_delivery(m, now)) {
      deliver_at = *proposal;
    }
  }
  const TimePoint latest = model_->latest_delivery(m, now);
  deliver_at = std::clamp(deliver_at, now, latest);

  // Batched delivery: coalesce same-(destination, instant) messages into
  // one event. The first message opens a batch and schedules its event;
  // later sends resolving to the same instant append for free. Committee
  // broadcasts under a fixed-delay model and adversarial hold-until
  // releases collapse from m events to one.
  ActorEntry* found = entry_for(to);
  if (found == nullptr || found->actor == nullptr) {
    // Unattached destination: one event per message, dropped at delivery.
    sim_.schedule_at(deliver_at, [this, m = std::move(m)] { deliver(m); });
    return;
  }
  ActorEntry& entry = *found;
  if (entry.open_batch == kNone || entry.open_at != deliver_at) {
    const std::uint32_t bi = acquire_batch();
    batches_[bi].to = to;
    entry.open_batch = bi;
    entry.open_at = deliver_at;
    sim_.schedule_at(deliver_at, [this, bi] { deliver_batch(bi); });
  }
  enqueue(entry.open_batch, std::move(m));
}

void Network::inject(Message m) {
  m.id = next_message_id_++;
  ++stats_.messages_injected;
  sim_.schedule_at(sim_.now(), [this, m = std::move(m)] { deliver(m); });
}

std::uint32_t Network::acquire_batch() {
  if (free_batch_ != kNone) {
    const std::uint32_t bi = free_batch_;
    free_batch_ = batches_[bi].next_free;
    return bi;
  }
  batches_.emplace_back();
  return static_cast<std::uint32_t>(batches_.size() - 1);
}

std::uint32_t Network::acquire_slot() {
  if (free_slot_ != kNone) {
    const std::uint32_t si = free_slot_;
    free_slot_ = slots_[si].next;
    return si;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Network::enqueue(std::uint32_t batch_idx, Message m) {
  const std::uint32_t si = acquire_slot();
  slots_[si].msg = std::move(m);
  slots_[si].next = kNone;
  Batch& b = batches_[batch_idx];
  if (b.tail == kNone) {
    b.head = si;
  } else {
    slots_[b.tail].next = si;
  }
  b.tail = si;
}

void Network::record_deliver(const Message& m, TimePoint local_at) {
  ++stats_.messages_delivered;
  if (trace_) {
    props::TraceEvent e;
    e.kind = props::EventKind::kDeliver;
    e.at = sim_.now();
    e.local_at = local_at;
    e.actor = m.to;
    e.peer = m.from;
    e.label = props::Label::from_wire(m.kind.value());
    trace_->record(e);
  }
}

void Network::deliver(Message m) {
  ActorEntry* entry = entry_for(m.to);
  if (entry == nullptr || entry->actor == nullptr) {
    ++stats_.messages_dropped;
    return;
  }
  Actor& actor = *entry->actor;
  record_deliver(m, actor.local_now());
  actor.on_message(m);
}

void Network::deliver_batch(std::uint32_t batch_idx) {
  // Close the batch *before* delivering: a handler may send to this same
  // destination at this same instant, which must open a fresh batch (and a
  // fresh event) rather than append to the one being drained. The batch
  // goes back to its freelist at once; only its chain is still walked.
  Batch& batch = batches_[batch_idx];
  const sim::ProcessId to = batch.to;
  std::uint32_t si = batch.head;
  batch.head = batch.tail = kNone;
  batch.next_free = free_batch_;
  free_batch_ = batch_idx;
  if (ActorEntry* entry = entry_for(to);
      entry != nullptr && entry->open_batch == batch_idx) {
    entry->open_batch = kNone;
  }
  while (si != kNone) {
    // Move the message out and free its slot before the handler runs:
    // handlers send, which can grow slots_ (invalidating references).
    Slot& slot = slots_[si];
    const Message m = std::move(slot.msg);
    const std::uint32_t next = slot.next;
    slot.next = free_slot_;
    free_slot_ = si;
    si = next;
    // Re-resolve per message: a handler's attach() may grow actors_,
    // invalidating entry pointers mid-loop.
    ActorEntry* entry = entry_for(to);
    Actor* actor = entry == nullptr ? nullptr : entry->actor;
    if (actor == nullptr) {
      ++stats_.messages_dropped;
      continue;
    }
    record_deliver(m, actor->local_now());
    actor->on_message(m);
  }
}

}  // namespace xcp::net
