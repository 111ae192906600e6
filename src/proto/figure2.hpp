#pragma once
// Builders for the Figure-2 automata: one ANTA automaton per participant of
// the time-bounded protocol (escrow e_i, connector Chloe_i, Alice, Bob),
// parameterized by the deal and the timelock schedule.
//
// The automata match the figure state-for-state; semantic obligations the
// figure leaves implicit (verifying that "$" is real money, that chi is
// Bob's signature on this deal, that promised amounts match the deal) are
// attached as accept/effect callbacks, because an abiding participant in the
// Byzantine model must validate everything it reacts to.
//
// The automata depend only on the deal's structure (Fig2Context), never on
// the seed: the ledger, escrows, keys and trace of one run reach their
// callbacks through the interpreter's bindings (Fig2Run).

#include <memory>
#include <optional>
#include <vector>

#include "anta/automaton.hpp"
#include "anta/interpreter.hpp"
#include "crypto/certificate.hpp"
#include "ledger/escrow.hpp"
#include "ledger/ledger.hpp"
#include "proto/deal_spec.hpp"
#include "proto/timelock_schedule.hpp"
#include "props/trace.hpp"

namespace xcp::proto {

/// Everything the automata's structure depends on. Shared (via shared_ptr)
/// by the automata built from it, which may serve many runs.
struct Fig2Context {
  DealSpec spec;
  Participants parts;
  TimelockSchedule schedule;

  /// The "impatient" protocol variant of the Thm 2 dichotomy: if set,
  /// customers give up (terminate in `gave_up`) after waiting this long (on
  /// their own clock) in any money-awaiting state. The paper's protocol has
  /// no such exit — precisely *because* adding one trades requirement T's
  /// failure under partial synchrony for a CS3 failure (see
  /// bench_thm2_impossibility). Disabled by default.
  std::optional<Duration> customer_giveup;
};

using Fig2ContextPtr = std::shared_ptr<const Fig2Context>;

/// The per-run objects the automata's callbacks act on. One per run; every
/// interpreter of the run is given it (anta::Interpreter's bindings), and
/// it must outlive them.
struct Fig2Run : anta::Bindings {
  ledger::Ledger* ledger = nullptr;
  ledger::EscrowRegistry* escrows = nullptr;
  crypto::KeyRegistry* keys = nullptr;
  props::TraceRecorder* trace = nullptr;
  crypto::Signer bob_signer;
};

/// One deal's automata: customers c_0..c_n, then escrows e_0..e_{n-1}.
struct Fig2Automata {
  Fig2ContextPtr ctx;
  std::vector<std::shared_ptr<const anta::Automaton>> customers;
  std::vector<std::shared_ptr<const anta::Automaton>> escrows;
};

/// The automata for this structure from a small cache local to the calling
/// thread, built on a miss. The automata do not depend on the seed, so a
/// sweep worker builds them once per structure instead of once per run.
/// The reference stays valid until the thread's next call.
const Fig2Automata& shared_fig2_automata(
    const DealSpec& spec, const Participants& parts,
    const TimelockSchedule& schedule,
    const std::optional<Duration>& customer_giveup);

/// Escrow e_i: send G(d_i); await $; send P(a_i), u := now; await chi until
/// now >= u + a_i; then either forward chi upstream + pay downstream, or
/// refund upstream.
std::shared_ptr<const anta::Automaton> build_escrow_automaton(
    const Fig2ContextPtr& ctx, int i);

/// Customer c_i. Dispatches to the Alice (i = 0), Bob (i = n) or Chloe_i
/// shape; the Alice and Bob automata are the simplifications of Chloe's
/// shown in Fig. 2.
std::shared_ptr<const anta::Automaton> build_customer_automaton(
    const Fig2ContextPtr& ctx, int i);

std::shared_ptr<const anta::Automaton> build_alice_automaton(
    const Fig2ContextPtr& ctx);
std::shared_ptr<const anta::Automaton> build_connector_automaton(
    const Fig2ContextPtr& ctx, int i);
std::shared_ptr<const anta::Automaton> build_bob_automaton(
    const Fig2ContextPtr& ctx);

// Final-state names, used by outcome extraction and tests.
inline constexpr const char* kDonePaid = "done_paid";
inline constexpr const char* kDoneRefunded = "done_refunded";
inline constexpr const char* kDoneGotChi = "done_got_chi";
inline constexpr const char* kGaveUp = "gave_up";  // impatient variant only

}  // namespace xcp::proto
