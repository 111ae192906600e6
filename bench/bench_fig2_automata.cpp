// FIG2-automata: the ANTA automata of Figure 2.
//
// Prints each participant's automaton (states + transitions, dot available
// via to_dot) for a 2-connector deal, then executes the network of automata
// on a happy path and prints the event trace, verifying that each automaton
// walks exactly the Fig. 2 state sequence.

#include <iostream>

#include "anta/render.hpp"
#include "exp/scenario.hpp"
#include "proto/figure2.hpp"
#include "proto/timebounded.hpp"
#include "support/table.hpp"

using namespace xcp;

int main() {
  const int n = 3;  // Alice, Chloe_1, Chloe_2, Bob + escrows e_0..e_2

  // Build the automata exactly as the protocol runner does, for printing.
  auto ctx = std::make_shared<proto::Fig2Context>();
  ctx->spec = proto::DealSpec::uniform(1, n, 1000, 10);
  for (int i = 0; i <= n; ++i) {
    ctx->parts.customers.push_back(sim::ProcessId(static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < n; ++i) {
    ctx->parts.escrows.push_back(
        sim::ProcessId(static_cast<std::uint32_t>(n + 1 + i)));
  }
  ctx->schedule =
      proto::TimelockSchedule::drift_compensated(n, exp::default_timing());

  std::cout << "== FIG2-automata: the protocol as an Asynchronous Network of "
               "Timed Automata ==\n\n";
  std::cout << anta::to_ascii(*proto::build_escrow_automaton(ctx, 1)) << "\n";
  std::cout << anta::to_ascii(*proto::build_alice_automaton(ctx)) << "\n";
  std::cout << anta::to_ascii(*proto::build_connector_automaton(ctx, 1)) << "\n";
  std::cout << anta::to_ascii(*proto::build_bob_automaton(ctx)) << "\n";

  std::cout << "(graphviz: pipe any automaton through anta::to_dot)\n";

  // Schedule parameters of the run (the d_i / a_i of the G and P promises).
  Table sched({"escrow", "a_i (local window)", "d_i (refund promise)",
               "A_i (true window)"});
  for (int i = 0; i < n; ++i) {
    sched.add_row({"e_" + std::to_string(i), ctx->schedule.a(i).str(),
                   ctx->schedule.d(i).str(), ctx->schedule.true_window(i).str()});
  }
  sched.print(std::cout, "timelock schedule (Delta=100ms, eps=5ms, rho=1e-3)");

  // Execute the network and show the trace.
  auto cfg = exp::thm1_config(n, /*seed=*/7);
  const auto record = proto::run_time_bounded(cfg);
  std::cout << "\n== happy-path execution trace (n = 3) ==\n"
            << record.trace.render(120) << "\n";
  std::cout << record.summary() << "\n";

  // Verify the walked state sequences via final states.
  Table finals({"participant", "final state", "as in Fig. 2"});
  for (const auto& p : record.participants) {
    std::string expected;
    if (p.role == "alice") expected = proto::kDoneGotChi;
    else if (p.role == "bob") expected = proto::kDonePaid;
    else if (!p.is_escrow) expected = proto::kDonePaid;
    else expected = proto::kDonePaid;
    finals.add_row({p.role, p.final_state,
                    Table::fmt(p.final_state == expected)});
  }
  finals.print(std::cout, "final states on the happy path");
  return 0;
}
