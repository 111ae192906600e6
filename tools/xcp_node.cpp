// xcp_node: one process of a multi-process notary-committee deployment.
//
// Nodes 0..m-1 each host one notary; node m hosts every participant
// (customers + escrows) and acts as the client: it broadcasts the deal
// evidence at t=0, waits for a verified quorum decision certificate at
// every participant, and prints the outcome plus the wire-encoded
// certificate. All nodes build the identical StandaloneCommittee scenario
// from the same flags (keys, committee config, evidence — see
// consensus/standalone.hpp), talk over the supervised socket transport,
// and detect dead peers by heartbeat.
//
// Addressing: --sock-dir DIR derives one unix-domain socket per node (the
// single-box default). For multi-host deployments, give explicit endpoints
// instead: --listen ADDR for this node plus one repeatable --peer N=ADDR
// per other node, where ADDR is any transport address ("tcp:<ipv4>:<port>"
// or "unix:<path>"). Explicit endpoints override the --sock-dir scheme
// per node, so the two can mix during migration.
//
// Crash recovery (docs/ROBUSTNESS.md, crash-recovery rung): --state-dir DIR
// gives a notary a durable write-ahead journal at DIR/node-K.wal. Every
// prevote, precommit and decision is journaled (fsync'd) before the
// corresponding broadcast, so a restarted node replays the journal, refuses
// to equivocate against anything it already signed, announces its journaled
// tier in its Hello status word, and — when it comes back undecided —
// requests catch-up; peers that have decided answer with the decision
// certificate. --crash-at KIND:PHASE[:BYTES] arms the deterministic crash
// injector (KIND = prevote|precommit|decide, PHASE = before|torn|after;
// torn takes the byte count that reaches the file) for the restart harness.
//
// Decide and exit: every node announces tier 2 ("decided") in its Hello
// status word once it is done — a notary when it decides, the client once
// every participant holds the certificate and OUTCOME/CERT are printed —
// and exits as soon as every peer has announced tier 2 too. Until then it
// keeps pumping: relaying the decision and answering catch-up. --linger-ms
// caps that wait, so a peer that is down, silent or behind keeps the
// survivors up for at most the cap.
//
// Start-up order: journal, then listener, then the first pump. The journal
// is opened and recovered before the socket is bound, so "listening" means
// "ready to pump": a peer that connects never waits out the journal's
// creation, and a journal corrupt beyond recovery exits 5 without the node
// ever listening. The process is built as a static PIE (CMakeLists.txt),
// so a spawn pays no dynamic loading before main().
//
//   xcp_node --node-id K (--sock-dir DIR | --listen ADDR --peer N=ADDR...)
//            [--notaries 4] [--n 2]
//            [--deal 13] [--seed 7] [--value commit|abort]
//            [--base-round-ms 100] [--heartbeat-ms 50]
//            [--peer-timeout-ms 600] [--wall-limit-ms 15000]
//            [--linger-ms 300]   (cap on the post-decision wait)
//            [--state-dir DIR] [--crash-at KIND:PHASE[:BYTES]]
//            [--journal-compact]
//
// Output (stdout, line-oriented so harnesses can parse):
//   PEER-DOWN node=N silent-ms=X     when a peer misses its heartbeat deadline
//   RECOVERED node=K records=N dropped=B truncated=0|1 tier=T
//                                    after a journal replay (non-fresh file)
//   DECIDED value=V node=K           notary nodes, on local decision
//   COMPACTED records=N              after --journal-compact snapshotting
//   OUTCOME value=... cert=... ...   client node, once all participants have
//   CERT <hex>                       the decision certificate, wire-encoded
//
// Integer flags take whole non-negative decimal tokens: "4x", "abc", ""
// and "-1" are usage errors, never a silent 0 or a truncated prefix.
// --base-round-ms must also be at least 1.
//
// Exit codes (net/node_exit.hpp): 0 decided/certified, 2 usage, 3
// wall-clock timeout, 4 unrecoverable wire error, 5 journal corrupt beyond
// recovery, 6 internal error.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/standalone.hpp"
#include "net/node_exit.hpp"
#include "net/node_runtime.hpp"
#include "net/socket_transport.hpp"
#include "net/wal.hpp"
#include "net/wire.hpp"
#include "support/bytes.hpp"

namespace {

using namespace xcp;

struct Args {
  int node_id = -1;
  std::string sock_dir;
  std::string listen_addr;               // explicit override for this node
  std::map<int, std::string> peer_addrs;  // explicit overrides, per node
  consensus::StandaloneCommittee sc;
  long heartbeat_ms = 50;
  long peer_timeout_ms = 600;
  long wall_limit_ms = 15'000;
  long linger_ms = 300;
  std::string state_dir;
  net::WalCrashPlan crash_plan;
  bool journal_compact = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xcp_node: %s\n"
               "usage: xcp_node --node-id K (--sock-dir DIR | --listen ADDR "
               "--peer N=ADDR...) [--notaries M] "
               "[--n N] [--deal D] [--seed S] [--value commit|abort] "
               "[--base-round-ms MS] [--heartbeat-ms MS] "
               "[--peer-timeout-ms MS] [--wall-limit-ms MS] [--linger-ms MS] "
               "[--state-dir DIR] [--crash-at KIND:PHASE[:BYTES]] "
               "[--journal-compact]\n",
               why);
  std::exit(net::node_exit::kUsage);
}

/// The value of integer flag `flag`: a whole decimal token of at most
/// `max`, or a usage exit. The token must start with a digit (strtoull
/// alone would skip whitespace and accept a sign, wrapping " -1" to
/// 2^64-1) and may have no trailing bytes.
std::uint64_t u64_flag(const std::string& flag, const std::string& tok,
                       std::uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] < '0' || tok[0] > '9' || errno != 0 ||
      *end != '\0' || v > max) {
    usage(("bad " + flag + " value '" + tok + "' (want a whole number <= " +
           std::to_string(max) + ")")
              .c_str());
  }
  return v;
}

std::int32_t i32_flag(const std::string& flag, const std::string& tok) {
  return static_cast<std::int32_t>(u64_flag(flag, tok, INT32_MAX));
}

net::WalCrashPlan parse_crash_at(const std::string& spec) {
  net::WalCrashPlan plan;
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos) {
    usage("--crash-at wants KIND:PHASE[:BYTES] "
          "(e.g. --crash-at prevote:after)");
  }
  const std::string kind = spec.substr(0, c1);
  std::string phase = spec.substr(c1 + 1);
  const std::size_t c2 = phase.find(':');
  if (c2 != std::string::npos) {
    const std::int32_t bytes = i32_flag("--crash-at", phase.substr(c2 + 1));
    if (bytes < 1) usage("--crash-at torn byte count must be >= 1");
    plan.torn_bytes = static_cast<std::size_t>(bytes);
    phase = phase.substr(0, c2);
  }
  if (kind == "prevote") {
    plan.kind = net::WalRecordKind::kPrevote;
  } else if (kind == "precommit") {
    plan.kind = net::WalRecordKind::kPrecommit;
  } else if (kind == "decide") {
    plan.kind = net::WalRecordKind::kDecide;
  } else {
    usage("--crash-at kind must be prevote, precommit or decide");
  }
  if (phase == "before") {
    plan.phase = net::WalCrashPlan::Phase::kBefore;
  } else if (phase == "torn") {
    plan.phase = net::WalCrashPlan::Phase::kTorn;
  } else if (phase == "after") {
    plan.phase = net::WalCrashPlan::Phase::kAfter;
  } else {
    usage("--crash-at phase must be before, torn or after");
  }
  return plan;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--node-id") {
      a.node_id = i32_flag(flag, next());
    } else if (flag == "--sock-dir") {
      a.sock_dir = next();
    } else if (flag == "--listen") {
      a.listen_addr = next();
    } else if (flag == "--peer") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        usage("--peer wants N=ADDR (e.g. --peer 1=tcp:10.0.0.2:9101)");
      }
      a.peer_addrs[i32_flag(flag, spec.substr(0, eq))] = spec.substr(eq + 1);
    } else if (flag == "--notaries") {
      a.sc.notaries = i32_flag(flag, next());
    } else if (flag == "--n") {
      a.sc.n = i32_flag(flag, next());
    } else if (flag == "--deal") {
      a.sc.deal_id = u64_flag(flag, next());
    } else if (flag == "--seed") {
      a.sc.seed = u64_flag(flag, next());
    } else if (flag == "--value") {
      const std::string v = next();
      if (v == "commit") {
        a.sc.evidence = consensus::Value::kCommit;
      } else if (v == "abort") {
        a.sc.evidence = consensus::Value::kAbort;
      } else {
        usage("--value must be commit or abort");
      }
    } else if (flag == "--base-round-ms") {
      // A zero round timer fires forever at one virtual instant, so the
      // runtime never gets back to the wall clock (or its wall limit).
      const std::int32_t ms = i32_flag(flag, next());
      if (ms < 1) usage("--base-round-ms must be >= 1");
      a.sc.base_round = Duration::millis(ms);
    } else if (flag == "--heartbeat-ms") {
      a.heartbeat_ms = i32_flag(flag, next());
    } else if (flag == "--peer-timeout-ms") {
      a.peer_timeout_ms = i32_flag(flag, next());
    } else if (flag == "--wall-limit-ms") {
      a.wall_limit_ms = i32_flag(flag, next());
    } else if (flag == "--linger-ms") {
      a.linger_ms = i32_flag(flag, next());
    } else if (flag == "--state-dir") {
      a.state_dir = next();
    } else if (flag == "--crash-at") {
      a.crash_plan = parse_crash_at(next());
    } else if (flag == "--journal-compact") {
      a.journal_compact = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.node_id < 0 || a.node_id > a.sc.notaries) {
    usage("--node-id must be in [0, notaries] (notaries => client node)");
  }
  if (a.sc.notaries < 1 || a.sc.n < 1) usage("need >=1 notary and >=1 escrow");
  if (a.crash_plan.armed() && a.state_dir.empty()) {
    usage("--crash-at needs --state-dir (it fires on journal appends)");
  }
  // Without a --sock-dir fallback, every node needs an explicit endpoint:
  // --listen (or a --peer self-entry) for this node, --peer for the rest.
  if (a.sock_dir.empty()) {
    if (a.listen_addr.empty() && !a.peer_addrs.count(a.node_id)) {
      usage("need --sock-dir, or --listen for this node");
    }
    for (int node = 0; node <= a.sc.notaries; ++node) {
      if (node != a.node_id && !a.peer_addrs.count(node)) {
        usage(("need --sock-dir, or --peer " + std::to_string(node) +
               "=ADDR for every other node")
                  .c_str());
      }
    }
  }
  return a;
}

std::string node_addr(const Args& a, int node) {
  const auto it = a.peer_addrs.find(node);
  if (it != a.peer_addrs.end()) return it->second;
  return "unix:" + a.sock_dir + "/node-" + std::to_string(node) + ".sock";
}

std::string listen_addr(const Args& a) {
  return a.listen_addr.empty() ? node_addr(a, a.node_id) : a.listen_addr;
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

int run_node(const Args& args) {
  const consensus::StandaloneCommittee& sc = args.sc;
  const int m = sc.notaries;
  const int client_node = m;
  const bool is_client = args.node_id == client_node;

  // A notary's journal opens (and recovers) before the listener binds; see
  // "Start-up order" above. Declared first so it outlives the notary that
  // appends to it.
  std::optional<net::WriteAheadLog> wal;
  net::WalRecoverResult rec;
  if (!is_client && !args.state_dir.empty()) {
    net::WalOptions wopts;
    wopts.crash_plan = args.crash_plan;
    wal.emplace(args.state_dir + "/node-" + std::to_string(args.node_id) +
                    ".wal",
                std::move(wopts));
    rec = wal->open();
  }

  // Identical scenario in every process: keys, config, evidence.
  crypto::KeyRegistry keys = sc.make_keys();
  auto config = sc.make_config(keys);

  // Decorrelate per-process simulator randomness; protocol determinism
  // across processes comes from the shared scenario, not the sim seed.
  sim::Simulator sim(sc.seed ^
                     (0x9e3779b97f4a7c15ull *
                      (static_cast<std::uint64_t>(args.node_id) + 1)));
  net::Network network(sim, net::DelayModel::synchronous(Duration::millis(1)));

  net::SocketTransportOptions topts;
  topts.heartbeat_interval = std::chrono::milliseconds(args.heartbeat_ms);
  topts.peer_timeout = std::chrono::milliseconds(args.peer_timeout_ms);
  topts.jitter_seed = sc.seed;
  topts.wire.roster = &config->members;
  net::SocketTransport transport(static_cast<std::uint32_t>(args.node_id),
                                 listen_addr(args), topts);
  for (int node = 0; node <= m; ++node) {
    if (node == args.node_id) continue;
    transport.add_peer(static_cast<std::uint32_t>(node),
                       node_addr(args, node));
  }
  for (int i = 0; i < m; ++i) {
    transport.map_pid(sc.notary_pid(i), static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < sc.participant_count(); ++i) {
    transport.map_pid(sim::ProcessId(static_cast<std::uint32_t>(i)),
                      static_cast<std::uint32_t>(client_node));
  }
  transport.set_peer_down_handler([](std::uint32_t node,
                                     std::chrono::milliseconds silent) {
    std::printf("PEER-DOWN node=%u silent-ms=%lld\n", node,
                static_cast<long long>(silent.count()));
    std::fflush(stdout);
  });

  net::NodeRuntime runtime(sim, network, transport);
  const auto wall_limit = std::chrono::milliseconds(args.wall_limit_ms);
  const auto linger = std::chrono::milliseconds(args.linger_ms);

  // Catch-up serving is shared by both roles: requests (and Hellos from
  // recovered-but-behind peers) accumulate in `pending_catchup`; `respond`
  // is filled in per role and drained whenever new state could satisfy it.
  std::set<std::uint32_t> pending_catchup;
  std::function<bool(std::uint32_t)> respond;  // true = request satisfied
  auto serve_catchups = [&] {
    if (!respond) return;
    for (auto it = pending_catchup.begin(); it != pending_catchup.end();) {
      it = respond(*it) ? pending_catchup.erase(it) : std::next(it);
    }
  };
  transport.set_catchup_handler(
      [&](std::uint32_t node, std::uint64_t instance, std::uint64_t) {
        if (instance != config->instance) return;
        pending_catchup.insert(node);
        serve_catchups();
      });
  // The highest tier each node has announced in its Hello status word; a
  // node is done with the committee once every peer has announced tier 2.
  std::vector<std::uint32_t> peer_tier(static_cast<std::size_t>(m) + 1, 0);
  auto every_peer_decided = [&] {
    for (int node = 0; node <= m; ++node) {
      if (node != args.node_id && peer_tier[node] < 2) return false;
    }
    return true;
  };
  transport.set_peer_status_handler(
      [&](std::uint32_t node, std::uint64_t status) {
        if (node < peer_tier.size()) {
          peer_tier[node] =
              std::max(peer_tier[node], net::hello_status_tier(status));
        }
        // A peer that recovered from its journal but is not yet decided owes
        // nothing to us — but we may owe it the decision. Treat the Hello as
        // an implicit catch-up request (crash-before-vote rejoiners whose
        // explicit request raced the dial are still served).
        if (net::hello_status_recovered(status) &&
            net::hello_status_tier(status) < 2) {
          pending_catchup.insert(node);
          serve_catchups();
        }
      });
  // Decide and exit (see the file comment): announce tier 2, answer the
  // catch-up requests already pending, then keep relaying and answering
  // until every peer has announced tier 2 or the --linger-ms cap is spent.
  // The closing zero-wait pump makes the dial that a last-moment Hello made
  // due, so a rejoiner that just spoke up hears this node's tier 2 before
  // it leaves instead of waiting out its own cap.
  auto announce_decided_and_wait = [&](bool recovered) {
    transport.set_hello_status(net::hello_status_word(2, recovered));
    serve_catchups();
    runtime.run(linger, every_peer_decided);
    transport.pump(std::chrono::milliseconds(0));
  };
  // Only notary peers rejoin rounds; a decision sent to their protocol pid
  // is idempotent for receivers that already decided.
  auto notary_peer = [&](std::uint32_t node) {
    return static_cast<int>(node) < m;
  };

  if (!is_client) {
    // Filler processes claim the lower pids so the notary lands on its
    // protocol id; they are never attached to the network, so traffic to
    // them routes out the gateway.
    const int notary_index = args.node_id;
    for (std::uint32_t pid = 0; pid < sc.notary_pid(notary_index).value();
         ++pid) {
      sim.spawn<sim::Process>("filler_" + std::to_string(pid));
    }
    auto& notary = sim.spawn<consensus::Notary>(
        "notary_" + std::to_string(notary_index), config, keys);
    if (notary.id() != sc.notary_pid(notary_index)) {
      std::fprintf(stderr, "xcp_node: notary pid prediction broken\n");
      return net::node_exit::kUsage;
    }
    network.attach(notary);

    respond = [&](std::uint32_t node) {
      if (!notary.decided() || !notary.decision_cert()) return false;
      if (notary_peer(node)) {
        auto body = net::make_body<consensus::DecisionMsg>();
        body->cert = *notary.decision_cert();
        network.send(notary.id(), sc.notary_pid(static_cast<int>(node)),
                     net::kinds::bft_decision, body);
      }
      return true;
    };

    // Journal wiring: restore the recovered records before the simulator
    // starts, so on_start sees them.
    bool recovered = false;
    if (wal) {
      notary.set_wal(&*wal);
      if (!rec.records.empty()) notary.restore(rec.records);
      std::uint32_t tier = 0;
      for (const net::WalRecord& r : rec.records) {
        if (r.instance != config->instance) continue;
        tier = std::max(tier, r.kind == net::WalRecordKind::kDecide ? 2u : 1u);
      }
      recovered = !rec.fresh;
      transport.set_hello_status(net::hello_status_word(tier, recovered));
      if (recovered) {
        std::printf(
            "RECOVERED node=%d records=%zu dropped=%llu truncated=%d "
            "tier=%u\n",
            args.node_id, rec.records.size(),
            static_cast<unsigned long long>(rec.dropped_bytes),
            rec.truncated ? 1 : 0, tier);
        std::fflush(stdout);
        // Came back behind the committee: ask peers to ship what we missed.
        if (tier < 2) transport.request_catchup(config->instance);
      }
    }

    const bool decided =
        runtime.run(wall_limit, [&] { return notary.decided(); });
    if (decided) {
      transport.cancel_catchup();
      announce_decided_and_wait(recovered);
      std::printf("DECIDED value=%s node=%d\n",
                  consensus::value_name(*notary.decision()), args.node_id);
      std::fflush(stdout);
      if (wal && args.journal_compact && notary.decision_cert()) {
        // Snapshot = the decision alone: it is final, so the vote records
        // that led to it carry no further amnesia-safety obligations.
        net::WalRecord snap;
        snap.kind = net::WalRecordKind::kDecide;
        snap.instance = config->instance;
        snap.round = notary.rounds_entered() - 1;
        snap.value = static_cast<std::uint8_t>(*notary.decision());
        net::WireContext wctx;
        wctx.roster = &config->members;
        snap.cert = net::serialize_certificate(*notary.decision_cert(), wctx);
        wal->compact({snap});
        std::printf("COMPACTED records=1\n");
        std::fflush(stdout);
      }
      return net::node_exit::kDecided;
    }
    std::fprintf(stderr, "xcp_node: notary %d undecided after %ld ms\n",
                 notary_index, args.wall_limit_ms);
    return net::node_exit::kTimeout;
  }

  // Client node: hosts every participant, broadcasts the evidence, waits
  // for a verified certificate at every participant.
  std::vector<consensus::DecisionCollector*> collectors;
  for (int i = 0; i < sc.participant_count(); ++i) {
    auto& c = sim.spawn<consensus::DecisionCollector>(
        "participant_" + std::to_string(i), config, keys);
    network.attach(c);
    collectors.push_back(&c);
  }
  respond = [&](std::uint32_t node) {
    if (!collectors[0]->done()) return false;
    if (notary_peer(node)) {
      auto body = net::make_body<consensus::DecisionMsg>();
      body->cert = collectors[0]->cert();
      network.send(collectors[0]->id(), sc.notary_pid(static_cast<int>(node)),
                   net::kinds::bft_decision, body);
    }
    return true;
  };
  auto msgs = sc.client_messages(keys);
  sim.schedule_at(TimePoint::origin(), [&] {
    for (const auto& msg : msgs) {
      network.send(msg.from, msg.to, msg.kind, msg.body);
    }
  });

  const bool all_done = runtime.run(wall_limit, [&] {
    for (const auto* c : collectors) {
      if (!c->done()) return false;
    }
    return true;
  });
  if (!all_done) {
    std::fprintf(stderr,
                 "xcp_node: client missing certificates after %ld ms\n",
                 args.wall_limit_ms);
    return net::node_exit::kTimeout;
  }
  consensus::CommitteeOutcome outcome;
  outcome.value = collectors[0]->value();
  outcome.cert = collectors[0]->cert();
  outcome.cert_valid = crypto::verify_quorum_cert(
      keys, outcome.cert, config->members,
      static_cast<std::size_t>(config->quorum()));
  std::printf("OUTCOME %s\n", outcome.canonical().c_str());
  net::WireContext wctx;
  wctx.roster = &config->members;
  std::printf("CERT %s\n",
              hex_of(net::serialize_certificate(outcome.cert, wctx)).c_str());
  std::fflush(stdout);
  // Announced only after the outcome is out: a notary may exit as soon as
  // it hears this, and a harness watching for OUTCOME still finds every
  // notary alive when the line arrives.
  announce_decided_and_wait(false);
  return net::node_exit::kDecided;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_node(args);
  } catch (const net::WalError& e) {
    std::fprintf(stderr, "xcp_node: %s\n", e.what());
    return net::node_exit::kJournalCorrupt;
  } catch (const support::ByteError& e) {
    std::fprintf(stderr, "xcp_node: %s\n", e.what());
    return net::node_exit::kWireError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xcp_node: internal error: %s\n", e.what());
    return net::node_exit::kInternal;
  }
}
