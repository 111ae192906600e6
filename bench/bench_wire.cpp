// Wire-codec microbenchmarks: serialize/parse cost per protocol message
// family, quorum-certificate encoding in bitmap vs explicit mode, and
// stream-frame extraction throughput. These size the CPU tax the socket
// transport adds per message relative to in-sim delivery (which moves a
// shared_ptr and pays nothing).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "consensus/messages.hpp"
#include "crypto/certificate.hpp"
#include "crypto/identity.hpp"
#include "net/wire.hpp"
#include "proto/bodies.hpp"

namespace {

using namespace xcp;
using Bytes = std::vector<std::uint8_t>;

crypto::KeyRegistry& registry() {
  static crypto::KeyRegistry keys(0xbe9cULL);
  return keys;
}

std::vector<sim::ProcessId> roster(int m) {
  std::vector<sim::ProcessId> r;
  for (int i = 0; i < m; ++i) r.push_back(sim::ProcessId(21 + i));
  return r;
}

crypto::Certificate quorum_cert(const std::vector<sim::ProcessId>& members) {
  const sim::ProcessId committee(3'000'013);
  crypto::Certificate probe;
  probe.kind = crypto::CertKind::kCommit;
  probe.deal_id = 13;
  probe.issuer = committee;
  std::vector<crypto::Signature> sigs;
  const std::size_t quorum = 2 * ((members.size() - 1) / 3) + 1;
  for (std::size_t i = 0; i < quorum; ++i) {
    sigs.push_back(registry().signer_for(members[i]).sign(probe.digest()));
  }
  crypto::Certificate chi =
      crypto::make_payment_cert(registry().signer_for(sim::ProcessId(2)), 13);
  return crypto::make_quorum_cert(crypto::CertKind::kCommit, 13, committee,
                                  std::move(sigs), &chi);
}

net::Message small_message() {
  net::Message m;
  m.id = 1;
  m.from = sim::ProcessId(4);
  m.to = sim::ProcessId(23);
  m.kind = net::kinds::money;
  auto body = net::make_body<proto::MoneyMsg>();
  body->deal_id = 13;
  body->receipt = 99;
  body->amount = Amount(1'000, Currency::generic());
  m.body = body;
  return m;
}

net::Message decision_message(const std::vector<sim::ProcessId>& members) {
  net::Message m;
  m.id = 2;
  m.from = sim::ProcessId(21);
  m.to = sim::ProcessId(0);
  m.kind = net::kinds::tm_cert;
  auto body = net::make_body<consensus::DecisionMsg>();
  body->cert = quorum_cert(members);
  m.body = body;
  return m;
}

// --------------------------------------------------------- message codec

void BM_WireSerializeSmall(benchmark::State& state) {
  const net::Message m = small_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::serialize_message(m));
  }
}
BENCHMARK(BM_WireSerializeSmall);

void BM_WireParseSmall(benchmark::State& state) {
  const Bytes buf = net::serialize_message(small_message());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_message(buf));
  }
}
BENCHMARK(BM_WireParseSmall);

void BM_WireRoundTripDecision(benchmark::State& state) {
  // Committee size sweeps quorum-cert weight; roster enables bitmap mode.
  const int m = static_cast<int>(state.range(0));
  const auto members = roster(m);
  net::WireContext ctx;
  ctx.roster = &members;
  const net::Message msg = decision_message(members);
  for (auto _ : state) {
    const Bytes buf = net::serialize_message(msg, ctx);
    benchmark::DoNotOptimize(net::parse_message(buf, ctx));
  }
}
BENCHMARK(BM_WireRoundTripDecision)->Arg(4)->Arg(16)->Arg(64);

// ------------------------------------------------------ certificate modes

void BM_WireCertBitmap(benchmark::State& state) {
  const auto members = roster(static_cast<int>(state.range(0)));
  const crypto::Certificate cert = quorum_cert(members);
  net::WireContext ctx;
  ctx.roster = &members;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes buf = net::serialize_certificate(cert, ctx);
    bytes = buf.size();
    benchmark::DoNotOptimize(net::parse_certificate(buf, ctx));
  }
  state.counters["cert_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WireCertBitmap)->Arg(4)->Arg(64);

void BM_WireCertExplicit(benchmark::State& state) {
  const auto members = roster(static_cast<int>(state.range(0)));
  const crypto::Certificate cert = quorum_cert(members);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes buf = net::serialize_certificate(cert);  // no roster
    bytes = buf.size();
    benchmark::DoNotOptimize(net::parse_certificate(buf));
  }
  state.counters["cert_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WireCertExplicit)->Arg(4)->Arg(64);

// ----------------------------------------------------------- stream frames

void BM_WireStreamExtract(benchmark::State& state) {
  // Throughput of the length-prefix framer over a batch of small frames —
  // the per-pump work of a busy socket connection.
  const Bytes payload = net::serialize_message(small_message());
  Bytes batch;
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    net::append_stream_frame(batch, payload.data(), payload.size());
  }
  for (auto _ : state) {
    std::size_t off = 0;
    std::span<const std::uint8_t> frame;
    int n = 0;
    while (net::extract_stream_frame(batch, off, frame)) ++n;
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_WireStreamExtract);

}  // namespace

BENCHMARK_MAIN();
