#include "layers.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "net/wal.hpp"
#include "net/wire.hpp"
#include "props/checkers.hpp"

namespace xcp::bench {

std::size_t check_battery(const proto::RunRecord& r, bool weak_family) {
  std::vector<props::PropertyResult> res;
  res.push_back(props::check_conservation(r));
  res.push_back(props::check_escrow_security(r));
  res.push_back(props::check_cs1(r, weak_family));
  res.push_back(props::check_cs2(r, weak_family));
  res.push_back(props::check_cs3(r));
  if (weak_family) res.push_back(props::check_certificate_consistency(r));
  std::size_t violated = 0;
  for (const auto& p : res) violated += p.applicable && !p.holds ? 1 : 0;
  return violated;
}

TimePoint replay_trace(const proto::RunRecord& r) {
  props::OnlineMonitor::Config mc = proto::base_online_config(r.spec, r.parts);
  for (const auto& p : r.participants) {
    if (p.abiding) mc.cast.push_back(p.pid);
  }
  props::TraceRecorder rec;
  props::OnlineMonitor monitor(mc);
  rec.set_sink(&monitor);
  for (const props::TraceEvent& e : r.trace.events()) rec.record(e);
  rec.set_sink(nullptr);
  return monitor.outcome().decided_at;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void measure_cert_layers(const consensus::StandaloneCommittee& sc,
                         const crypto::Certificate& cert, Result& r) {
  const crypto::KeyRegistry keys = sc.make_keys();
  const auto config = sc.make_config(keys);
  const auto quorum = static_cast<std::size_t>(config->quorum());
  net::WireContext wctx;
  wctx.roster = &config->members;

  if (cert.quorum.empty() ||
      !crypto::verify_quorum_cert(keys, cert, config->members, quorum)) {
    r.fail("certificate under test does not verify");
    return;
  }
  const std::uint64_t digest = cert.digest();
  const double speed = speed_factor();
  std::size_t next = 0;
  bool all_valid = true;
  r.metrics["crypto.sig_verify_ns"] = speed * ns_per_call([&] {
    all_valid &= keys.verify(cert.quorum[next], digest);
    next = (next + 1) % cert.quorum.size();
  });
  r.metrics["crypto.cert_verify_us"] = speed * ns_per_call([&] {
    all_valid &=
        crypto::verify_quorum_cert(keys, cert, config->members, quorum);
  }) / 1e3;

  std::vector<std::uint8_t> blob = net::serialize_certificate(cert, wctx);
  r.metrics["wire.cert_bytes"] = static_cast<double>(blob.size());
  r.metrics["wire.cert_serialize_us"] = speed * ns_per_call([&] {
    blob = net::serialize_certificate(cert, wctx);
  }) / 1e3;
  crypto::Certificate parsed;
  r.metrics["wire.cert_parse_us"] = speed * ns_per_call([&] {
    parsed = net::parse_certificate(blob, wctx);
  }) / 1e3;
  if (!all_valid || parsed.digest() != digest ||
      parsed.quorum.size() != cert.quorum.size() ||
      !crypto::verify_quorum_cert(keys, parsed, config->members, quorum)) {
    r.fail("certificate layer probe: verify or wire round trip broke");
  }
}

void measure_wal_layers(const std::string& journal,
                        const std::string& scratch_dir, Result& r) {
  const std::vector<net::WalRecord> records =
      net::WriteAheadLog::scan(read_file(journal)).records;
  if (records.empty()) {
    r.fail("journal " + journal + " holds no records");
    return;
  }
  namespace fs = std::filesystem;
  const std::string append_path = scratch_dir + "/append-probe.wal";
  const std::string open_path = scratch_dir + "/open-probe.wal";

  // Append: the journal's own records, fsync'd one by one, as a notary
  // writes them before each vote leaves the process.
  constexpr std::size_t kAppends = 32;
  std::vector<double> append_ns;
  {
    fs::remove(append_path);
    net::WriteAheadLog wal(append_path);
    wal.open();
    for (std::size_t i = 0; i < kAppends; ++i) {
      const std::int64_t t0 = now_ns();
      wal.append(records[i % records.size()]);
      append_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  fs::remove(append_path);
  r.metrics["wal.append_us"] = median(std::move(append_ns)) / 1e3;

  // Open: the recovery scan of a copy of the real journal.
  std::vector<double> open_ns;
  for (int rep = 0; rep < 16; ++rep) {
    fs::copy_file(journal, open_path, fs::copy_options::overwrite_existing);
    net::WriteAheadLog wal(open_path);
    const std::int64_t t0 = now_ns();
    const net::WalRecoverResult rec = wal.open();
    open_ns.push_back(static_cast<double>(now_ns() - t0));
    if (rec.records != records) r.fail("journal reopen lost records");
  }
  fs::remove(open_path);
  r.metrics["wal.open_us"] = median(std::move(open_ns)) / 1e3;
}

}  // namespace xcp::bench
