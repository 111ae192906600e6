#pragma once
// Outside-in probes of single layers, shared by the workloads: each times
// calls into one module's public functions on an artifact the workload
// produced (its decision certificate, its notaries' journals), so the
// per-layer numbers describe that workload's inputs.

#include <string>
#include <vector>

#include "consensus/standalone.hpp"
#include "crypto/certificate.hpp"
#include "harness.hpp"
#include "proto/outcome.hpp"

namespace xcp::bench {

/// The safety battery the matrix runner folds per seed: conservation, ES,
/// CS1-3 and, for the weak family, CC. Returns how many applicable
/// properties were violated.
std::size_t check_battery(const proto::RunRecord& r, bool weak_family);

/// Replays a finished run's trace through TraceRecorder::record into a
/// fresh recorder with an OnlineMonitor sink configured as the live run's
/// (proto::base_online_config plus the abiding cast). Returns the replay's
/// decided-at instant.
TimePoint replay_trace(const proto::RunRecord& r);

/// Per-call time of `fn`: batches sized to ~2 ms, median of several
/// batches, in ns.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t batch = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t0 >= 2'000'000 || batch >= (std::size_t{1} << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

/// crypto.sig_verify_ns, crypto.cert_verify_us, wire.cert_bytes,
/// wire.cert_parse_us and wire.cert_serialize_us for `cert`, a quorum
/// certificate of scenario `sc`. Fails the run if the certificate does not
/// verify or does not survive a wire round trip.
void measure_cert_layers(const consensus::StandaloneCommittee& sc,
                         const crypto::Certificate& cert, Result& r);

/// wal.append_us (the records of `journal` re-appended with fsync to a
/// fresh journal in `scratch_dir`) and wal.open_us (recovery open of a copy
/// of `journal`).
void measure_wal_layers(const std::string& journal,
                        const std::string& scratch_dir, Result& r);

std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace xcp::bench
