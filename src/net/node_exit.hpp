#pragma once
// Exit codes of tools/xcp_node: distinct, stable codes per failure class so
// process-spawning harnesses and supervisors can tell a usage error from a
// poisoned journal from a bug.
//
// 0, 2 and 3 predate the taxonomy and keep their historical meanings (0 =
// decided/certified, 2 = usage, 3 = wall-clock timeout); the new classes
// append after them. Values are supervision ABI: never renumber.

namespace xcp::net::node_exit {

/// Decided (notary) / all participants certified (client).
inline constexpr int kDecided = 0;
/// Bad command line.
inline constexpr int kUsage = 2;
/// Wall-clock limit elapsed before a decision / full certification.
inline constexpr int kTimeout = 3;
/// Unrecoverable wire-format failure outside the transport's absorb-and-
/// drop path (e.g. a certificate blob that fails to re-encode).
inline constexpr int kWireError = 4;
/// The state journal is corrupt beyond recovery (foreign magic, future
/// version): the node refuses to guess and refuses to truncate.
inline constexpr int kJournalCorrupt = 5;
/// Any other unhandled exception.
inline constexpr int kInternal = 6;

}  // namespace xcp::net::node_exit
