// Byte-count and rate units, plus human-readable formatting used by the
// bench harnesses and reports.
#pragma once

#include <cstdint>
#include <string>

namespace cts {

inline constexpr double kKB = 1000.0;
inline constexpr double kMB = 1000.0 * 1000.0;
inline constexpr double kGB = 1000.0 * 1000.0 * 1000.0;

// Network rates are quoted in bits/s in the paper (100 Mbps links).
inline constexpr double kMbps = 1000.0 * 1000.0 / 8.0;  // bytes per second

// Paper-testbed link defaults, shared by the analytics cost model and
// the scenario engine's topology (simscen::Topology) so the
// calibration cannot drift between the closed forms and the
// discrete-event replay.
//
// 100 Mbps tc-limited NICs (paper Section V-B).
inline constexpr double kPaperLinkBytesPerSec = 100 * kMbps;
// Effective TCP goodput fraction: Table I moves 11.25 GB serially in
// 945.72 s => 11.90 MB/s on a 12.5 MB/s link => 0.95.
inline constexpr double kTcpEfficiency = 0.95;
// MPI_Bcast fan-out penalty coefficient: multicasting to `f` receivers
// costs (1 + coeff*log2(f)) x the unicast time of the same bytes.
// Calibrated from Table II (see analytics/cost_model.h).
inline constexpr double kMulticastLogCoeff = 0.32;

// "12.0 GB", "750.0 MB", "1.3 kB", "17 B".
std::string HumanBytes(double bytes);

// "100.0 Mbps" from a rate in bytes/second.
std::string HumanRate(double bytes_per_second);

// "945.72 s", "85 ms", "120 us".
std::string HumanSeconds(double seconds);

}  // namespace cts
