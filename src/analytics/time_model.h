// Execution-time model from paper Section II (eqs. (3)-(5)).
//
//   T_total,MR   = Tmap + Tshuffle + Treduce                     (3)
//   T_total,CMR  ≈ r*Tmap + Tshuffle/r + Treduce                 (4)
//   r*           = floor or ceil of sqrt(Tshuffle / Tmap)
//   T*_total,CMR ≈ 2*sqrt(Tshuffle*Tmap) + Treduce               (5)
//
// Used by `bench_paper model` to reproduce the Section III-B analysis of
// Table I (shuffle is 508.5x Map; r* = 23; ~10x promised saving) and by
// the cluster-planner example to pick r for a workload.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cts {

// Stage times of one uncoded MapReduce execution, in seconds.
struct MapReduceTimes {
  double map = 0;
  double shuffle = 0;
  double reduce = 0;

  double total() const { return map + shuffle + reduce; }
};

// Predicted total time of the coded execution at redundancy r (eq. 4).
inline double PredictCodedTotal(const MapReduceTimes& t, int r) {
  CTS_CHECK_GE(r, 1);
  return static_cast<double>(r) * t.map +
         t.shuffle / static_cast<double>(r) + t.reduce;
}

// The integer r in [1, K] minimizing eq. (4): the better of
// floor(sqrt(Ts/Tm)) and ceil(sqrt(Ts/Tm)), clamped to [1, K].
inline int OptimalRedundancy(const MapReduceTimes& t, int K) {
  CTS_CHECK_GE(K, 1);
  if (t.map <= 0.0) return K;  // free map work: max redundancy wins
  const double ideal = std::sqrt(t.shuffle / t.map);
  const int lo = std::clamp(static_cast<int>(std::floor(ideal)), 1, K);
  const int hi = std::clamp(static_cast<int>(std::ceil(ideal)), 1, K);
  return PredictCodedTotal(t, lo) <= PredictCodedTotal(t, hi) ? lo : hi;
}

// Best achievable coded time over real-valued r (eq. 5).
inline double PredictOptimalCodedTotal(const MapReduceTimes& t) {
  return 2.0 * std::sqrt(t.shuffle * t.map) + t.reduce;
}

// Speedup eq. (3) / eq. (4) at a given r.
inline double PredictSpeedup(const MapReduceTimes& t, int r) {
  return t.total() / PredictCodedTotal(t, r);
}

}  // namespace cts
