// Pure helpers behind the benchmark's figures: percentiles, interval unions,
// per-category self time over a span tree, and the accounting identities a
// run must satisfy. Independent of the simulator so the tests exercise them
// on hand-built inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least ceil(q*n)
/// samples at or below it. `sorted` must be ascending and non-empty.
double percentile(const std::vector<double>& sorted, double q);

/// A percentile together with the sample it was read from.
struct TailPercentile {
  double q = 0;      ///< 0 when no candidate has enough samples beyond it
  double value = 0;
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples strictly above the percentile's rank
};

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least
/// `min_beyond` samples beyond its rank.
TailPercentile highest_supported_percentile(std::vector<double> samples,
                                            std::size_t min_beyond = 10);

/// Median of a non-empty sample (mean of the middle two for even n).
double median(std::vector<double> v);

/// Element-wise minimum of equally long series: for each slice of a
/// repeated, deterministic piece of work, the fastest time any repetition
/// took for it. Empty when `series` is empty or the lengths differ.
std::vector<double> fastest_slices(
    const std::vector<std::vector<double>>& series);

using Interval = std::pair<std::int64_t, std::int64_t>;  ///< [start, end)

/// Total length covered by the union of `iv`.
std::int64_t union_length(std::vector<Interval> iv);

/// One span of a trace, reduced to what self-time accounting needs.
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start = 0;
  std::int64_t dur = 0;
  std::string key;  ///< the layer the span is charged to
};

/// Self time per key: each span's duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// counted once). Children whose parent is absent count as roots.
std::map<std::string, std::int64_t> self_time_by_key(
    const std::vector<SpanRec>& spans);

// --- accounting identities; each returns an empty string when it holds ---

/// Open loop: every arrival is completed, failed or shed.
std::string check_open_loop_accounting(std::uint64_t arrivals,
                                       std::uint64_t completed,
                                       std::uint64_t failed,
                                       std::uint64_t shed);

/// BTIO: a pass writes nprocs*steps equal requests covering the class
/// total, short only by the remainder of dividing it among the requests.
std::string check_btio_bytes(std::uint64_t written, std::uint64_t class_total,
                             std::uint64_t requests);

/// Every attempted op either succeeded or failed, and the ops observed in
/// the trace are exactly the attempted ones.
std::string check_op_accounting(std::uint64_t attempted, std::uint64_t ok,
                                std::uint64_t failed, std::uint64_t traced);

}  // namespace perfbench
