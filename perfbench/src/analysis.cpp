#include "analysis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

std::string fmt(const char* what, std::uint64_t a, std::uint64_t b) {
  return std::string(what) + " (" + std::to_string(a) + " vs " +
         std::to_string(b) + ")";
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  assert(!sorted.empty());
  return sorted[rank_of(sorted.size(), q) - 1];
}

TailPercentile highest_supported_percentile(std::vector<double> samples,
                                            std::size_t min_beyond) {
  TailPercentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const std::size_t beyond = samples.size() - rank_of(samples.size(), q);
    if (beyond < min_beyond) break;
    out.q = q;
    out.value = percentile(samples, q);
    out.beyond = beyond;
  }
  return out;
}

double median(std::vector<double> v) {
  assert(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> fastest_slices(
    const std::vector<std::vector<double>>& series) {
  if (series.empty()) return {};
  std::vector<double> out = series.front();
  for (const auto& s : series) {
    if (s.size() != out.size()) return {};
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::min(out[i], s[i]);
  }
  return out;
}

std::int64_t union_length(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::map<std::string, std::int64_t> self_time_by_key(
    const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRec& p = spans[it->second];
    const std::int64_t lo = std::max(s.start, p.start);
    const std::int64_t hi = std::min(s.start + s.dur, p.start + p.dur);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].key] += spans[i].dur - union_length(std::move(children[i]));
  }
  return out;
}

std::string check_open_loop_accounting(std::uint64_t arrivals,
                                       std::uint64_t completed,
                                       std::uint64_t failed,
                                       std::uint64_t shed) {
  if (arrivals != completed + failed + shed) {
    return fmt("arrivals != completed + failed + shed", arrivals,
               completed + failed + shed);
  }
  return {};
}

std::string check_btio_bytes(std::uint64_t written, std::uint64_t class_total,
                             std::uint64_t requests) {
  if (requests == 0 || written > class_total ||
      class_total - written >= requests || written % requests != 0) {
    return fmt("BTIO pass bytes do not cover the class total", written,
               class_total);
  }
  return {};
}

std::string check_op_accounting(std::uint64_t attempted, std::uint64_t ok,
                                std::uint64_t failed, std::uint64_t traced) {
  if (attempted != ok + failed) {
    return fmt("attempted != ok + failed", attempted, ok + failed);
  }
  if (attempted != traced) {
    return fmt("attempted ops != ops seen in the trace", attempted, traced);
  }
  return {};
}

}  // namespace perfbench
