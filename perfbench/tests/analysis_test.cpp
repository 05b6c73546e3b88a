#include "analysis.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.0), 1);
  EXPECT_EQ(percentile({7.0}, 0.99), 7);
}

TEST(Percentile, HighestWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  auto t = highest_supported_percentile(one_to(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.beyond, 10u);

  // 999 samples: p99 leaves 9, so p90 is the highest supported.
  t = highest_supported_percentile(one_to(999));
  EXPECT_EQ(t.q, 0.9);
  EXPECT_EQ(t.n, 999u);
  EXPECT_EQ(t.beyond, 99u);

  // 10000 samples reach p99.9; order of the input does not matter.
  auto v = one_to(10000);
  std::reverse(v.begin(), v.end());
  t = highest_supported_percentile(v);
  EXPECT_EQ(t.q, 0.999);
  EXPECT_EQ(t.value, 9990);

  // Too few samples for even the median.
  t = highest_supported_percentile(one_to(15));
  EXPECT_EQ(t.q, 0);
  EXPECT_EQ(t.n, 15u);
  EXPECT_EQ(highest_supported_percentile({}).n, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(FastestSlices, ElementWiseMinimum) {
  EXPECT_EQ(fastest_slices({{3, 1, 4}, {2, 7, 1}, {5, 2, 6}}),
            (std::vector<double>{2, 1, 1}));
  EXPECT_EQ(fastest_slices({{0.5}}), (std::vector<double>{0.5}));
  EXPECT_TRUE(fastest_slices({}).empty());
  EXPECT_TRUE(fastest_slices({{1, 2}, {1}}).empty());  // lengths differ
}

TEST(UnionLength, OverlapsAndGaps) {
  EXPECT_EQ(union_length({}), 0);
  EXPECT_EQ(union_length({{0, 10}, {5, 15}, {20, 25}, {25, 30}, {3, 4}}), 25);
  EXPECT_EQ(union_length({{5, 5}, {9, 2}}), 0);  // empty and inverted
}

TEST(SelfTime, HandBuiltTree) {
  // fs op [0,100) -> rpc [10,60) and rpc [40,90) (overlapping siblings);
  // first rpc -> net [20,30); second rpc -> disk [80,120) overhanging its
  // parent, clipped to [80,90) for the rpc's accounting.
  const std::vector<SpanRec> spans = {
      {1, 0, 0, 100, "fs"},  {2, 1, 10, 50, "rpc"}, {3, 1, 40, 50, "rpc"},
      {4, 2, 20, 10, "net"}, {5, 3, 80, 40, "disk"},
      {6, 99, 0, 7, "iod"},  // parent not in the trace: a root
  };
  const auto self = self_time_by_key(spans);
  EXPECT_EQ(self.at("fs"), 100 - 80);       // children cover [10,90)
  EXPECT_EQ(self.at("rpc"), (50 - 10) + (50 - 10));
  EXPECT_EQ(self.at("net"), 10);
  EXPECT_EQ(self.at("disk"), 40);
  EXPECT_EQ(self.at("iod"), 7);
}

TEST(Accounting, OpenLoop) {
  EXPECT_EQ(check_open_loop_accounting(10, 7, 1, 2), "");
  EXPECT_NE(check_open_loop_accounting(10, 7, 1, 1), "");
}

TEST(Accounting, BtioBytes) {
  // 6802 MB in 1616 equal requests leaves a remainder under 1616 bytes.
  const std::uint64_t total = 6802000000ull, req = 1616;
  const std::uint64_t written = total / req * req;
  EXPECT_EQ(check_btio_bytes(written, total, req), "");
  EXPECT_NE(check_btio_bytes(written - req, total, req), "");  // one short
  EXPECT_NE(check_btio_bytes(total + req, total, req), "");    // too many
  EXPECT_NE(check_btio_bytes(written - 1, total, req), "");    // uneven
  EXPECT_NE(check_btio_bytes(0, total, 0), "");
}

TEST(Accounting, Ops) {
  EXPECT_EQ(check_op_accounting(5, 4, 1, 5), "");
  EXPECT_NE(check_op_accounting(5, 4, 0, 5), "");
  EXPECT_NE(check_op_accounting(5, 4, 1, 6), "");
}

}  // namespace
}  // namespace perfbench
