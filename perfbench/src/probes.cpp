// Layer probes: host cost per call of each layer's public functions, each on
// a standalone instance of that layer with nothing else running. Each probe
// times a few batches and reports the median batch's cost per call; the
// traced run reports the workload's own call counts beside them
// (sim.events_per_op, net.transfers_per_op, cache.accesses_per_op,
// localfs.calls_per_op, rpc.sent_per_op, ec.*_bytes).
#include <chrono>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "analysis.hpp"
#include "bench.hpp"
#include "common/buffer.hpp"
#include "common/codec.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/node.hpp"
#include "localfs/local_fs.hpp"
#include "net/fabric.hpp"
#include "raid/rig.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace csar;

namespace {

constexpr int kBatches = 5;

/// Median over kBatches of (seconds per call) for `batch`, which performs
/// `calls` calls.
double median_cost(std::uint64_t calls, const std::function<void()>& batch) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    per_call.push_back(dt.count() / static_cast<double>(calls));
  }
  return median(per_call);
}

/// A coroutine that suspends again every time it is resumed, so one handle
/// can stand behind any number of pending events.
struct Looper {
  struct promise_type {
    Looper get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<promise_type> h;
};

Looper looper() {
  for (;;) co_await std::suspend_always{};
}

/// Event queue: one step plus one schedule at a fixed pending depth, with
/// delays spread over 1 us .. 10 ms of simulated time.
double probe_event(std::size_t pending) {
  sim::Simulation s;
  Looper lp = looper();
  Rng rng(pending);
  auto delay = [&] { return sim::us(1) + rng.below(sim::ms(10)); };
  for (std::size_t i = 0; i < pending; ++i) {
    s.schedule_at(s.now() + delay(), lp.h);
  }
  constexpr std::uint64_t kCalls = 200000;
  const double cost = median_cost(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      s.step();
      s.schedule_at(s.now() + delay(), lp.h);
    }
  });
  lp.h.destroy();
  return cost;
}

/// Drive `body(i)` for i in [0, calls) as one simulation process per batch.
double probe_sim_calls(sim::Simulation& s, std::uint64_t calls,
                       std::function<sim::Task<void>(std::uint64_t)> body) {
  return median_cost(calls, [&] {
    s.spawn([](std::uint64_t n, std::function<sim::Task<void>(std::uint64_t)>*
                                    f) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) co_await (*f)(i);
    }(calls, &body));
    s.run();
  });
}

/// A server node's cache stack without the node around it.
struct CacheStack {
  explicit CacheStack(std::uint64_t capacity)
      : disk(s, hw::DiskParams{}), mem(s, 300e6),
        cache(s, disk, mem, hw::CacheParams{capacity, 4096, 64}) {}
  sim::Simulation s;
  hw::Disk disk;
  sim::BandwidthServer mem;
  hw::PageCache cache;
};

}  // namespace

std::map<std::string, double> run_probes() {
  std::map<std::string, double> out;

  // sim: mean over 10^3 .. 10^6 pending events.
  double ev = 0;
  for (std::size_t pending : {1000u, 10000u, 100000u, 1000000u}) {
    ev += probe_event(pending) / 4;
  }
  out["sim.probe_ns_per_event"] = ev * 1e9;

  {  // net: 16 KiB transfers between two idle nodes
    sim::Simulation s;
    hw::Cluster cl(s, hw::profile_experimental2003());
    const hw::NodeId a = cl.add_client(), b = cl.add_server();
    net::Fabric fab(cl);
    out["net.probe_us_per_transfer"] =
        1e6 * probe_sim_calls(s, 20000, [&](std::uint64_t) -> sim::Task<void> {
          co_await fab.transfer(a, b, 16 * KiB);
        });
  }

  {  // hw page cache: resident 4 KiB reads; cold reads evicting clean pages
    CacheStack hit(64 * MiB);
    const auto dense = hw::PageCache::dense(1 * MiB);
    hit.s.spawn([](hw::PageCache& c, hw::PageCache::ContentPred pred)
                    -> sim::Task<void> {
      co_await c.write(1, 0, 1 * MiB, pred);
    }(hit.cache, dense));
    hit.s.run();
    Rng rng(7);
    out["cache.probe_ns_per_hit"] =
        1e9 * probe_sim_calls(hit.s, 50000, [&](std::uint64_t) {
          return [](hw::PageCache& c, std::uint64_t off,
                    const hw::PageCache::ContentPred& pred) -> sim::Task<void> {
            co_await c.read(1, off, 4096, pred);
          }(hit.cache, rng.below(256) * 4096, dense);
        });
    CacheStack miss(1 * MiB);
    const auto big = hw::PageCache::dense(1ull << 40);
    std::uint64_t next = 0;
    out["cache.probe_ns_per_miss_evict"] =
        1e9 * probe_sim_calls(miss.s, 20000, [&](std::uint64_t) {
          return [](hw::PageCache& c, std::uint64_t off,
                    const hw::PageCache::ContentPred& pred) -> sim::Task<void> {
            co_await c.read(1, off, 4096, pred);
          }(miss.cache, 4096 * next++, big);
        });
  }

  {  // localfs: 16 KiB checked reads of resident real data; 16 KiB writes
    CacheStack st(256 * MiB);
    localfs::LocalFs fs(st.s, st.cache, localfs::LocalFsParams{});
    fs.create("f");
    st.s.spawn([](localfs::LocalFs& f) -> sim::Task<void> {
      co_await f.write("f", 0, Buffer::pattern(4 * MiB, 11));
    }(fs));
    st.s.run();
    Rng rng(9);
    out["localfs.probe_ns_per_read_checked"] =
        1e9 * probe_sim_calls(st.s, 20000, [&](std::uint64_t) {
          return [](localfs::LocalFs& f, std::uint64_t off) -> sim::Task<void> {
            auto r = co_await f.read_checked("f", off, 16 * KiB);
            (void)r;
          }(fs, rng.below(256) * 16 * KiB);
        });
    const Buffer payload = Buffer::pattern(16 * KiB, 13);
    out["localfs.probe_ns_per_write"] =
        1e9 * probe_sim_calls(st.s, 20000, [&](std::uint64_t) {
          return [](localfs::LocalFs& f, std::uint64_t off,
                    Buffer b) -> sim::Task<void> {
            co_await f.write("f", off, std::move(b));
          }(fs, rng.below(256) * 16 * KiB, payload);
        });
  }

  {  // pvfs: Client -> IoServer ping on an idle one-client, one-server rig
    raid::RigParams rp;
    rp.nservers = 1;
    rp.nclients = 1;
    raid::Rig rig(rp);
    out["rpc.probe_us_per_roundtrip"] =
        1e6 * probe_sim_calls(rig.sim, 20000, [&](std::uint64_t) {
          return [](pvfs::Client& c) -> sim::Task<void> {
            pvfs::Request r;
            r.op = pvfs::Op::ping;
            auto resp = co_await c.rpc(0, std::move(r));
            (void)resp;
          }(rig.client());
        });
  }

  {  // common codec: XOR parity and rs(4,2) group encode, per KiB of data
    std::vector<std::byte> dst(64 * KiB), src(64 * KiB);
    Rng rng(5);
    for (auto& b : src) b = static_cast<std::byte>(rng.next());
    constexpr std::uint64_t kRounds = 2000;
    out["codec.probe_ns_per_kib_xor"] =
        1e9 / 64 * median_cost(kRounds, [&] {
          for (std::uint64_t i = 0; i < kRounds; ++i) xor_words(dst, src);
        });
    std::vector<std::byte> coding(2 * 16 * KiB);
    const std::span<std::byte> parts[] = {
        std::span(coding).subspan(0, 16 * KiB),
        std::span(coding).subspan(16 * KiB, 16 * KiB)};
    const CodeSpec spec{4, 2};
    out["codec.probe_ns_per_kib_rs42"] =
        1e9 / 64 * median_cost(kRounds, [&] {
          for (std::uint64_t i = 0; i < kRounds; ++i) {
            for (std::uint32_t d = 0; d < 4; ++d) {
              rs_encode_delta(spec, d,
                              std::span(src).subspan(d * 16 * KiB, 16 * KiB),
                              parts);
            }
          }
        });
  }

  {  // common interval set: insert / erase / covers mix on 4 KiB units
    IntervalSet set;
    Rng rng(3);
    auto op = [&] {
      const std::uint64_t lo = rng.below(16384) * 4096;
      const std::uint64_t hi = lo + (1 + rng.below(16)) * 4096;
      switch (rng.below(5)) {
        case 0:
        case 1:
          set.insert(lo, hi);
          break;
        case 2:
          set.erase(lo, hi);
          break;
        default:
          (void)set.covers(lo, hi);
      }
    };
    for (int i = 0; i < 20000; ++i) op();  // reach a steady fragment count
    constexpr std::uint64_t kOps = 200000;
    out["interval.probe_ns_per_op"] = 1e9 * median_cost(kOps, [&] {
      for (std::uint64_t i = 0; i < kOps; ++i) op();
    });
  }
  return out;
}

}  // namespace perfbench
