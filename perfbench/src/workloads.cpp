// The benchmark's three workloads. Each drives the simulator only through
// its public entry points (wl::btio, wl::run_open_loop, fault::run_storm and
// the Rig/CsarFs/stat accessors) and derives its simulated-time figures from
// the spans obs::Tracer records at the CsarFs boundary.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string_view>

#include "analysis.hpp"
#include "bench.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/storm.hpp"
#include "obs/metrics.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "raid/scheme.hpp"
#include "sim/slab.hpp"
#include "workloads/harness.hpp"
#include "workloads/open_loop.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace csar;

namespace {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  if (h == 0) h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

/// Simulation events per host-time slice of a measured phase (about 10 ms
/// of host time on BTIO).
constexpr std::uint64_t kSliceEvents = 8192;

/// Brackets a rep's measured phase: host time, operator new calls and slab
/// allocations. While the phase drives the event loop (run()), it closes a
/// host-time slice every kSliceEvents events counted from the phase's first
/// run(); as the simulation is deterministic, slice i is the same work on
/// every rep of a seed.
class Phase {
 public:
  Phase()
      : t0_(host_now()),
        mark_(t0_),
        news0_(news_so_far()),
        slab0_(sim::slab::stats().allocs) {}

  /// Spawns `t` and runs the simulation until its queue is empty, as
  /// wl::run_on does; returns the task's result.
  template <typename T>
  T run(raid::Rig& rig, sim::Task<T> t) {
    std::optional<T> out;
    rig.sim.spawn(
        [](sim::Task<T> task, std::optional<T>* o) -> sim::Task<void> {
          o->emplace(co_await std::move(task));
        }(std::move(t), &out));
    run(rig.sim);
    assert(out.has_value() && "workload deadlocked");
    return std::move(*out);
  }

  void run(raid::Rig& rig, sim::Task<void> t) {
    rig.sim.spawn(std::move(t));
    run(rig.sim);
  }

  void close(Rep& r) {
    const double now = host_now();
    r.host_s = now - t0_;
    slices_.push_back(now - mark_);
    r.slices = std::move(slices_);
    r.news = news_so_far() - news0_;
    r.slab_allocs = sim::slab::stats().allocs - slab0_;
  }

 private:
  void run(sim::Simulation& s) {
    if (next_ == 0) next_ = s.events_executed() + kSliceEvents;
    while (s.step()) {
      if (s.events_executed() == next_) {
        const double now = host_now();
        slices_.push_back(now - mark_);
        mark_ = now;
        next_ += kSliceEvents;
      }
    }
  }

  double t0_;
  double mark_;
  std::uint64_t next_ = 0;
  std::vector<double> slices_;
  std::uint64_t news0_;
  std::uint64_t slab0_;
};

// ------------------------------------------------------ trace-derived figures

enum class OpKind { write, overwrite, read, skip };

/// One CsarFs read/write, as its top-level "fs" span recorded it.
struct FsOp {
  OpKind kind;
  std::uint32_t pid;  ///< the issuing client's trace process
  std::int64_t start;
  std::int64_t end;
  std::uint64_t off;
  std::uint64_t len;
  bool in_latency = true;  ///< counts toward the latency percentiles
};

std::uint64_t arg_u64(const std::string& args, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const auto at = args.find(pat);
  return at == std::string::npos
             ? 0
             : std::strtoull(args.c_str() + at + pat.size(), nullptr, 10);
}

/// Every finished CsarFs op span, in start order (the tracer appends spans
/// when they open).
std::vector<FsOp> fs_ops(const obs::Tracer& t) {
  std::vector<FsOp> out;
  for (const auto& e : t.events()) {
    if (e.ph != 'X' || e.open || std::strcmp(e.cat, "fs") != 0) continue;
    const bool write = std::strcmp(e.name, "fs.write") == 0;
    out.push_back({write ? OpKind::write : OpKind::read, e.pid,
                   static_cast<std::int64_t>(e.start),
                   static_cast<std::int64_t>(e.start + e.dur),
                   arg_u64(e.args, "off"), arg_u64(e.args, "len")});
  }
  return out;
}

/// Simulated-time end-to-end figures over the classified ops: bandwidth per
/// op kind (bytes over the time at least one op of that kind was in flight),
/// p50/p99 latency over the ops marked in_latency, and for closed loops
/// their rate over the time any of them was in flight.
void derive_sim_metrics(const std::vector<FsOp>& ops, bool closed_loop,
                        Rep& r) {
  static constexpr struct {
    OpKind kind;
    const char* metric;
  } kKinds[] = {{OpKind::write, "sim_write_MBps"},
                {OpKind::overwrite, "sim_overwrite_MBps"},
                {OpKind::read, "sim_read_MBps"}};
  std::vector<double> lat_ms;
  std::vector<Interval> all;
  for (const auto& k : kKinds) {
    std::uint64_t bytes = 0, n = 0;
    std::vector<Interval> iv;
    for (const FsOp& op : ops) {
      if (op.kind != k.kind) continue;
      ++n;
      bytes += op.len;
      iv.push_back({op.start, op.end});
      if (!op.in_latency) continue;
      all.push_back({op.start, op.end});
      lat_ms.push_back(static_cast<double>(op.end - op.start) / 1e6);
    }
    const double busy_s = static_cast<double>(union_length(iv)) / 1e9;
    if (n == 0 || busy_s <= 0) {
      r.violations.push_back(std::string("no ops for ") + k.metric);
      r.sim[k.metric] = 0;
      continue;
    }
    r.sim[k.metric] = static_cast<double>(bytes) / 1e6 / busy_s;
    r.notes.push_back(std::string(k.metric) +
                      fmt(": %.0f ops, %.1f MB over %.4f sim s in flight",
                          static_cast<double>(n),
                          static_cast<double>(bytes) / 1e6, busy_s));
  }
  const TailPercentile tail = highest_supported_percentile(lat_ms);
  if (tail.q < 0.99) {
    r.violations.push_back("fewer than 1000 latency samples: no p99");
  }
  if (!lat_ms.empty()) {
    std::sort(lat_ms.begin(), lat_ms.end());
    r.sim["sim_p50_ms"] = percentile(lat_ms, 0.5);
    r.sim["sim_p99_ms"] = percentile(lat_ms, 0.99);
    r.notes.push_back(fmt("sim latency: n=%.0f p50=%.4f ms p99=%.4f ms",
                          static_cast<double>(tail.n), r.sim["sim_p50_ms"],
                          r.sim["sim_p99_ms"]));
    r.notes.push_back(fmt("sim latency: highest percentile with >=10 samples "
                          "beyond it: p%.2f = %.4f ms (%.0f beyond)",
                          tail.q * 100, tail.value,
                          static_cast<double>(tail.beyond)));
  }
  if (closed_loop) {
    const double busy_s = static_cast<double>(union_length(all)) / 1e9;
    r.sim["sim_max_rate_rps"] =
        busy_s > 0 ? static_cast<double>(lat_ms.size()) / busy_s : 0;
  }
}

/// Simulated seconds the counted ops spent in flight, summed over ops.
double op_seconds(const std::vector<FsOp>& ops) {
  double s = 0;
  for (const FsOp& op : ops) {
    if (op.kind != OpKind::skip) s += static_cast<double>(op.end - op.start);
  }
  return s / 1e9;
}

/// Layer a span is charged to for self-time accounting; "" = not counted
/// (named simulator tasks are long-lived pollers, not request work).
const char* layer_key(const obs::Tracer::Event& e, std::uint32_t repair_pid) {
  if (repair_pid != 0 && e.pid == repair_pid) return "rebuild";
  const std::string_view cat = e.cat, name = e.name;
  if (cat == "fs") return "fs";
  if (cat == "rpc") return name == "meta" ? "meta" : "rpc";
  if (cat == "net") return "net";
  if (cat == "server") return name == "iod_queue" ? "iod_queue" : "iod";
  if (cat == "lock") return "lock_wait";
  if (cat == "disk") return "disk";
  return "";
}

constexpr const char* kTraceKeys[] = {"fs",        "rpc",  "meta",
                                      "net",       "iod",  "iod_queue",
                                      "lock_wait", "disk", "rebuild"};

/// Self-time shares per layer plus the span counts the probes scale by.
void derive_trace_layers(const obs::Tracer& t, std::uint32_t repair_pid,
                         std::uint64_t ops, Rep& r) {
  std::vector<SpanRec> spans;
  std::uint64_t transfers = 0, localfs_calls = 0;
  for (const auto& e : t.events()) {
    if (e.ph != 'X' || e.open) continue;
    const char* key = layer_key(e, repair_pid);
    if (*key == '\0') continue;
    spans.push_back({e.id, e.parent, static_cast<std::int64_t>(e.start),
                     static_cast<std::int64_t>(e.dur), key});
    if (std::strcmp(e.cat, "net") == 0) ++transfers;
    if (std::strcmp(e.cat, "disk") == 0) ++localfs_calls;
  }
  const auto self = self_time_by_key(spans);
  double total = 0;
  for (const auto& [k, v] : self) total += static_cast<double>(v);
  for (const char* k : kTraceKeys) {
    auto it = self.find(k);
    r.layer[std::string("trace.self_share.") + k] =
        it == self.end() || total <= 0 ? 0
                                       : static_cast<double>(it->second) / total;
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, ops));
  r.layer["net.transfers_per_op"] = static_cast<double>(transfers) / n;
  r.layer["localfs.calls_per_op"] = static_cast<double>(localfs_calls) / n;
}

/// Per-layer values every workload exposes through Rig::export_metrics.
void observe_registry(obs::Registry& reg, std::uint64_t ops,
                      double op_time_s, Rep& r) {
  auto c = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double n = static_cast<double>(std::max<std::uint64_t>(1, ops));
  const double hits = c("rig.cache_hits"), misses = c("rig.cache_misses");
  r.layer["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  r.layer["cache.accesses_per_op"] = (hits + misses) / n;
  r.layer["rpc.sent_per_op"] = c("rig.rpc_sent") / n;
  r.layer["rpc.retries"] = c("rig.rpc_retries");
  r.layer["rpc.timeouts"] = c("rig.rpc_timeouts");
  const double batches = c("rig.batches");
  r.layer["iod.subs_per_batch"] =
      batches > 0 ? c("rig.batch_subs") / batches : 0;
  r.layer["iod.merged_reads"] = c("rig.merged_reads");
  r.layer["lock.waits"] = c("rig.lock_waits");
  r.layer["lock.wait_share"] =
      op_time_s > 0 ? reg.gauge("rig.lock_wait_seconds").value() / op_time_s
                    : 0;
  r.layer["lock.lease_expirations"] = c("rig.lock_lease_expirations");
  r.layer["mgr.journal_records"] = c("rig.mgr_journal_records");
  r.layer["ec.encode_bytes"] = c("rig.ec_encode_bytes");
  r.layer["ec.decode_bytes"] = c("rig.ec_decode_bytes");
  r.layer["ec.fragments_fetched"] = c("rig.ec_fragments_fetched");
}

/// Per-layer values only a rig the benchmark owns exposes (node resources,
/// page-cache and disk detail, per-scheme RAID counters). Busy shares are
/// over the rig's whole simulated lifetime.
void observe_nodes(raid::Rig& rig, std::uint64_t user_bytes, Rep& r) {
  const double sim_s = sim::to_seconds(rig.sim.now());
  double tx = 0, rx = 0, disk_busy = 0;
  double prereads = 0, dirty_ev = 0, clean_ev = 0, seeks = 0, disk_w = 0;
  for (auto& c : rig.clients) {
    tx = std::max(tx, sim::to_seconds(
                          rig.cluster.node(c->node_id()).tx().busy_time()));
  }
  for (auto& s : rig.servers) {
    hw::Node& n = rig.cluster.node(s->node_id());
    rx = std::max(rx, sim::to_seconds(n.rx().busy_time()));
    const auto& cs = n.cache()->stats();
    prereads += static_cast<double>(cs.prereads);
    dirty_ev += static_cast<double>(cs.dirty_evictions);
    clean_ev += static_cast<double>(cs.clean_evictions);
    const auto ds = n.disk()->stats();
    disk_busy = std::max(disk_busy, sim::to_seconds(ds.busy_time));
    seeks += static_cast<double>(ds.seeks);
    disk_w += static_cast<double>(ds.bytes_written);
  }
  r.layer["net.client_tx_busy_share"] = tx / sim_s;
  r.layer["net.server_rx_busy_share"] = rx / sim_s;
  r.layer["cache.prereads"] = prereads;
  r.layer["cache.dirty_evictions"] = dirty_ev;
  r.layer["cache.clean_evictions"] = clean_ev;
  r.layer["disk.busy_share"] = disk_busy / sim_s;
  r.layer["disk.seeks"] = seeks;
  r.layer["disk.bytes_written_per_user_byte"] =
      user_bytes > 0 ? disk_w / static_cast<double>(user_bytes) : 0;
  double rmw = 0, ovfl = 0;
  for (const auto& [scheme, cnt] : rig.policy().per_scheme()) {
    rmw += static_cast<double>(cnt.rmw_groups);
    ovfl += static_cast<double>(cnt.overflow_bytes);
  }
  r.layer["raid.rmw_groups"] = rmw;
  r.layer["raid.overflow_bytes"] = ovfl;
  for (const char* k : {"rebuild.bytes", "rebuild.passes",
                        "rebuild.recopy_passes", "rebuild.mttr_s"}) {
    r.layer[k] = 0;  // no server fails in this workload
  }
}

/// Fold of a rig's end state: events, clock and every disk/cache counter.
std::uint64_t rig_fingerprint(raid::Rig& rig) {
  std::uint64_t h = fnv(0, rig.sim.events_executed());
  h = fnv(h, rig.sim.now());
  for (auto& s : rig.servers) {
    hw::Node& n = rig.cluster.node(s->node_id());
    const auto ds = n.disk()->stats();
    for (std::uint64_t v : {ds.reads, ds.writes, ds.bytes_read,
                            ds.bytes_written, ds.seeks, ds.busy_time}) {
      h = fnv(h, v);
    }
    const auto& cs = n.cache()->stats();
    for (std::uint64_t v : {cs.hits, cs.misses, cs.prereads,
                            cs.dirty_evictions, cs.clean_evictions}) {
      h = fnv(h, v);
    }
  }
  return h;
}

/// Bytes the servers store for `files`: data, redundancy and overflow
/// (Table 2's measure; divided by the user's logical bytes it is the
/// storage ratio).
double stored_bytes(raid::Rig& rig, const std::vector<pvfs::OpenFile>& files,
                    std::uint64_t* fp) {
  std::uint64_t stored = 0;
  for (const auto& f : files) {
    const pvfs::StorageInfo si =
        wl::run_on(rig, rig.client_fs(0).storage(f));
    stored += si.data_bytes + si.red_bytes + si.overflow_bytes;
    *fp = fnv(fnv(fnv(*fp, si.data_bytes), si.red_bytes), si.overflow_bytes);
  }
  return static_cast<double>(stored);
}

void run_task(raid::Rig& rig, sim::Task<void> t) {
  rig.sim.spawn(std::move(t));
  rig.sim.run();
}

// ------------------------------------------------------------------- btio

/// NAS BTIO Class C, 16 procs, Hybrid, phantom payloads on 4 OSC-2003
/// servers, so the 9.3 GB that Hybrid stores exceeds the servers' 2 GiB
/// write-absorbing caches: a collective append pass, a flush and cache drop,
/// a cold-cache overwrite pass (both inside wl::btio), then a restart-style
/// read-back of every request in a seeded order per proc.
class Btio final : public Workload {
 public:
  explicit Btio(std::uint64_t seed) : seed_(seed) {}

  double setup_once() override {
    const double t0 = host_now();
    raid::Rig rig(rig_params());
    run_task(rig, write_prior(rig, prior_bytes()));
    return host_now() - t0;
  }

  Rep run(obs::Tracer* tracer) override {
    Rep r;
    raid::Rig rig(rig_params());
    run_task(rig, write_prior(rig, prior_bytes()));
    if (tracer != nullptr) rig.set_obs(tracer, nullptr);
    const sim::Time sim0 = rig.sim.now();
    pvfs::OpenFile file;
    std::uint64_t extent = 0;
    wl::BtioParams p;
    p.cls = wl::BtioClass::C;
    p.nprocs = kProcs;
    p.stripe_unit = 64 * KiB;
    p.overwrite = true;
    p.on_create = [&](const pvfs::OpenFile& f, std::uint64_t ext) {
      file = f;
      extent = ext;
    };

    Phase phase;
    const wl::WorkloadResult res = phase.run(rig, wl::btio(rig, p));
    const std::uint64_t total = wl::btio_total_bytes(p.cls);
    const auto steps = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, total / (std::uint64_t{kProcs} * (4 * MiB))));
    const std::uint64_t requests = std::uint64_t{kProcs} * steps;
    const std::uint64_t chunk = total / requests;
    const std::uint64_t skew = extent - chunk * requests;
    std::uint64_t read_bytes = 0, read_failed = 0;
    phase.run(rig, read_back(rig, file, chunk, steps, skew, &read_bytes,
                             &read_failed));
    phase.close(r);
    r.sim_s = sim::to_seconds(rig.sim.now() - sim0);

    std::uint64_t fp = 0;
    const double stored = stored_bytes(rig, {file}, &fp);
    r.events = rig.sim.events_executed();
    r.fingerprint = fnv(fnv(fnv(rig_fingerprint(rig), fp), res.write_time),
                        read_bytes);
    r.attempted = 3 * requests;
    r.failed = res.ops_failed + read_failed;
    r.user_bytes_written = prior_bytes() + 2 * res.bytes_written;
    if (skew == 0 || skew >= chunk) {
      r.violations.push_back("BTIO geometry does not match the file extent");
    }
    if (auto v = check_btio_bytes(res.bytes_written, total, requests);
        !v.empty()) {
      r.violations.push_back(v);
    }
    if (read_bytes + read_failed * chunk != res.bytes_written) {
      r.violations.push_back("read-back bytes != bytes written");
    }
    if (tracer == nullptr) return r;

    // Spans open in start order, and the append pass finishes (barrier +
    // flush) before the overwrite pass starts.
    std::vector<FsOp> ops = fs_ops(*tracer);
    std::uint64_t writes = 0, reads = 0, pass_bytes[2] = {0, 0};
    for (FsOp& op : ops) {
      if (op.kind == OpKind::read) {
        ++reads;
        continue;
      }
      const bool first = writes++ < requests;
      pass_bytes[first ? 0 : 1] += op.len;
      if (!first) op.kind = OpKind::overwrite;
    }
    if (writes != 2 * requests || reads != requests ||
        pass_bytes[0] != res.bytes_written ||
        pass_bytes[1] != res.bytes_written) {
      r.violations.push_back("traced BTIO ops do not match the workload");
    }
    derive_sim_metrics(ops, /*closed_loop=*/true, r);
    r.sim["sim_storage_ratio"] =
        stored / static_cast<double>(res.bytes_written);
    obs::Registry reg;
    rig.export_metrics(reg);
    observe_registry(reg, r.attempted, op_seconds(ops), r);
    observe_nodes(rig, r.user_bytes_written, r);
    derive_trace_layers(*tracer, 0, r.attempted, r);
    return r;
  }

 private:
  static constexpr std::uint32_t kProcs = 16;

  static raid::RigParams rig_params() {
    raid::RigParams p;
    p.scheme = raid::Scheme::hybrid;
    p.nservers = 4;
    p.nclients = kProcs;
    p.profile = hw::profile_osc2003();
    return p;
  }

  /// Seeded amount (480-544 MiB) of earlier data, written and left dirty
  /// before the job starts: the servers are neither empty nor idle-clean.
  std::uint64_t prior_bytes() const {
    return (120 + Rng(seed_ ^ 0xB7105EEDULL).below(17)) * 4 * MiB;
  }

  static sim::Task<void> write_prior(raid::Rig& rig, std::uint64_t bytes) {
    auto& fs = rig.client_fs(0);
    auto f = co_await fs.create("prior", rig.layout(64 * KiB));
    for (std::uint64_t off = 0; f.ok() && off < bytes; off += 4 * MiB) {
      co_await fs.write(*f, off, Buffer::phantom(4 * MiB));
    }
  }

  /// Each proc reads back its own requests, in a seeded random order.
  sim::Task<void> read_back(raid::Rig& rig, pvfs::OpenFile f,
                            std::uint64_t chunk, std::uint32_t steps,
                            std::uint64_t skew, std::uint64_t* bytes,
                            std::uint64_t* failed) {
    co_await wl::run_clients(rig, kProcs, [&](std::uint32_t proc) {
      return read_proc(rig, f, chunk, steps, skew, proc,
                       seed_ * 0x9E3779B97F4A7C15ULL + proc, bytes, failed);
    });
  }

  static sim::Task<void> read_proc(raid::Rig& rig, pvfs::OpenFile f,
                                   std::uint64_t chunk, std::uint32_t steps,
                                   std::uint64_t skew, std::uint32_t proc,
                                   std::uint64_t seed, std::uint64_t* bytes,
                                   std::uint64_t* failed) {
    std::vector<std::uint32_t> order(steps);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(seed);
    for (std::uint32_t i = steps; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (std::uint32_t step : order) {
      const std::uint64_t off =
          (std::uint64_t{step} * kProcs + proc) * chunk + skew;
      auto rd = co_await rig.client_fs(proc).read(f, off, chunk);
      if (rd.ok()) {
        *bytes += rd->size();
      } else {
        ++*failed;
      }
    }
  }

  std::uint64_t seed_;
};

// --------------------------------------------------------------- openloop

/// Open loop of seeded Poisson arrivals from 32 tenants (one client node
/// each, equal rates) on 8 Hybrid servers: 16 KiB requests, 30% reads of
/// earlier writes, at most 16 outstanding per tenant (more arrivals are
/// shed), 8 MiB files that fit the page caches. Equal rates put the first
/// shed at the servers' saturation instead of at the busiest tenant's cap.
class OpenLoop final : public Workload {
 public:
  explicit OpenLoop(std::uint64_t seed) : seed_(seed) {}

  /// Offered rate of the measured run, below saturation (no shed).
  static constexpr double kRate = 12000;
  /// The rate ladder and the p99 limit that define sim_max_rate_rps.
  static constexpr double kLadder[] = {12000, 14000, 16000, 18000, 19000,
                                       20000, 21000, 22000, 23000, 24000,
                                       26000, 28000};
  static constexpr double kP99LimitMs = 15;

  /// The rig and the tenants' files, created as run_open_loop creates them
  /// (it creates its own; this is the same work on an equal deployment).
  double setup_once() override {
    const double t0 = host_now();
    raid::Rig rig(rig_params());
    run_task(rig, [](raid::Rig& rg) -> sim::Task<void> {
      for (std::uint32_t i = 0; i < kTenants; ++i) {
        co_await rg.client_fs(i).create("ol-" + std::to_string(i),
                                        rg.layout(kStripeUnit));
      }
    }(rig));
    return host_now() - t0;
  }

  Rep run(obs::Tracer* tracer) override { return run_at(kRate, tracer); }

  void extra_e2e(Rep& traced) override {
    double best = 0;
    for (double rate : kLadder) {
      obs::Tracer t;
      Rep r = run_at(rate, &t);
      const bool ok = r.violations.empty() && r.failed == 0 &&
                      r.sim["sim_p99_ms"] <= kP99LimitMs;
      traced.notes.push_back(fmt("ladder %6.0f rps: p99 %.4f ms, failed+shed "
                                 "%.0f -> ",
                                 rate, r.sim["sim_p99_ms"],
                                 static_cast<double>(r.failed)) +
                             (ok ? "meets" : "misses"));
      if (!ok) break;  // past saturation the backlog only grows
      best = rate;
    }
    traced.sim["sim_max_rate_rps"] = best;
    if (best == 0) {
      traced.violations.push_back("no ladder rate meets the p99 limit");
    }
  }

 private:
  static constexpr std::uint32_t kTenants = 32;
  static constexpr std::uint32_t kStripeUnit = 64 * KiB;

  static raid::RigParams rig_params() {
    raid::RigParams p;
    p.scheme = raid::Scheme::hybrid;
    p.nservers = 8;
    p.nclients = kTenants;
    return p;
  }

  Rep run_at(double rate, obs::Tracer* tracer) {
    Rep r;
    raid::Rig rig(rig_params());
    if (tracer != nullptr) rig.set_obs(tracer, nullptr);
    wl::OpenLoopParams p;
    p.stripe_unit = kStripeUnit;
    p.ntenants = kTenants;
    p.total_rate = rate;
    p.request_bytes = 16 * KiB;
    p.read_fraction = 0.3;
    p.max_outstanding = 16;
    p.zipf_skew = 0;
    p.file_extent = 8 * MiB;
    p.duration = sim::sec(2);
    p.seed = seed_ ^ 0xC5A20123ULL;
    std::vector<pvfs::OpenFile> files;
    p.on_file_created = [&](std::uint32_t, const std::string&,
                            const pvfs::OpenFile& f,
                            std::uint64_t) { files.push_back(f); };

    Phase phase;
    const wl::OpenLoopStats st = phase.run(rig, wl::run_open_loop(rig, p));
    phase.close(r);
    r.sim_s = sim::to_seconds(st.elapsed);

    std::uint64_t fp = st.fingerprint;
    const double stored = stored_bytes(rig, files, &fp);
    r.events = rig.sim.events_executed();
    r.fingerprint = fnv(fnv(rig_fingerprint(rig), fp), st.arrivals);
    r.attempted = st.arrivals;
    r.failed = st.failed + st.shed;
    r.user_bytes_written = st.bytes_written;
    if (auto v = check_open_loop_accounting(st.arrivals, st.completed,
                                            st.failed, st.shed);
        !v.empty()) {
      r.violations.push_back(v);
    }
    if (tracer == nullptr) return r;

    // One tenant per client node, so a client's trace process identifies
    // the tenant's file: a write is an overwrite when that tenant wrote
    // every byte of its range before.
    std::vector<FsOp> ops = fs_ops(*tracer);
    std::map<std::uint32_t, IntervalSet> written;
    for (FsOp& op : ops) {
      if (op.kind != OpKind::write) continue;
      IntervalSet& w = written[op.pid];
      if (w.covers(op.off, op.off + op.len)) op.kind = OpKind::overwrite;
      w.insert(op.off, op.off + op.len);
    }
    std::uint64_t logical = 0;
    for (const auto& [pid, w] : written) logical += w.total();
    if (auto v = check_op_accounting(st.completed + st.failed, st.completed,
                                     st.failed, ops.size());
        !v.empty()) {
      r.violations.push_back(v);
    }
    derive_sim_metrics(ops, /*closed_loop=*/false, r);
    r.sim["sim_storage_ratio"] = stored / static_cast<double>(logical);
    obs::Registry reg;
    rig.export_metrics(reg);
    observe_registry(reg, r.attempted, op_seconds(ops), r);
    observe_nodes(rig, r.user_bytes_written, r);
    derive_trace_layers(*tracer, 0, r.attempted, r);
    return r;
  }

  std::uint64_t seed_;
};

// --------------------------------------------------------------- storm_ec

/// Seeded fault storm with real payloads over a mixed rs(4,2)/raid5/hybrid
/// file set on 8 servers: a crash + wipe of server 1 rebuilt online, latent
/// sector errors repaired by scrub, every read shadow-verified.
class StormEc final : public Workload {
 public:
  explicit StormEc(std::uint64_t seed) : seed_(seed) {}

  /// Rig build, per-file scheme rules, file creation and the preload, as
  /// run_storm does them (it builds its own rig; this is the same work on an
  /// equal deployment). Also measures the file set's storage ratio.
  double setup_once() override {
    const fault::StormParams sp = params();
    const double t0 = host_now();
    raid::RigParams rp = sp.rig;
    for (std::uint32_t i = sp.nfiles; i-- > 0;) {
      rp.policy.rules.push_back(
          {"storm" + std::to_string(i),
           sp.file_schemes[i % sp.file_schemes.size()]});
    }
    raid::Rig rig(rp);
    std::vector<pvfs::OpenFile> files;
    run_task(rig, preload(rig, sp, &files));
    const double dt = host_now() - t0;
    std::uint64_t fp = 0;
    storage_ratio_ = stored_bytes(rig, files, &fp) /
                     static_cast<double>(sp.nfiles * sp.file_size);
    return dt;
  }

  Rep run(obs::Tracer* tracer) override {
    Rep r;
    fault::StormParams sp = params();
    obs::Registry reg;
    if (tracer != nullptr) {
      sp.tracer = tracer;
      sp.metrics = &reg;
    }
    Phase phase;  // run_storm runs its own event loop: one slice
    const fault::StormMetrics m = fault::run_storm(sp);
    phase.close(r);
    r.sim_s = sim::to_seconds(m.finished_at);
    r.events = m.events_executed;
    r.fingerprint = m.fingerprint;
    r.attempted = m.ops_attempted;
    r.failed = m.ops_failed;
    if (m.verify_mismatches != 0) {
      r.violations.push_back(std::to_string(m.verify_mismatches) +
                             " shadow mismatches");
    }
    if (m.meta_mismatches != 0) {
      r.violations.push_back("metadata audit found " +
                             std::to_string(m.meta_mismatches) +
                             " mismatches");
    }
    if (!m.rebuild_ok || m.rebuilds_completed == 0) {
      r.violations.push_back("the wiped server was not rebuilt");
    }
    if (m.scrub_repaired < m.scrub_media_errors) {
      r.violations.push_back("scrub left media errors unrepaired");
    }
    r.notes.push_back("storm_ec: " + std::to_string(m.ops_failed) +
                      " ops failed, scrub repaired " +
                      std::to_string(m.scrub_repaired) + " of " +
                      std::to_string(m.scrub_media_errors) +
                      " media errors (" +
                      std::to_string(m.faults.media_planted) + " planted), " +
                      std::to_string(m.degraded_reads) +
                      " degraded reads, " + std::to_string(m.degraded_writes) +
                      " degraded writes");
    if (tracer == nullptr) return r;

    // Preload writes and the closing sweep reads move whole stripes;
    // foreground ops move io_size bytes, and every foreground write lands on
    // preloaded data. Latency and op rate cover the foreground ops only.
    std::vector<FsOp> ops = fs_ops(*tracer);
    std::uint64_t foreground = 0;
    for (FsOp& op : ops) {
      const bool fg = op.len == sp.io_size;
      foreground += fg;
      op.in_latency = fg;
      if (op.kind == OpKind::write) {
        if (fg) op.kind = OpKind::overwrite;
        r.user_bytes_written += op.len;
      } else if (!fg) {
        op.kind = OpKind::skip;
      }
    }
    if (auto v = check_op_accounting(m.ops_attempted, m.ops_ok, m.ops_failed,
                                     foreground);
        !v.empty()) {
      r.violations.push_back(v);
    }
    derive_sim_metrics(ops, /*closed_loop=*/true, r);
    r.sim["sim_storage_ratio"] = storage_ratio_;  // measured by setup_once
    observe_registry(reg, r.attempted, op_seconds(ops), r);
    // run_storm owns its rig: node resources, page-cache/disk detail and
    // the per-scheme counters are not reachable from outside.
    for (const char* k :
         {"net.client_tx_busy_share", "net.server_rx_busy_share",
          "cache.prereads", "cache.dirty_evictions", "cache.clean_evictions",
          "disk.busy_share", "disk.seeks", "disk.bytes_written_per_user_byte",
          "raid.rmw_groups", "raid.overflow_bytes"}) {
      r.layer[k] = -1;
    }
    r.layer["rebuild.bytes"] = static_cast<double>(m.rebuild_bytes);
    r.layer["rebuild.passes"] = static_cast<double>(m.rebuild_passes);
    r.layer["rebuild.recopy_passes"] = static_cast<double>(m.recopy_passes);
    r.layer["rebuild.mttr_s"] = sim::to_seconds(m.mttr);
    // Rig node ids: manager 0, servers 1..n, clients, then the repair client.
    const std::uint32_t repair_pid =
        tracer->node_pid(sp.rig.nservers + sp.rig.nclients + 1);
    derive_trace_layers(*tracer, repair_pid, r.attempted, r);
    return r;
  }

 private:
  fault::StormParams params() const {
    fault::StormParams p;
    p.rig.scheme = raid::Scheme::hybrid;
    p.rig.nservers = 8;
    p.rig.rpc.timeout = sim::ms(150);
    p.rig.rpc.max_attempts = 4;
    p.rig.rpc.backoff = sim::ms(5);
    p.health.interval = sim::ms(100);
    p.file_schemes = {raid::Scheme::rs(4, 2), raid::Scheme::raid5,
                      raid::Scheme::hybrid};
    p.nfiles = 6;
    p.file_size = 4 * MiB;
    p.stripe_unit = 64 * KiB;
    Rng rng(seed_ ^ 0x5EEDFA17ULL);
    // Near 48 KiB and unaligned; never equal to a preload or sweep chunk
    // (whole stripes), which is how the trace tells the phases apart.
    p.io_size = 48 * KiB - rng.below(4 * KiB);
    p.ops = 8000;
    p.op_gap = sim::ms(2);
    p.workload_seed = seed_;
    p.plan.seed = rng.next();
    p.plan.crashes.push_back({sim::ms(1500), 1, sim::ms(1800), /*wipe=*/true});
    // Latent sector errors on one server, long after the rebuild: every
    // fault stays a single failure, which each scheme must survive. The
    // files stay resident in the servers' page caches and cached pages never
    // report media errors, so reads and the closing scrub only see an error
    // whose range has left the cache.
    const auto media_server = 2 + static_cast<std::uint32_t>(rng.below(6));
    for (std::uint32_t i = 0; i < 2; ++i) {
      fault::MediaFault mf;
      mf.at = sim::ms(44000 + rng.below(2000));
      mf.server = media_server;
      // Handles are assigned in creation order starting at 1.
      mf.file = pvfs::IoServer::data_name(1 + rng.below(p.nfiles));
      mf.off = rng.below(96) * 4 * KiB;
      mf.len = 64 * KiB;
      p.plan.media.push_back(mf);
    }
    return p;
  }

  static sim::Task<void> preload(raid::Rig& rig, fault::StormParams sp,
                                 std::vector<pvfs::OpenFile>* files) {
    auto& fs = rig.client_fs();
    Rng wl(sp.workload_seed);
    for (std::uint32_t i = 0; i < sp.nfiles; ++i) {
      auto f = co_await fs.create("storm" + std::to_string(i),
                                  rig.layout(sp.stripe_unit));
      if (f.ok()) files->push_back(*f);
    }
    for (const auto& f : *files) {
      const std::uint64_t chunk = f.layout.stripe_width();
      for (std::uint64_t off = 0; off < sp.file_size; off += chunk) {
        const std::uint64_t len = std::min(chunk, sp.file_size - off);
        co_await fs.write(f, off, Buffer::pattern(len, wl.next()));
      }
    }
  }

  std::uint64_t seed_;
  double storage_ratio_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "btio") return std::make_unique<Btio>(seed);
  if (name == "openloop") return std::make_unique<OpenLoop>(seed);
  if (name == "storm_ec") return std::make_unique<StormEc>(seed);
  return nullptr;
}

}  // namespace perfbench
