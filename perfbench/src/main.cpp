// perfbench: measures one workload of the CSAR simulator and prints its
// figures as `METRIC <name> <value>` lines, its correctness checks as
// `CHECK` lines and its op counts; run.py turns them into the result line.
//
//   perfbench --workload btio|openloop|storm_ec --seed N --seconds S
//             --trace 0|1 [--extras 0|1]
//
// A run repeats the untraced workload until its measured phases have taken
// S host seconds, with repeated set-ups of the deployment spread between
// the reps (setup_s is their median); every rep must reproduce the first
// one's fingerprint and event count. Each rep's measured phase is timed in slices of a fixed number of
// simulation events, the same work on every rep; wall_per_sim_s sums each
// slice's fastest time over the reps (printed as the SLICES line, so that
// run.py can pool the reps of several processes), which leaves out the
// bursts in which other load on the host slows a rep down. With --extras 1
// (the default) it then runs the workload once more with the tracer
// attached. The traced rep must reproduce the same fingerprint; it supplies
// the simulated-time figures (identical on every rep) and, with --trace 1,
// the per-layer figures, the tracing overhead and the standalone layer
// probes. --extras 0 prints the host-time figures only.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "analysis.hpp"
#include "bench.hpp"
#include "common/units.hpp"
#include "sim/slab.hpp"

namespace {

std::uint64_t g_news = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Counting hook for host allocations (host.news_per_op). The simulator is
// single-threaded, so a plain counter suffices.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t news_so_far() { return g_news; }

namespace {

constexpr std::size_t kMinSetupReps = 9;
constexpr std::size_t kMaxSetupReps = 20000;
constexpr std::size_t kMinReps = 3;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void metric(const std::string& name, double v) {
  std::printf("METRIC %s %.17g\n", name.c_str(), v);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "btio|openloop|storm_ec --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool extras = true;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (k == "--extras") {
      extras = std::strcmp(v, "0") != 0;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  auto w = make_workload(workload, seed);
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0 && seconds <= 600)) return usage("bad --seconds");

  // Set-up takes a tenth of the measured reps' host time (at least half a
  // second), so even a set-up of microseconds gets a median over many
  // repetitions. It is spread between the reps, so its samples meet the
  // same host conditions as the reps instead of one burst at the start.
  const double setup_budget = std::max(0.5, seconds / 10);
  std::vector<double> setups;
  double setup_total = 0;
  auto set_up_until = [&](double until) {
    while (setups.size() < kMinSetupReps ||
           (setup_total < until && setups.size() < kMaxSetupReps)) {
      setups.push_back(w->setup_once());
      setup_total += setups.back();
    }
  };

  // Peak memory of one rep: later reps add only heap fragmentation, which
  // grows with a rep count that depends on the host's speed.
  std::vector<Rep> reps;
  double rss = 0;
  double rep_total = 0;
  do {
    set_up_until(setup_budget * rep_total / seconds);
    reps.push_back(w->run(nullptr));
    rep_total += reps.back().host_s;
    if (reps.size() == 1) rss = peak_rss_mib();
  } while (reps.size() < kMinReps || rep_total < seconds);
  set_up_until(setup_budget);
  const Rep& first = reps.front();
  const Rep& warm = reps.back();  // lazy allocator set-up is behind it

  std::vector<std::string> violations = first.violations;
  for (const Rep& r : reps) {
    if (r.fingerprint != first.fingerprint || r.events != first.events) {
      violations.push_back("untraced reps disagree on fingerprint/events");
      break;
    }
  }
  csar::obs::Tracer tracer;
  Rep tr;
  if (extras) {
    tr = w->run(&tracer);
    if (tr.fingerprint != first.fingerprint || tr.events != first.events) {
      violations.push_back("traced fingerprint/events differ from untraced");
    }
    if (!trace) w->extra_e2e(tr);
    violations.insert(violations.end(), tr.violations.begin(),
                      tr.violations.end());
  }

  std::vector<double> host;
  std::vector<std::vector<double>> slices;
  for (const Rep& r : reps) {
    host.push_back(r.host_s);
    slices.push_back(r.slices);
  }
  const double med_host = median(host);
  const double min_host = *std::min_element(host.begin(), host.end());
  const std::vector<double> fastest = fastest_slices(slices);
  if (fastest.empty()) violations.push_back("reps disagree on their slices");
  double fastest_host = 0;
  for (double v : fastest) fastest_host += v;
  const double ops = static_cast<double>(first.attempted);
  const double failed_share = static_cast<double>(first.failed) / ops;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf("SIM fingerprint=0x%016llx events=%llu sim_s=%.9f\n",
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(first.events), first.sim_s);
  std::printf("HOST reps=%zu median_rep_s=%.4f min_rep_s=%.4f "
              "fastest_slices_s=%.4f slices=%zu traced_rep_s=%.4f\n",
              reps.size(), med_host, min_host, fastest_host, fastest.size(),
              tr.host_s);
  std::printf("SLICES");
  for (double v : fastest) std::printf(" %.9g", v);
  std::printf("\n");
  for (const std::string& n : tr.notes) std::printf("NOTE %s\n", n.c_str());
  std::printf("OPS attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));

  // Host-time figures, printed by every process.
  metric("setup_s", median(setups));
  metric("wall_per_sim_s", fastest_host / first.sim_s);
  metric("peak_rss_mib", rss);
  metric("sim.events_per_host_s",
         static_cast<double>(first.events) / fastest_host);
  if (extras && !trace) {
    metric("ok_share", 1.0 - failed_share);
    for (const auto& [k, v] : tr.sim) metric(k, v);
  } else if (extras) {
    metric("sim.events_per_op", static_cast<double>(first.events) / ops);
    metric("sim.slab_allocs_per_op",
           static_cast<double>(warm.slab_allocs) / ops);
    metric("sim.slab_chunk_mib",
           static_cast<double>(csar::sim::slab::stats().chunk_bytes) /
               static_cast<double>(csar::MiB));
    metric("host.news_per_op", static_cast<double>(warm.news) / ops);
    metric("trace.overhead", tr.host_s / med_host);
    metric("failed_share", failed_share);
    for (const auto& [k, v] : tr.layer) metric(k, v);
    for (const auto& [k, v] : run_probes()) metric(k, v);
  }
  for (const std::string& v : violations) std::printf("CHECK FAIL %s\n", v.c_str());
  if (violations.empty()) std::printf("CHECK ok all checks passed\n");
  return violations.empty() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
