// Declarations shared by the benchmark's entry point (main.cpp), its
// workloads (workloads.cpp) and its layer probes (probes.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Global operator new calls so far (counted by the hook in main.cpp).
std::uint64_t news_so_far();

/// What one repetition of a workload reports.
struct Rep {
  double host_s = 0;  ///< host seconds of the measured phase
  /// host_s split into slices of a fixed number of simulation events (the
  /// same slices on every rep of a seed); one slice where the workload's
  /// entry point runs the event loop itself.
  std::vector<double> slices;
  double sim_s = 0;   ///< simulated seconds of the measured phase
  std::uint64_t events = 0;       ///< simulation events of the whole rep
  std::uint64_t fingerprint = 0;  ///< fold of the rep's simulated outcome
  std::uint64_t attempted = 0;    ///< ops attempted (open loop: arrivals)
  std::uint64_t failed = 0;       ///< ops failed, plus arrivals shed
  std::uint64_t news = 0;         ///< operator new calls in the measured phase
  std::uint64_t slab_allocs = 0;  ///< slab allocations in the measured phase
  std::uint64_t user_bytes_written = 0;  ///< acknowledged write bytes
  /// Correctness checks that failed (empty: the rep is correct).
  std::vector<std::string> violations;
  /// Per-layer values observed on the deployment after the rep; -1 marks a
  /// value the workload's entry point does not expose.
  std::map<std::string, double> layer;
  /// Simulated-time end-to-end metrics, derived from the trace (traced
  /// reps only; identical on untraced reps by the fingerprint check).
  std::map<std::string, double> sim;
  /// Human-readable lines describing the rep's figures (sample counts,
  /// phases), printed before the result.
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the deployment and its files once; returns host seconds.
  virtual double setup_once() = 0;
  /// One repetition on a fresh deployment. With a tracer, also derive the
  /// simulated-time metrics and the per-layer values.
  virtual Rep run(csar::obs::Tracer* tracer) = 0;
  /// End-to-end metrics that need runs of their own (the open loop's rate
  /// ladder); written into `traced.sim`.
  virtual void extra_e2e(Rep& traced) { (void)traced; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Standalone per-layer probes: host cost per call of each layer's public
/// functions, outside any workload.
std::map<std::string, double> run_probes();

}  // namespace perfbench
