// The I-GEP benchmark: the workload interface the harness (main.cpp)
// drives, and the helpers both sides share.
//
// Every input value is a stateless function of (seed, stream, index), so
// a workload can regenerate any element without keeping a copy: the
// out-of-core workload holds no in-core image of its matrix during the
// timed solves, and its peak RSS therefore shows the page cache, not the
// benchmark.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "extmem/page_cache.hpp"
#include "matrix/matrix.hpp"
#include "parallel/dag_sim.hpp"

namespace perfbench {

using gep::index_t;

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) for element `idx` of input stream `stream`.
inline double unit(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t idx) {
  const std::uint64_t h = mix64(mix64(seed * 0x9e3779b97f4a7c15ULL + stream) ^
                                (idx + 0x632be59bd9b4e019ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// 64-bit content hash for the bit-identity check (order-sensitive).
class Hasher {
 public:
  void add(const double* p, std::size_t n);
  void add(double v) { add(&v, 1); }
  std::uint64_t value() const { return mix64(h_ ^ n_); }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
  std::uint64_t n_ = 0;
};

// Self-test corruption of one output value: by `rel` of its magnitude
// plus `rel`, or, for rel == 0, to the next representable double up.
inline double perturbed(double v, double rel) {
  return rel > 0 ? v + rel * (std::abs(v) + 1.0)
                 : std::nextafter(v, std::numeric_limits<double>::infinity());
}

// The dominant leaf of a workload, timed alone for simd.leaf_rate.
enum class LeafKind { Fw, LuSchur };

// Fixed description of one workload (see README.md for the choices).
struct Spec {
  const char* name;
  int threads;
  index_t n;
  LeafKind leaf;
  gep::DagProblem dag;
  bool ooc;
};

// Library-wide default base case of the typed recursion (RunOptions and
// the 32 KiB tile of the out-of-core workload both give 64).
inline constexpr index_t kBase = 64;

// Out-of-core geometry: B = 32 KiB pages (one 64x64 tile of doubles),
// M = 1/8 of the matrix.
inline constexpr std::uint64_t kPageBytes = 32 * 1024;

class Workload {
 public:
  explicit Workload(const Spec& s) : spec_(s) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const Spec& spec() const { return spec_; }

  // Benchmark side, untimed: restores the inputs the next solve reads
  // (the first call builds them from the seed).
  virtual void prepare() = 0;
  // Program side, timed as setup_s: everything the program needs before
  // the first timed solve, ending with the warm-up solve.
  virtual void setup() = 0;
  // Drops the program-side state setup() built.
  virtual void teardown() = 0;
  // One call into the library's entry point: the timed unit.
  virtual void solve() = 0;
  // Engine-independent check of the last solve's output; returns an
  // empty string when it passes, else the reason. `round` selects the
  // check's seeded samples (the APSP sources).
  virtual std::string check(std::uint64_t round) = 0;
  // Content hash of the last solve's output.
  virtual std::uint64_t output_hash() = 0;
  // Self-test: changes one element of the last output that check(round)
  // examines, by perturbed(value, rel).
  virtual void perturb(double rel, std::uint64_t round) = 0;

  // Layer hooks: the page cache of the out-of-core workload (nullptr
  // in-core), the time of the last solve's flush, the last check's
  // scaled residual (linsolve only) and the time setup() spent in
  // OocTiledMatrix::load.
  virtual const gep::PageCache* cache() const { return nullptr; }
  virtual double last_flush_s() const { return 0.0; }
  virtual double last_residual() const { return 0.0; }
  virtual double load_s() const { return 0.0; }

 protected:
  Spec spec_;
};

// The workloads, by name; nullptr for an unknown name. `n` > 0
// overrides the size (the self-test runs them small).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, index_t n = 0);
const std::vector<Spec>& specs();

}  // namespace perfbench
