// perfbench: runs one named workload of the LayerGCN system and prints its
// metrics.
//
//   perfbench --workload <train|serve|loop> --seed N --seconds S
//             --trace <0|1> --work-dir DIR
//
// --trace 0 runs with the program's observability switched off
// (obs::SetEnabled(false)) and reports every end-to-end metric
// (EndToEndMetrics()); --trace 1 switches it on and reports every
// per-layer row (PerLayerMetrics()), read as deltas of the metrics
// registry around the calls the workload makes, 0 for a layer the
// workload does not run. Every run prints, in order: notes (the per-layer
// table on traced runs), one `{"stamp": ...}` line (build environment,
// nproc, work-root filesystem, scalar and fork-join host probes) and, as
// the last line, the result object {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/statfs.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench/bench_env.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|serve|loop> --seed N --seconds S --trace <0|1> "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.work_dir.empty()) Usage("--work-dir is required");
  a.nproc = std::max(1u, std::thread::hardware_concurrency());
  return a;
}

// Host-drift probe: a fixed dependent scalar loop. Timed before and after
// the workload; a ratio far from 1 marks a run whose box changed speed
// under it (frequency scaling, a noisy neighbour). Reported, never gated.
double DriftProbeMs() {
  const double t0 = perfbench::NowSeconds();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = (perfbench::NowSeconds() - t0) * 1e3;
  // Keep the loop observable so it cannot be folded away.
  if (x == 42) std::fprintf(stderr, "drift probe: %llu\n",
                            static_cast<unsigned long long>(x));
  return ms;
}

// Fork-join probe: fixed rounds of a parallel loop over one short scalar
// block per pool worker. The scalar probe runs on one core and misses a
// box whose cores are shared or slow to wake; this one, like training's
// many small parallel regions, does not. Reported, never gated.
double ForkJoinProbeMs(int threads) {
  layergcn::util::ThreadPool pool(threads);
  layergcn::util::parallel::ScopedComputePool scope(&pool);
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  const double t0 = perfbench::NowSeconds();
  for (uint64_t round = 0; round < 2000; ++round) {
    layergcn::util::parallel::For(
        threads,
        [&](int64_t lo, int64_t hi) {
          for (int64_t b = lo; b < hi; ++b) {
            uint64_t x = round + static_cast<uint64_t>(b) + 1;
            for (int i = 0; i < 20'000; ++i) {
              x ^= x << 13;
              x ^= x >> 7;
              x ^= x << 17;
            }
            sink[static_cast<size_t>(b)] += x;
          }
        },
        1);
  }
  const double ms = (perfbench::NowSeconds() - t0) * 1e3;
  if (sink[0] == 42) std::fprintf(stderr, "fork-join probe: 42\n");
  return ms;
}

std::string FsType(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<uint64_t>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(s.f_type));
      return buf;
    }
  }
}

// bench::WriteBenchEnvJson writes a pretty-printed `"env": {...},` member;
// capture it and fold it onto the stamp line.
std::string BenchEnvMember() {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) return "\"env\": null,";
  layergcn::bench::WriteBenchEnvJson(mem);
  std::fclose(mem);
  std::string s(buf, len);
  std::free(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

// Puts the workload's metrics in the manifest's order and fills in the
// layers it does not run with 0. A metric outside the manifest, one in the
// wrong unit, or a missing end-to-end metric is a fault of the benchmark
// itself and ends the run without a result.
void Reconcile(bool trace, perfbench::Result* r) {
  const std::vector<perfbench::MetricSpec>& spec =
      trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  std::vector<perfbench::Metric> ordered;
  for (const perfbench::MetricSpec& s : spec) {
    const perfbench::Metric* found = nullptr;
    for (const perfbench::Metric& m : r->metrics) {
      if (m.name == s.name) found = &m;
    }
    if (found == nullptr && !trace) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", s.name);
      std::exit(3);
    }
    if (found != nullptr && found->unit != s.unit) {
      std::fprintf(stderr, "perfbench: %s reported in %s, not %s\n", s.name,
                   found->unit.c_str(), s.unit);
      std::exit(3);
    }
    ordered.push_back(found != nullptr
                          ? *found
                          : perfbench::Metric{s.name, 0.0, s.unit});
  }
  for (const perfbench::Metric& m : r->metrics) {
    bool listed = false;
    for (const perfbench::MetricSpec& s : spec) listed |= m.name == s.name;
    if (!listed) {
      std::fprintf(stderr, "perfbench: %s is not in the manifest\n",
                   m.name.c_str());
      std::exit(3);
    }
  }
  r->metrics = std::move(ordered);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  layergcn::obs::SetEnabled(args.trace);
  layergcn::obs::SetTraceEnabled(false);
  // Per-cycle pipeline progress lines would only bury the result.
  layergcn::util::SetLogLevel(layergcn::util::LogLevel::kWarning);

  const double drift_before = DriftProbeMs();
  const double forkjoin_before = ForkJoinProbeMs(args.nproc);
  Result r;
  if (args.workload == "train") {
    r = perfbench::RunTrain(args);
  } else if (args.workload == "serve") {
    r = perfbench::RunServe(args);
  } else if (args.workload == "loop") {
    r = perfbench::RunLoop(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  Reconcile(args.trace, &r);
  const double drift_after = DriftProbeMs();
  const double forkjoin_after = ForkJoinProbeMs(args.nproc);
  // Stamp the compute-pool width the workload ran at.
  std::string env_member;
  {
    layergcn::util::ThreadPool stamp_pool(std::max(1, r.pool_threads));
    layergcn::util::parallel::ScopedComputePool scope(&stamp_pool);
    env_member = BenchEnvMember();
  }
  const std::string fs = FsType(args.work_dir);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("metric %-30s %16.6g %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" (%lld samples)", static_cast<long long>(m.samples));
    }
    std::printf("\n");
  }
  std::printf(
      "{\"stamp\": {%s \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"nproc\": %d, \"work_root_fs\": \"%s\", "
      "\"drift_before_ms\": %.3f, \"drift_after_ms\": %.3f, "
      "\"drift_ratio\": %.4f, \"forkjoin_before_ms\": %.3f, "
      "\"forkjoin_after_ms\": %.3f}}\n",
      env_member.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      args.nproc, fs.c_str(), drift_before, drift_after,
      drift_before > 0.0 ? drift_after / drift_before : 0.0, forkjoin_before,
      forkjoin_after);

  // End-to-end metrics are never 0; per-layer rows may be.
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!args.trace && !(m.value > 0.0)) finite = false;
    if (!std::isfinite(m.value)) {
      finite = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  const bool correct = r.failed == 0 && finite && r.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
