// xmlq_perfbench: one run of one workload of the xmlq benchmark.
//
//   xmlq_perfbench --workload point_mix|analytic|store_rw --seed N
//                  --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//
// Prints one line per metric ("metric <name> <value> <unit> [note]"), a
// "host" line describing the build and machine, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
// reports the end-to-end metrics of the timed run, `--trace 1` the
// per-layer metrics of the traced run. DIR is emptied at start; at exit it
// keeps only the span log of a traced run (trace.json).

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace xmlq::perfbench {
namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Nproc() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string HostLine(uint64_t seed, const std::string& commit) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "host {\"seed\": " + std::to_string(seed) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"nproc\": " + std::to_string(Nproc()) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(XMLQ_PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"commit\": " + JsonString(commit) + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "xmlq_perfbench: %s\nusage: xmlq_perfbench --workload "
               "point_mix|analytic|store_rw --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit ID]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, work_dir, commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (work_dir.empty()) return Usage("--work-dir is required");
  if (!(seconds > 0)) return Usage("--seconds must be positive");
  Result<Workload> workload = MakeWorkload(workload_name, seed);
  if (!workload.ok()) return Usage(workload.status().ToString().c_str());

  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Usage(("cannot create " + work_dir).c_str());

  RunResult result;
  if (Status s = ComputeAnswers(&*workload); !s.ok()) {
    result.Fail("reference answers: " + s.ToString());
  } else {
    RunOptions options;
    options.seconds = seconds;
    options.work_dir = work_dir;
    result = trace != 0 ? RunTraced(*workload, options)
                        : RunTimed(*workload, options);
  }
  for (const auto& entry : std::filesystem::directory_iterator(work_dir, ec)) {
    if (entry.path().filename() != "trace.json") {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  std::string metrics;
  for (auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail(name + " is not finite");
      m.value = 0;
    }
    std::printf("metric %-32s %14.4f %-8s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const double error_rate =
      result.attempted == 0 ? 0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n", error_rate,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& p : result.problems) {
    std::printf("problem %s\n", p.c_str());
  }
  std::printf("%s\n", HostLine(seed, commit).c_str());
  const bool correct = result.correct && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, result.attempted)),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace xmlq::perfbench

int main(int argc, char** argv) { return xmlq::perfbench::Main(argc, argv); }
