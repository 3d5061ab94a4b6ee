// Order statistics and the process memory probe.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.h"

namespace xmlq::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail SummarizeTail(std::vector<double> values, size_t beyond) {
  Tail tail;
  std::sort(values.begin(), values.end());
  tail.samples = values.size();
  if (values.empty()) return tail;
  tail.median = Median(values);
  const size_t n = values.size();
  // Nearest rank k (1-based) leaves n - k samples above it.
  const size_t k_p99 = static_cast<size_t>(std::ceil(0.99 * n));
  const size_t k_limit = n > beyond ? n - beyond : 1;
  const size_t k = std::max<size_t>(1, std::min(k_p99, k_limit));
  tail.value = values[k - 1];
  tail.percentile = static_cast<double>(k) / static_cast<double>(n);
  tail.beyond = n - k;
  return tail;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace xmlq::perfbench
