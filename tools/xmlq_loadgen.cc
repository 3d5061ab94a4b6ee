// xmlq_loadgen — the wire-level load generator behind experiment R6:
// N client threads fire queries at an xmlq_serve instance, honor
// retry-after hints with jittered exponential backoff, and report QPS plus
// latency percentiles over the *admitted* (responded) requests.
//
//   xmlq_loadgen --port 7227 --clients 8 --duration-s 10
//   xmlq_loadgen --port 7227 --query '//book/title' --clients 4

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/base/status.h"
#include "xmlq/net/client.h"

namespace {

struct WorkerReport {
  std::vector<double> latencies_micros;  // responded requests only
  uint64_t responses = 0;
  uint64_t overloads = 0;     // gave up after retries
  uint64_t retries = 0;       // extra attempts spent on backoff
  uint64_t conn_errors = 0;
  uint64_t reconnects = 0;
  uint64_t backoff_micros = 0;
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--clients N]\n"
               "          [--duration-s N] [--query Q] [--max-attempts N]\n"
               "          [--repeat-mix N]\n"
               "          [--once Q] [--stats] [--promote]\n"
               "  --repeat-mix N  instead of one fixed query, draw each\n"
               "                  request Zipf-style from N value-predicate\n"
               "                  variants (exercises the server plan cache)\n"
               "  --once Q        send Q once, print the raw response body\n"
               "                  to stdout and exit by status (scripts\n"
               "                  byte-compare primary vs follower answers)\n"
               "  --stats         fetch and print the server's stats body\n"
               "                  once, then exit (a follower's body carries\n"
               "                  epoch= and the self-heal counters)\n"
               "  --promote       send the kPromote admin frame (coordinated\n"
               "                  failover: the server stops replicating,\n"
               "                  bumps+persists its epoch and lifts follower\n"
               "                  mode), print the ack body, exit by status\n",
               argv0);
  return 2;
}

/// The --once / --stats / --promote one-shot path: one request, raw body to
/// stdout, exit 0 only on an OK response. Retries overloads (a follower
/// shedding stale reads answers retryably) but not transport errors.
int RunOnce(const std::string& host, uint16_t port, const std::string& query,
            bool stats_mode, bool promote_mode, uint32_t max_attempts) {
  auto client = xmlq::net::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  if (stats_mode || promote_mode) {
    const auto response = promote_mode ? client->Promote() : client->Stats();
    if (!response.ok()) {
      std::fprintf(stderr, "%s: %s\n", promote_mode ? "promote" : "stats",
                   response.status().ToString().c_str());
      return 1;
    }
    std::fwrite(response->body.data(), 1, response->body.size(), stdout);
    if (!response->body.empty() && response->body.back() != '\n') {
      std::fputc('\n', stdout);
    }
    return response->code == xmlq::StatusCode::kOk ? 0 : 1;
  }
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull);
  xmlq::net::RetryPolicy policy;
  policy.max_attempts = max_attempts;
  const xmlq::net::CallResult call =
      client->QueryWithRetry(query, policy, &rng);
  if (call.outcome != xmlq::net::CallOutcome::kResponse ||
      call.response.code != xmlq::StatusCode::kOk) {
    std::fprintf(stderr, "query failed (%s): %s\n",
                 std::string(xmlq::net::CallOutcomeName(call.outcome)).c_str(),
                 call.outcome == xmlq::net::CallOutcome::kConnectionError
                     ? call.transport_error.ToString().c_str()
                     : call.response.body.c_str());
    return 1;
  }
  std::fwrite(call.response.body.data(), 1, call.response.body.size(),
              stdout);
  return 0;
}

/// The --repeat-mix workload: N variants of the same query shape differing
/// only in a comparison literal, so a plan cache keyed on the normalized
/// (bind-slot) text serves all of them from one template. Selection is
/// Zipf-like (weight 1/rank): a few hot variants dominate, a long tail
/// stays cold — the repeat-heavy mix real ad-hoc traffic shows.
std::vector<std::string> RepeatMix(uint32_t variants) {
  std::vector<std::string> queries;
  queries.reserve(variants);
  for (uint32_t v = 0; v < variants; ++v) {
    queries.push_back("//book[@year = \"" + std::to_string(1985 + v % 20) +
                      "\"]/title");
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7227;
  uint32_t clients = 4;
  uint32_t duration_s = 10;
  uint32_t max_attempts = 6;
  uint32_t repeat_mix = 0;
  std::string query = "//book/title";
  std::string once;
  bool stats_mode = false;
  bool promote_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) host = v;
    else if (arg == "--port" && (v = next()))
      port = static_cast<uint16_t>(std::atoi(v));
    else if (arg == "--clients" && (v = next()))
      clients = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--duration-s" && (v = next()))
      duration_s = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--max-attempts" && (v = next()))
      max_attempts = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--repeat-mix" && (v = next()))
      repeat_mix = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--query" && (v = next())) query = v;
    else if (arg == "--once" && (v = next())) once = v;
    else if (arg == "--stats") stats_mode = true;
    else if (arg == "--promote") promote_mode = true;
    else
      return Usage(argv[0]);
  }

  if (!once.empty() || stats_mode || promote_mode) {
    return RunOnce(host, port, once, stats_mode, promote_mode, max_attempts);
  }

  const std::vector<std::string> mix =
      repeat_mix > 0 ? RepeatMix(repeat_mix) : std::vector<std::string>{query};
  std::vector<double> mix_weights(mix.size());
  for (size_t q = 0; q < mix.size(); ++q) {
    mix_weights[q] = 1.0 / static_cast<double>(q + 1);  // Zipf s=1
  }

  std::atomic<bool> stop{false};
  std::vector<WorkerReport> reports(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();

  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WorkerReport& report = reports[c];
      std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^ c);
      xmlq::net::RetryPolicy policy;
      policy.max_attempts = max_attempts;
      std::discrete_distribution<size_t> pick(mix_weights.begin(),
                                              mix_weights.end());
      auto client = xmlq::net::Client::Connect(host, port);
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.ok()) {
          ++report.conn_errors;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          client = xmlq::net::Client::Connect(host, port);
          if (client.ok()) ++report.reconnects;
          continue;
        }
        const auto begin = std::chrono::steady_clock::now();
        const xmlq::net::CallResult call =
            client->QueryWithRetry(mix[pick(rng)], policy, &rng);
        const double micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - begin)
                .count();
        report.retries += call.attempts - 1;
        report.backoff_micros += call.backoff_micros;
        switch (call.outcome) {
          case xmlq::net::CallOutcome::kResponse:
            ++report.responses;
            report.latencies_micros.push_back(micros);
            break;
          case xmlq::net::CallOutcome::kOverload:
            ++report.overloads;
            break;
          case xmlq::net::CallOutcome::kConnectionError:
            ++report.conn_errors;
            // Reconnect on the next iteration.
            client = xmlq::net::Client::Connect(host, port);
            if (client.ok()) ++report.reconnects;
            break;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();

  WorkerReport total;
  for (const WorkerReport& r : reports) {
    total.responses += r.responses;
    total.overloads += r.overloads;
    total.retries += r.retries;
    total.conn_errors += r.conn_errors;
    total.reconnects += r.reconnects;
    total.backoff_micros += r.backoff_micros;
    total.latencies_micros.insert(total.latencies_micros.end(),
                                  r.latencies_micros.begin(),
                                  r.latencies_micros.end());
  }
  std::sort(total.latencies_micros.begin(), total.latencies_micros.end());

  if (repeat_mix > 0) {
    std::printf("clients=%u duration=%.1fs repeat-mix=%u variants\n", clients,
                elapsed_s, repeat_mix);
  } else {
    std::printf("clients=%u duration=%.1fs query=%s\n", clients, elapsed_s,
                query.c_str());
  }
  std::printf("responses=%llu overloads=%llu retries=%llu "
              "conn_errors=%llu reconnects=%llu\n",
              static_cast<unsigned long long>(total.responses),
              static_cast<unsigned long long>(total.overloads),
              static_cast<unsigned long long>(total.retries),
              static_cast<unsigned long long>(total.conn_errors),
              static_cast<unsigned long long>(total.reconnects));
  std::printf("qps=%.1f backoff_total=%.1fms\n",
              static_cast<double>(total.responses) / elapsed_s,
              static_cast<double>(total.backoff_micros) / 1000.0);
  std::printf("latency_micros p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
              Percentile(total.latencies_micros, 0.50),
              Percentile(total.latencies_micros, 0.95),
              Percentile(total.latencies_micros, 0.99),
              total.latencies_micros.empty()
                  ? 0.0
                  : total.latencies_micros.back());
  // Smoke-test contract: some traffic got through and nothing hard-failed.
  return total.responses > 0 ? 0 : 1;
}
