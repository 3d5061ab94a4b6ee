// The timed run: the serving set-up, the closed-loop wire load and the
// durable writes, measured with tracing off.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "xmlq/net/client.h"

namespace xmlq::perfbench {

namespace {

/// Width of the time buckets a window's completions are grouped into.
constexpr double kBucketSeconds = 1.0;
/// Segments of the timed window.
constexpr uint32_t kSegments = 5;

}  // namespace

void Serving::Stop() {
  if (server != nullptr) (void)server->Shutdown();
  server.reset();
  db.reset();
}

Status StartServing(const Workload& workload, const std::string& store,
                    Serving* serving) {
  serving->Stop();
  serving->db = std::make_unique<api::Database>();
  if (workload.durable) {
    XMLQ_RETURN_IF_ERROR(
        serving->db->Attach(store, storage::SnapshotOpenMode::kMap).status());
  } else {
    XMLQ_RETURN_IF_ERROR(LoadAll(workload, serving->db.get()));
  }
  serving->server =
      std::make_unique<net::Server>(serving->db.get(), net::ServerConfig{});
  return serving->server->Start();
}

Result<Footprint> MeasureFootprint(const Workload& workload,
                                   const api::Database& db) {
  Footprint f;
  for (const Document& doc : workload.docs) {
    XMLQ_ASSIGN_OR_RETURN(const api::StorageReport r, db.Report(doc.name));
    f.sum.dom_bytes += r.dom_bytes;
    f.sum.succinct_structure_bytes += r.succinct_structure_bytes;
    f.sum.succinct_content_bytes += r.succinct_content_bytes;
    f.sum.region_index_bytes += r.region_index_bytes;
    f.sum.value_index_bytes += r.value_index_bytes;
    f.sum.tag_dictionary_bytes += r.tag_dictionary_bytes;
    f.sum.node_count += r.node_count;
  }
  f.resident_bytes = f.sum.dom_bytes + f.sum.succinct_structure_bytes +
                     f.sum.succinct_content_bytes + f.sum.region_index_bytes +
                     f.sum.value_index_bytes + f.sum.tag_dictionary_bytes;
  return f;
}

Result<double> ReplaceDocument(const Workload& workload, api::Database* db,
                               size_t doc, std::vector<uint8_t>* versions) {
  const Document& d = workload.docs[doc];
  const uint8_t next = (*versions)[doc] ^ 1;
  const Clock::time_point start = Clock::now();
  XMLQ_RETURN_IF_ERROR(
      db->LoadDocument(d.name, next == 0 ? d.xml : d.variant_xml));
  XMLQ_RETURN_IF_ERROR(db->Persist(d.name));
  const Clock::time_point end = Clock::now();
  (*versions)[doc] = next;
  return MicrosBetween(start, end) / 1000.0;
}

Writer::Writer(const Workload& workload, api::Database* db,
               std::vector<uint8_t>* versions)
    : workload_(workload),
      db_(db),
      versions_(versions),
      thread_([this] { Loop(); }) {}

void Writer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Writer::Loop() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / workload_.writes_per_second));
  Clock::time_point due = Clock::now();
  for (uint64_t i = 0; !stop_.load(); ++i) {
    std::this_thread::sleep_until(due);
    due += period;
    if (stop_.load()) break;
    const Clock::time_point start = Clock::now();
    ++attempted_;
    const Result<double> ms =
        ReplaceDocument(workload_, db_, i % workload_.docs.size(), versions_);
    if (!ms.ok()) {
      problems_.push_back("write: " + ms.status().ToString());
      continue;
    }
    writes_.push_back({start, Clock::now()});
  }
}

std::vector<double> Writer::WritesIn(Clock::time_point from,
                                     Clock::time_point to) const {
  std::vector<double> out;
  for (const Timed& t : writes_) {
    if (t.start >= from && t.end <= to) {
      out.push_back(MicrosBetween(t.start, t.end) / 1e3);
    }
  }
  return out;
}

WireWindow DriveWire(const Workload& workload, uint16_t port,
                     const WindowSpec& spec) {
  WireWindow out;
  std::mutex mu;  // guards `out` and spec.spans while threads merge
  std::atomic<bool> stop{false};
  const Clock::time_point begin = Clock::now();
  const auto note = [&](std::string why) {
    std::lock_guard<std::mutex> lock(mu);
    ++out.failed;
    if (out.problems.size() < 10) out.problems.push_back(std::move(why));
  };

  std::vector<std::vector<Timed>> latencies(workload.clients);
  std::vector<std::thread> threads;
  // Stops and joins every thread on every exit path, before the state the
  // threads use goes away.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, threads};
  for (uint32_t c = 0; c < workload.clients; ++c) {
    threads.emplace_back([&, c] {
      RequestStream stream(workload, c, spec.epoch);
      std::vector<Timed>& mine = latencies[c];
      std::vector<Span> spans;
      uint64_t attempted = 0;
      auto client = net::Client::Connect("127.0.0.1", port);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.ok()) {
          ++attempted;
          note("connect: " + client.status().ToString());
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          client = net::Client::Connect("127.0.0.1", port);
          continue;
        }
        const Request& request = stream.Next();
        const Clock::time_point start = Clock::now();
        auto response = client->Query(request.text, request.parallelism);
        const Clock::time_point end = Clock::now();
        ++attempted;
        if (!response.ok()) {
          note("transport: " + response.status().ToString());
          client = net::Client::Connect("127.0.0.1", port);
          continue;
        }
        if (response->code != StatusCode::kOk) {
          note("status " + std::to_string(static_cast<int>(response->code)) +
               " on \"" + request.text + "\": " + response->body);
          continue;
        }
        if (!workload.Accepts(request.answer, response->body)) {
          note("wrong answer on \"" + request.text + "\"");
          continue;
        }
        mine.push_back({start, end});
        if (spec.spans != nullptr) {
          Span span;
          span.request = (static_cast<uint64_t>(c) << 48) | attempted;
          span.name = "request";
          span.start = start;
          span.end = end;
          spans.push_back(span);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      out.attempted += attempted;
      if (spec.spans != nullptr) {
        spec.spans->insert(spec.spans->end(), spans.begin(), spans.end());
      }
    });
  }

  std::this_thread::sleep_until(
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.warmup_seconds)));
  const Clock::time_point from = Clock::now();
  std::this_thread::sleep_until(
      from + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.seconds)));
  const Clock::time_point to = Clock::now();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  out.seconds = MicrosBetween(from, to) / 1e6;
  const size_t buckets = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(out.seconds / kBucketSeconds - 0.5)));
  out.buckets.resize(buckets);
  out.bucket_seconds.assign(buckets, kBucketSeconds);
  out.bucket_seconds.back() = out.seconds - (buckets - 1) * kBucketSeconds;
  for (const std::vector<Timed>& mine : latencies) {
    for (const Timed& t : mine) {
      if (t.start < from || t.end > to) continue;
      const double us = MicrosBetween(t.start, t.end);
      out.latency_us.push_back(us);
      const size_t k = static_cast<size_t>(MicrosBetween(from, t.end) / 1e6 /
                                           kBucketSeconds);
      out.buckets[std::min(k, buckets - 1)].push_back(us);
    }
  }
  out.from = from;
  out.to = to;
  return out;
}

RunResult RunTimed(Workload& w, const RunOptions& options) {
  RunResult result;
  const std::string store = options.work_dir + "/store";
  if (w.durable) {
    if (Status s = CreateStore(w, store); !s.ok()) {
      result.Fail("creating the store: " + s.ToString());
      return result;
    }
  }

  // Set-up time: from an empty process state to a server accepting
  // connections with every document loaded; the median of several.
  std::vector<double> setup_s;
  Serving serving;
  for (uint32_t k = 0; k < w.setup_repeats; ++k) {
    serving.Stop();
    const Clock::time_point start = Clock::now();
    const Status s = StartServing(w, store, &serving);
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
    if (!s.ok()) {
      result.Fail("set-up: " + s.ToString());
      return result;
    }
  }
  api::Database* db = serving.db.get();

  // Footprints, before the load so they describe the served state.
  const Result<Footprint> footprint = MeasureFootprint(w, *db);
  if (!footprint.ok()) {
    result.Fail("report: " + footprint.status().ToString());
    return result;
  }
  uint64_t snapshot_bytes = 0;
  std::filesystem::create_directories(options.work_dir + "/snap");
  for (const Document& doc : w.docs) {
    const auto info =
        db->Save(doc.name, options.work_dir + "/snap/" + doc.name + ".xqpack");
    if (!info.ok()) {
      result.Fail("save: " + info.status().ToString());
      return result;
    }
    snapshot_bytes += info->file_size;
  }

  // The window runs in segments, each with fresh client threads and
  // connections; a workload's writer runs throughout. Without a writer, the
  // write metrics come from a probe of the same operation against a store of
  // its own, made in bursts between the segments (an even number each, so
  // every segment reads the original documents). Both samples then span the
  // whole run.
  std::vector<uint8_t> versions(w.docs.size(), 0);
  const bool probe = w.writes_per_second == 0 && w.probe_writes > 0;
  size_t probe_doc = 0;
  if (probe) {
    probe_doc = static_cast<size_t>(
        std::find_if(w.docs.begin(), w.docs.end(),
                     [&](const Document& d) { return d.name == w.probe_doc; }) -
        w.docs.begin());
    const std::string probe_store = options.work_dir + "/probe_store";
    std::filesystem::remove_all(probe_store);
    Status s = db->Attach(probe_store).status();
    if (s.ok()) s = db->Persist(w.probe_doc);  // steady state: one prior gen
    if (!s.ok()) {
      result.Fail("write probe store: " + s.ToString());
      return result;
    }
  }
  std::unique_ptr<Writer> writer;
  if (w.writes_per_second > 0) {
    writer = std::make_unique<Writer>(w, db, &versions);
  }
  std::vector<double> latency_us, write_ms, bucket_qps, bucket_p50,
      bucket_p99, segment_p99;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  bool bucketed_tail = true, segmented_tail = true;
  for (uint32_t segment = 0; segment < kSegments; ++segment) {
    WindowSpec spec;
    spec.warmup_seconds = segment == 0 ? 2.0 : 0.3;
    spec.seconds = options.seconds / kSegments;
    spec.epoch = segment;
    WireWindow window = DriveWire(w, serving.server->port(), spec);
    result.attempted += window.attempted;
    result.failed += window.failed;
    for (std::string& p : window.problems) result.Fail(std::move(p));
    windows.emplace_back(window.from, window.to);
    latency_us.insert(latency_us.end(), window.latency_us.begin(),
                      window.latency_us.end());
    const Tail segment_tail = SummarizeTail(window.latency_us);
    segment_p99.push_back(segment_tail.value);
    segmented_tail = segmented_tail && segment_tail.percentile >= 0.99;
    for (size_t k = 0; k < window.buckets.size(); ++k) {
      const Tail t = SummarizeTail(window.buckets[k]);
      bucket_qps.push_back(static_cast<double>(t.samples) /
                           window.bucket_seconds[k]);
      bucket_p50.push_back(t.median);
      bucket_p99.push_back(t.value);
      bucketed_tail = bucketed_tail && t.percentile >= 0.99;
    }
    for (uint32_t i = 0; probe && i < w.probe_writes / kSegments; ++i) {
      ++result.attempted;
      const Result<double> ms = ReplaceDocument(w, db, probe_doc, &versions);
      if (!ms.ok()) {
        ++result.failed;
        result.Fail("write probe: " + ms.status().ToString());
        break;
      }
      write_ms.push_back(*ms);
    }
  }
  if (writer != nullptr) {
    writer->Stop();
    for (const auto& [from, to] : windows) {
      const std::vector<double> in = writer->WritesIn(from, to);
      write_ms.insert(write_ms.end(), in.begin(), in.end());
    }
    result.attempted += writer->attempted();
    result.failed += writer->failed();
    for (const std::string& p : writer->problems()) result.Fail(p);
  }

  if (latency_us.empty() || write_ms.empty()) {
    result.Fail("no completed queries or writes to measure");
    return result;
  }
  // Throughput and latency are medians over the one-second buckets of all
  // segments, so interference from outside the process that slows fewer
  // than half of the buckets does not move the result. The tails are
  // printed in the notes of the medians but are not metrics of their own:
  // on a shared host they spread too far between runs to hold a bound. The
  // query tail is the median of the per-bucket p99 when every bucket holds
  // enough samples for a p99 with 10 beyond it, else of the per-segment p99
  // when every segment does, else the tail of the whole window.
  char buf[160];
  const Tail query = SummarizeTail(latency_us);
  if (bucketed_tail || segmented_tail) {
    const std::vector<double>& p99s = bucketed_tail ? bucket_p99 : segment_p99;
    std::snprintf(buf, sizeof buf, "tail p99 %.1f us (median of %zu %s p99s)",
                  Median(p99s), p99s.size(),
                  bucketed_tail ? "bucket" : "segment");
  } else {
    std::snprintf(buf, sizeof buf, "tail p%.1f %.1f us (%zu beyond)",
                  query.percentile * 100, query.value, query.beyond);
  }
  const std::string query_tail = buf;
  const Tail write = SummarizeTail(write_ms);
  std::snprintf(buf, sizeof buf, "n=%zu %s, tail p%.1f %.2f ms (%zu beyond)",
                write.samples,
                probe ? "(probe between segments)" : "(during the window)",
                write.percentile * 100, write.value, write.beyond);
  const std::string write_note = buf;
  const std::string buckets = "median of " +
                              std::to_string(bucket_qps.size()) +
                              " buckets, n=" + std::to_string(query.samples);
  result.Set("qps", Median(bucket_qps), "1/s", buckets);
  result.Set("query_p50_us", Median(bucket_p50), "us",
             buckets + ", " + query_tail);
  result.Set("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) +
                 (w.durable ? " (Attach, mmap)" : " (LoadDocument)"));
  result.Set("write_p50_ms", write.median, "ms", write_note);
  result.Set("resident_bytes_per_node",
             static_cast<double>(footprint->resident_bytes) /
                 static_cast<double>(footprint->sum.node_count),
             "B", std::to_string(footprint->sum.node_count) + " nodes");
  result.Set("stored_bytes_per_xml_byte",
             static_cast<double>(snapshot_bytes) /
                 static_cast<double>(w.xml_bytes),
             "ratio", std::to_string(w.xml_bytes) + " XML bytes");
  // Recorded last, so it covers the whole run.
  serving.Stop();
  result.Set("peak_rss_mb", PeakRssMiB(), "MiB", "VmHWM at exit");
  return result;
}

}  // namespace xmlq::perfbench
