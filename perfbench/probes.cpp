/// \file probes.cpp
/// See probes.hpp. Every probe reports host nanoseconds per call, measured
/// with std::chrono::steady_clock around a whole loop of calls, so the
/// clock's own cost is spread over the loop rather than added per call.

#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "storage/buffer_manager.hpp"
#include "storage/client_cache.hpp"
#include "txn/decompose.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace rtdb;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Stream {
  std::vector<txn::Transaction> txns;  ///< every client's, by arrival
  double gen_ns = 0;
};

/// Generates each client's arrivals over the arrival window in the order
/// System does (draw the gap, then build the transaction).
Stream generate(const core::SystemConfig& cfg) {
  workload::WorkloadSuite suite(cfg.workload, cfg.num_clients, cfg.seed);
  Stream s;
  std::uint64_t next_id = 1;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < suite.num_clients(); ++c) {
    auto& source = suite.client(c);
    sim::SimTime t = sim::SimTime::zero();
    for (;;) {
      t = t + source.next_interarrival();
      if (t >= cfg.measure_end()) break;
      s.txns.push_back(source.make_transaction(TxnId{next_id++}, t));
    }
  }
  s.gen_ns = ns_between(t0, Clock::now());
  std::stable_sort(s.txns.begin(), s.txns.end(),
                   [](const txn::Transaction& a, const txn::Transaction& b) {
                     return a.arrival < b.arrival;
                   });
  return s;
}

/// Replays the stream through one cold ClientCache per client and the
/// server's page buffer: a client miss references the server buffer (and
/// installs the page on a buffer miss), then installs the object in the
/// client cache. Cache disk-tier reads are drained after each transaction.
struct Replay {
  double ns = 0;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
};

Replay replay(const core::SystemConfig& cfg, const Stream& s) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<storage::ClientCache>> caches;
  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    caches.push_back(
        std::make_unique<storage::ClientCache>(sim, cfg.client_cache));
  }
  storage::BufferManager server(cfg.cs_server_buffer_capacity);
  Replay r;
  const auto t0 = Clock::now();
  for (const auto& t : s.txns) {
    auto& cache = *caches[static_cast<std::size_t>(t.origin.value()) - 1];
    for (const auto& op : t.ops) {
      if (!cache.access(op.object, op.is_update, [] {})) {
        const PageId page = page_of(op.object);
        if (!server.reference(page)) server.insert(page);
        cache.insert(op.object, op.is_update);
      }
    }
    r.accesses += t.ops.size();
    sim.run();
  }
  r.ns = ns_between(t0, Clock::now());
  for (const auto& c : caches) r.hits += c->hits();
  return r;
}

/// Decomposes every decomposable transaction against a fixed placement
/// (object o lives at client site 1 + o mod N).
double decompose_ns(const core::SystemConfig& cfg, const Stream& s,
                    std::uint64_t& calls) {
  const auto n = static_cast<std::uint64_t>(cfg.num_clients);
  const auto locate = [n](ObjectId o) {
    return SiteId{static_cast<SiteId::Rep>(1 + o.value() % n)};
  };
  const auto t0 = Clock::now();
  for (const auto& t : s.txns) {
    if (!t.decomposable) continue;
    txn::decompose(t, locate);
    ++calls;
  }
  return ns_between(t0, Clock::now());
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ProbeResults run_probes(const std::vector<core::SystemConfig>& configs,
                        int repeats) {
  std::vector<double> gen, rep, hit, dec;
  for (int i = 0; i < repeats; ++i) {
    double gen_ns = 0, rep_ns = 0, dec_ns = 0;
    std::uint64_t txns = 0, accesses = 0, hits = 0, decomposed = 0;
    for (const auto& cfg : configs) {
      const Stream s = generate(cfg);
      gen_ns += s.gen_ns;
      txns += s.txns.size();
      const Replay r = replay(cfg, s);
      rep_ns += r.ns;
      accesses += r.accesses;
      hits += r.hits;
      dec_ns += decompose_ns(cfg, s, decomposed);
    }
    gen.push_back(txns ? gen_ns / static_cast<double>(txns) : 0);
    rep.push_back(accesses ? rep_ns / static_cast<double>(accesses) : 0);
    hit.push_back(accesses ? 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(accesses)
                           : 0);
    dec.push_back(decomposed ? dec_ns / static_cast<double>(decomposed) : 0);
  }
  return {median(gen), median(rep), median(hit), median(dec)};
}

}  // namespace perfbench
