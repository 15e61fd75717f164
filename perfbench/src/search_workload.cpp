// search_ingest: one thread sends IvfIndex::search_vector calls, half of them
// with slot predicates, interleaved at a fixed ratio with IvfIndex::insert
// calls, over a 200k-document corpus built in set-up.
//
// Queries are seeded perturbations of description embeddings, so they fall
// between the corpus's duplicate-heavy points and the IVF answer at the
// workload's nprobe is measurably approximate. Recall is measured against
// exact answers computed untimed in set-up: FlatIndex over the corpus,
// merged with a brute-force scan of the documents inserted before the query.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "index/flat.hpp"
#include "index/ivf.hpp"
#include "obs/metrics.hpp"
#include "sdl/embedding.hpp"
#include "sim/world.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

namespace ix = tsdx::index;  // POSIX ::index() shadows the bare name
namespace sdl = tsdx::sdl;
namespace obs = tsdx::obs;

namespace {

/// 200k documents hold ~34 MiB of vectors, ids and labels, inside the
/// 105 MiB last-level cache of the reference host. At 800k (137 MiB) every
/// search read its lists from DRAM, and on the shared host the neighbours'
/// memory traffic spread the run-to-run rate and latency by ~20%.
constexpr std::size_t kCorpusDocs = 200'000;
constexpr std::size_t kNlist = 256;
constexpr std::size_t kNprobe = 4;
constexpr std::size_t kTrainSize = 32'768;
constexpr std::size_t kTopK = 10;
/// Distinct queries; the stream cycles through them.
constexpr std::size_t kQueryPool = 16'384;
/// Every kOpsPerInsert-th operation is an insert (4 searches, 1 insert).
constexpr std::size_t kOpsPerInsert = 5;
/// Fresh documents available for inserts (far more than a run uses).
constexpr std::size_t kInsertDocs = 400'000;
/// Recall is evaluated on every kRecallStride-th query of the first cycle.
constexpr std::size_t kRecallStride = 32;
/// Per-coordinate Gaussian noise added to a unit embedding before
/// renormalising it into a query.
constexpr double kQueryNoise = 0.25;
/// Latency limit behind slo_attainment (per search or insert).
constexpr double kLimitMs = 5.0;
constexpr int kSetupReps = 3;
constexpr std::size_t kWarmupQueries = 2'000;
constexpr std::size_t kChunk = 65'536;
/// Rates and percentiles are medians over blocks of this many searches
/// (about 1.5 s each; a p99 needs at least 1000), and the operation rate
/// over blocks of this many searches plus their share of inserts.
constexpr std::size_t kBlockQueries = 2'000;
constexpr std::size_t kBlockOps = kBlockQueries * kOpsPerInsert /
                                  (kOpsPerInsert - 1);
constexpr double kTraceBlockSeconds = 1.0;

using Doc = std::pair<ix::DocId, sdl::ScenarioDescription>;

struct Query {
  std::vector<float> vec;
  std::vector<ix::SlotPredicate> predicates;
};

/// Seeded perturbation of the embedding of a fresh description; every
/// second query also carries one equality predicate on a slot of that
/// description, so matches exist.
Query make_query(tsdx::tensor::Rng& rng, bool with_predicate) {
  const sdl::ScenarioDescription d = tsdx::sim::sample_description(rng);
  Query q;
  q.vec = sdl::scenario_to_vector(d);
  double norm = 0.0;
  for (float& x : q.vec) {
    x += static_cast<float>(kQueryNoise * rng.normal());
    norm += static_cast<double>(x) * x;
  }
  const float inv = static_cast<float>(1.0 / std::sqrt(norm));
  for (float& x : q.vec) x *= inv;
  if (with_predicate) {
    static const sdl::Slot kSlots[] = {
        sdl::Slot::kRoadLayout, sdl::Slot::kTimeOfDay, sdl::Slot::kWeather,
        sdl::Slot::kEgoAction};
    const sdl::Slot slot = kSlots[rng.uniform_index(4)];
    const auto labels = sdl::to_slot_labels(d);
    q.predicates.push_back(ix::SlotPredicate::equals(
        slot, labels[static_cast<std::size_t>(slot)]));
  }
  return q;
}

std::string index_config_json(const ix::IvfConfig& c) {
  std::ostringstream o;
  o << "{\"corpus_docs\": " << kCorpusDocs << ", \"nlist\": " << c.nlist
    << ", \"nprobe\": " << c.nprobe << ", \"train_size\": " << c.train_size
    << ", \"kmeans_iters\": " << c.kmeans_iters << ", \"seed\": " << c.seed
    << ", \"weights\": \"default\", \"metrics\": \"private registry\""
    << ", \"k\": " << kTopK << ", \"query_pool\": " << kQueryPool
    << ", \"ops_per_insert\": " << kOpsPerInsert
    << ", \"predicate_share\": 0.5, \"query_noise\": " << kQueryNoise
    << ", \"recall_stride\": " << kRecallStride
    << ", \"latency_limit_ms\": " << kLimitMs
    << ", \"setup_reps\": " << kSetupReps
    << ", \"warmup_queries\": " << kWarmupQueries
    << ", \"insert_batch_chunk\": " << kChunk
    << ", \"par_threads\": " << tsdx::par::threads() << "}";
  return o.str();
}

/// Everything the stream needs, generated before timing.
struct Inputs {
  std::vector<std::vector<Doc>> corpus_chunks;  ///< ids 0 .. kCorpusDocs-1
  std::vector<sdl::ScenarioDescription> inserts;  ///< ids kCorpusDocs + i
  std::vector<Query> queries;
  std::vector<Query> warmup;

  const sdl::ScenarioDescription& doc(ix::DocId id) const {
    if (id < kCorpusDocs) {
      return corpus_chunks[id / kChunk][id % kChunk].second;
    }
    return inserts[id - kCorpusDocs];
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  tsdx::tensor::Rng rng(stream_seed(seed, 3));
  for (std::size_t id = 0; id < kCorpusDocs; ++id) {
    if (id % kChunk == 0) in.corpus_chunks.emplace_back();
    in.corpus_chunks.back().emplace_back(id,
                                         tsdx::sim::sample_description(rng));
  }
  in.inserts.reserve(kInsertDocs);
  for (std::size_t i = 0; i < kInsertDocs; ++i) {
    in.inserts.push_back(tsdx::sim::sample_description(rng));
  }
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    in.queries.push_back(make_query(rng, i % 2 == 1));
  }
  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    in.warmup.push_back(make_query(rng, i % 2 == 1));
  }
  return in;
}

/// Exact top-k for query `j` of the first cycle: the corpus via FlatIndex,
/// merged with a scan of the documents inserted before that query.
std::vector<ix::Hit> exact_answer(const ix::FlatIndex& flat,
                                  const Inputs& in, std::size_t j,
                                  const std::vector<std::vector<float>>& vecs) {
  const Query& q = in.queries[j];
  std::vector<ix::Candidate> cand;
  for (const ix::Hit& h : flat.search_vector(q.vec, kTopK, q.predicates)) {
    cand.push_back({h.score, h.id});
  }
  const std::size_t inserted = j / (kOpsPerInsert - 1);
  for (std::size_t i = 0; i < inserted; ++i) {
    if (!ix::matches_all(q.predicates, ix::pack_labels(in.inserts[i]))) {
      continue;
    }
    cand.push_back({ix::exact_cosine(q.vec.data(), vecs[i].data(),
                                     q.vec.size()),
                    kCorpusDocs + i});
  }
  return ix::finalize_topk(std::move(cand), kTopK);
}

/// One executed search, kept for the post-run check.
struct Answer {
  std::size_t query = 0;     ///< index into Inputs::queries
  std::size_t position = 0;  ///< position in the stream (0-based query count)
  std::size_t visible = 0;   ///< documents in the index when it ran
  double ms = 0.0;
  double done_s = 0.0;  ///< when it returned, seconds into the phase
  std::vector<ix::Hit> hits;
};

/// Checks one answer: at most k hits, strictly ordered by (score desc, id
/// asc), distinct existing ids, every predicate satisfied, and every score
/// bit-equal to the exact cosine against the stored document.
bool answer_ok(const Answer& a, const Inputs& in) {
  const Query& q = in.queries[a.query];
  if (a.hits.size() > kTopK) return false;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    const ix::Hit& h = a.hits[i];
    if (h.id >= a.visible) return false;
    if (i > 0 && !ix::better({a.hits[i - 1].score, a.hits[i - 1].id},
                             {h.score, h.id})) {
      return false;
    }
    const sdl::ScenarioDescription& d = in.doc(h.id);
    if (!ix::matches_all(q.predicates, ix::pack_labels(d))) return false;
    const std::vector<float> v = sdl::scenario_to_vector(d);
    const float score = ix::exact_cosine(q.vec.data(), v.data(), v.size());
    if (std::memcmp(&score, &h.score, sizeof(float)) != 0) return false;
  }
  return true;
}

}  // namespace

Report run_search_ingest(const Options& opt, Tracer& tracer) {
  Report report;
  const auto gen0 = Clock::now();
  const Inputs in = make_inputs(opt.seed);
  report.note("inputs_s", fmt(seconds_between(gen0, Clock::now())));

  // ---- set-up: index build plus train, repeated; the last one is used ----
  ix::IvfConfig cfg;
  cfg.nlist = kNlist;
  cfg.nprobe = kNprobe;
  cfg.train_size = kTrainSize;
  std::vector<double> setup_s;
  std::unique_ptr<ix::IvfIndex> ivf;
  std::shared_ptr<obs::Registry> registry;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ivf.reset();
    registry = std::make_shared<obs::Registry>();
    cfg.metrics = registry;
    const auto t0 = Clock::now();
    ivf = std::make_unique<ix::IvfIndex>(cfg);
    for (const std::vector<Doc>& chunk : in.corpus_chunks) {
      ivf->insert_batch(chunk);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.config_json = index_config_json(cfg);

  // ---- exact answers for the recall set (untimed) ----
  const auto exact0 = Clock::now();
  std::vector<std::vector<ix::Hit>> exact(kQueryPool);
  {
    ix::FlatConfig fcfg;
    fcfg.metrics = std::make_shared<obs::Registry>();
    ix::FlatIndex flat(fcfg);
    for (const std::vector<Doc>& chunk : in.corpus_chunks) {
      for (const Doc& d : chunk) flat.insert(d.first, d.second);
    }
    const std::size_t max_inserted = kQueryPool / (kOpsPerInsert - 1);
    std::vector<std::vector<float>> vecs;
    for (std::size_t i = 0; i < max_inserted; ++i) {
      vecs.push_back(sdl::scenario_to_vector(in.inserts[i]));
    }
    for (std::size_t j = 0; j < kQueryPool; j += kRecallStride) {
      exact[j] = exact_answer(flat, in, j, vecs);
    }
  }

  report.note("exact_answers_s", fmt(seconds_between(exact0, Clock::now())));

  // ---- warm-up: searches only, so the stream's index state is untouched ----
  Accounting warm;
  warm.phase = "warmup";
  for (const Query& q : in.warmup) {
    ++warm.sent;
    try {
      const auto hits = ivf->search_vector(q.vec, kTopK, q.predicates);
      ++(hits.size() <= kTopK ? warm.succeeded : warm.wrong);
    } catch (const std::exception&) {
      ++warm.failed;
    }
  }
  report.phases.push_back(warm);

  // ---- measured stream ----
  Accounting acct;
  acct.phase = "measured";
  const obs::Histogram& scanned = registry->histogram("index.scanned_rows");
  const obs::Histogram& probed = registry->histogram("index.probe_lists");
  const double scanned_sum0 = scanned.sum(), probed_sum0 = probed.sum();
  const std::uint64_t scanned_n0 = scanned.count(), probed_n0 = probed.count();

  std::vector<Answer> answers;
  answers.reserve(1 << 18);
  std::vector<double> query_ms, query_traced_ms, query_plain_ms, insert_ms;
  std::vector<double> embed_us, insert_traced_us, search_traced_us;
  std::vector<double> op_done_s, query_done_s;  ///< successful operations
  std::uint64_t within_limit = 0;
  std::size_t queries_done = 0, inserts_done = 0;
  std::string inject = opt.inject;
  const double measured_s = opt.trace ? 2.0 * opt.seconds : opt.seconds;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(measured_s));
  auto last = start;
  std::uint64_t trace_id = 0;
  for (std::size_t pos = 0; last < end; ++pos, last = Clock::now()) {
    const bool traced =
        opt.trace &&
        static_cast<std::int64_t>(seconds_between(start, last) /
                                  kTraceBlockSeconds) % 2 == 1;
    const bool insert = pos % kOpsPerInsert == kOpsPerInsert - 1;
    if (insert && inserts_done == in.inserts.size()) break;
    tracer.set_enabled(traced);
    ++trace_id;
    ++acct.sent;
    if (insert) {
      const sdl::ScenarioDescription& d = in.inserts[inserts_done];
      const ix::DocId id = kCorpusDocs + inserts_done;
      Scope root(tracer, "client.insert", trace_id);
      if (traced) {
        const std::int64_t e0 = now_ns();
        const std::uint32_t s = tracer.begin("sdl.embed", trace_id, root.id());
        sdl::scenario_to_vector(d);  // the embedding insert() computes
        tracer.end(s);
        embed_us.push_back(static_cast<double>(now_ns() - e0) * 1e-3);
      }
      const std::uint32_t s = tracer.begin("index.insert", trace_id, root.id());
      const std::int64_t t0 = now_ns();
      try {
        ivf->insert(id, d);
      } catch (const std::exception&) {
        tracer.end(s);
        ++acct.failed;
        continue;
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      tracer.end(s);
      ++inserts_done;
      ++acct.succeeded;
      op_done_s.push_back(seconds_between(start, Clock::now()));
      insert_ms.push_back(ms);
      if (traced) insert_traced_us.push_back(ms * 1e3);
      if (ms <= kLimitMs) ++within_limit;
      continue;
    }
    const std::size_t qi = queries_done % kQueryPool;
    const Query& q = in.queries[qi];
    if (inject == "drop") {  // lose the query without an answer
      inject.clear();
      ++queries_done;
      continue;
    }
    Answer a;
    a.query = qi;
    a.position = queries_done;
    a.visible = kCorpusDocs + inserts_done;
    Scope root(tracer, "client.search", trace_id);
    const std::uint32_t s = tracer.begin("index.search", trace_id, root.id());
    const std::int64_t t0 = now_ns();
    try {
      a.hits = ivf->search_vector(q.vec, kTopK, q.predicates);
    } catch (const std::exception&) {
      tracer.end(s);
      ++acct.failed;
      ++queries_done;
      continue;
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    tracer.end(s);
    ++queries_done;
    a.ms = ms;
    a.done_s = seconds_between(start, Clock::now());
    (traced ? query_traced_ms : query_plain_ms).push_back(ms);
    if (traced) search_traced_us.push_back(ms * 1e3);
    if (!inject.empty() && !a.hits.empty()) {
      if (inject == "flip_bit") {
        flip_low_bit(a.hits[0].score);
      } else if (inject == "wrong_label") {
        a.hits.back().id = a.visible;  // a document that does not exist
      }
      inject.clear();
    }
    answers.push_back(std::move(a));
  }
  const double elapsed = seconds_between(start, last);
  tracer.set_enabled(false);
  if (ivf->size() != kCorpusDocs + inserts_done) ++acct.wrong;

  // ---- post-run check of every answer, and recall on the recall set ----
  const auto check0 = Clock::now();
  std::uint64_t found = 0, expected = 0;
  for (const Answer& a : answers) {
    if (!answer_ok(a, in)) {
      ++acct.wrong;
      continue;
    }
    ++acct.succeeded;
    query_ms.push_back(a.ms);
    query_done_s.push_back(a.done_s);
    op_done_s.push_back(a.done_s);
    if (a.ms <= kLimitMs) ++within_limit;
    if (a.position < kQueryPool && a.position % kRecallStride == 0) {
      for (const ix::Hit& want : exact[a.position]) {
        ++expected;
        for (const ix::Hit& got : a.hits) {
          if (got.id == want.id) {
            ++found;
            break;
          }
        }
      }
    }
  }
  report.phases.push_back(acct);
  report.note("check_s", fmt(seconds_between(check0, Clock::now())));

  const double recall =
      expected ? static_cast<double>(found) / static_cast<double>(expected)
               : 0.0;
  // Rates and percentiles are medians over blocks (common.hpp). Answers
  // are checked after the run, so order the successful operations by time.
  std::sort(op_done_s.begin(), op_done_s.end());
  const Blocked ops = blocked(op_done_s, op_done_s, kBlockOps);
  const Blocked queries = blocked(query_done_s, query_ms, kBlockQueries);
  const double queries_per_s =
      elapsed > 0 ? static_cast<double>(query_ms.size()) / elapsed : 0.0;
  double insert_s = 0.0;
  for (const double ms : insert_ms) insert_s += ms * 1e-3;
  const double ingest_per_s =
      insert_s > 0 ? static_cast<double>(insert_ms.size()) / insert_s : 0.0;
  const std::size_t n = query_ms.size();
  report.note("queries_per_s", fmt(queries_per_s));
  report.note("query_p50_ms", fmt(percentile(query_ms, 50)));
  report.note("query_p99_ms", fmt(percentile(query_ms, 99)));
  report.note("query_samples", std::to_string(n));
  report.note("recall_at_10", fmt(recall));
  report.note("recall_queries", std::to_string(expected / kTopK));
  report.note("ingest_docs_per_s", fmt(ingest_per_s));
  report.note("inserts", std::to_string(insert_ms.size()));
  report.note("blocks", std::to_string(queries.blocks) + " x " +
                            std::to_string(kBlockQueries) + " searches");
  report.note("error_rate",
              fmt(acct.sent ? static_cast<double>(acct.bad()) /
                                  static_cast<double>(acct.sent)
                            : 1.0));
  report.note("setup_s.reps", std::to_string(setup_s.size()));
  report.note("peak_rss_mb", fmt(peak_rss_mb()));

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("throughput_per_s", ops.rate_per_s, "1/s");
    report.set("latency_p50_ms", queries.p50, "ms", n);
    report.set("latency_p99_ms", queries.p99, "ms", n);
    if (queries.blocks == 0) {
      report.valid = false;
      report.invalid_reason = "fewer than 1000 latency samples for a p99";
    }
    report.set("slo_attainment",
               acct.sent ? static_cast<double>(within_limit) /
                               static_cast<double>(acct.sent)
                         : 0.0,
               "ratio");
    report.set("reference_agreement", recall, "ratio", expected / kTopK);
    return report;
  }

  const auto per_query = [](double sum1, double sum0, std::uint64_t n1,
                            std::uint64_t n0) {
    return n1 > n0 ? (sum1 - sum0) / static_cast<double>(n1 - n0) : 0.0;
  };
  report.set("sdl.embed_us", median(embed_us), "us", embed_us.size());
  report.set("index.insert_us", median(insert_traced_us), "us",
             insert_traced_us.size());
  report.set("index.ingest_docs_per_s", ingest_per_s, "1/s",
             insert_ms.size());
  report.set("index.ivf.search_us.p50", percentile(search_traced_us, 50),
             "us", search_traced_us.size());
  report.set("index.ivf.search_us.p99", percentile(search_traced_us, 99),
             "us", search_traced_us.size());
  report.set("index.scanned_rows_per_query",
             per_query(scanned.sum(), scanned_sum0, scanned.count(),
                       scanned_n0),
             "count", scanned.count() - scanned_n0);
  report.set("index.probed_lists_per_query",
             per_query(probed.sum(), probed_sum0, probed.count(), probed_n0),
             "count", probed.count() - probed_n0);
  const double plain_p50 = percentile(query_plain_ms, 50);
  report.set("trace.overhead",
             plain_p50 > 0 ? percentile(query_traced_ms, 50) / plain_p50
                           : 0.0,
             "ratio", query_traced_ms.size());
  return report;
}

}  // namespace perfbench
