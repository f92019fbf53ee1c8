// Tests for ts_parse's online template miner: stable ids, wildcard promotion,
// the determinism contract (pure function of the payload sequence, exact
// state export/import), bounded memory under adversarial high-cardinality
// streams, and worker-count-invariant digests when mining runs inside the
// live pipeline.
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/common/rng.h"
#include "src/core/live_pipeline.h"
#include "src/log/wire_format.h"
#include "src/parse/template_miner.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

TEST(TemplateMiner, StableIdsForRepeatedShape) {
  TemplateMiner miner;
  std::vector<std::string_view> vars;
  const uint32_t a1 = miner.Mine("connection from 10.0.0.1 accepted", &vars);
  EXPECT_GT(a1, 0u);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "10.0.0.1");
  const uint32_t a2 = miner.Mine("connection from 10.0.9.7 accepted", &vars);
  EXPECT_EQ(a1, a2);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "10.0.9.7");
  // Different token count: a different template.
  const uint32_t b = miner.Mine("connection from 10.0.0.1 accepted twice", &vars);
  EXPECT_NE(a1, b);
  EXPECT_EQ(miner.payloads_mined(), 3u);
}

TEST(TemplateMiner, WildcardPromotionOnVariantTokens) {
  TemplateMiner miner;
  std::vector<std::string_view> vars;
  const uint32_t a = miner.Mine("request served from cache alpha", &vars);
  EXPECT_TRUE(vars.empty());
  // Same shape, one token differs: joins the group, that position becomes a
  // wildcard and the differing token surfaces as the variable.
  const uint32_t b = miner.Mine("request served from cache beta", &vars);
  EXPECT_EQ(a, b);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "beta");
  // The promoted position now extracts from earlier-style payloads too.
  const uint32_t c = miner.Mine("request served from cache alpha", &vars);
  EXPECT_EQ(a, c);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "alpha");

  auto snapshot = miner.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].id, a);
  EXPECT_EQ(snapshot[0].hits, 3u);
  EXPECT_EQ(snapshot[0].text, "request served from cache <*>");
}

TEST(TemplateMiner, DigitTokensPreWildcarded) {
  TemplateMiner miner;
  std::vector<std::string_view> vars;
  miner.Mine("served 17 requests in 250ms", &vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], "17");
  EXPECT_EQ(vars[1], "250ms");
  auto snapshot = miner.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].text, "served <*> requests in <*>");
}

TEST(TemplateMiner, CatchAllForEmptyAndOverlongPayloads) {
  TemplateMinerOptions options;
  options.max_tokens = 4;
  TemplateMiner miner(options);
  std::vector<std::string_view> vars;
  EXPECT_EQ(miner.Mine("", &vars), 0u);
  EXPECT_TRUE(vars.empty());
  EXPECT_EQ(miner.Mine("one two three four five", &vars), 0u);
  // The whole payload survives as one variable — byte-exact, so a rewrite
  // of a catch-all line ("#0 <payload>") never loses information.
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "one two three four five");
  EXPECT_EQ(miner.catch_all_hits(), 2u);
  auto snapshot = miner.Snapshot();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot[0].id, 0u);
  EXPECT_EQ(snapshot[0].hits, 2u);
}

TEST(TemplateMiner, MineAndRewriteRoundTripsIdAndVars) {
  TemplateMiner miner;
  std::string out;
  const uint32_t id =
      miner.MineAndRewrite("txn 00ff12ab committed in 12ms", &out);
  EXPECT_EQ(out, "#" + std::to_string(id) + " 00ff12ab 12ms");
  // Rewritten form is much shorter than the raw line for long templates.
  std::string long_line =
      "scheduler rebalance pass completed for partition group with";
  long_line += " leader replica set unchanged after 42 seconds";
  out.clear();
  miner.MineAndRewrite(long_line, &out);
  EXPECT_LT(out.size(), long_line.size());
}

TEST(TemplateMiner, DeterministicStateAcrossInterleavedInstances) {
  // The miner's full state is a pure function of the payload sequence.
  Rng rng(99);
  std::vector<std::string> payloads;
  for (int i = 0; i < 5000; ++i) {
    std::string p = "svc";
    p += std::to_string(rng.NextBelow(20));
    p += " handled request ";
    p += std::to_string(rng.NextBelow(1 << 30));
    if (rng.NextBool(0.3)) {
      p += " with retries";
    }
    payloads.push_back(std::move(p));
  }
  TemplateMiner m1, m2;
  for (const auto& p : payloads) {
    m1.Mine(p);
  }
  for (const auto& p : payloads) {
    m2.Mine(p);
  }
  EXPECT_TRUE(m1.Export() == m2.Export());
}

TEST(TemplateMiner, ExportImportResumesExactly) {
  // Import(Export at N) then feeding [N..) must equal the uninterrupted run:
  // the checkpoint 'T' frame relies on this.
  Rng rng(1234);
  std::vector<std::string> payloads;
  for (int i = 0; i < 4000; ++i) {
    std::string p = "node ";
    p += std::to_string(rng.NextBelow(64));
    p += rng.NextBool(0.5) ? " joined ring at position " : " left ring from ";
    p += std::to_string(rng.NextBelow(1000));
    payloads.push_back(std::move(p));
  }
  TemplateMiner full;
  TemplateMiner prefix;
  const size_t cut = payloads.size() / 2;
  for (size_t i = 0; i < cut; ++i) {
    full.Mine(payloads[i]);
    prefix.Mine(payloads[i]);
  }
  TemplateMiner resumed;
  ASSERT_TRUE(resumed.Import(prefix.Export()));
  std::vector<std::string_view> v1, v2;
  for (size_t i = cut; i < payloads.size(); ++i) {
    const uint32_t id_full = full.Mine(payloads[i], &v1);
    const uint32_t id_resumed = resumed.Mine(payloads[i], &v2);
    ASSERT_EQ(id_full, id_resumed) << "diverged at payload " << i;
    ASSERT_EQ(v1, v2);
  }
  EXPECT_TRUE(full.Export() == resumed.Export());
  EXPECT_EQ(full.payloads_mined(), resumed.payloads_mined());
}

TEST(TemplateMiner, ImportRejectsMalformedState) {
  TemplateMiner source;
  source.Mine("alpha beta gamma");
  TemplateMinerState state = source.Export();
  ASSERT_FALSE(state.nodes.empty());
  state.nodes[0].parent = 7;  // Root must have no parent.
  TemplateMiner miner;
  EXPECT_FALSE(miner.Import(state));
  // A failed import leaves the miner empty, not half-restored.
  EXPECT_EQ(miner.node_count(), 0u);
  EXPECT_EQ(miner.Mine("alpha beta gamma"), 1u);

  TemplateMinerState mismatched = source.Export();
  ASSERT_FALSE(mismatched.groups.empty());
  mismatched.groups[0].wildcard.push_back(1);  // tokens/wildcard length skew.
  TemplateMiner other;
  EXPECT_FALSE(other.Import(mismatched));
}

TEST(TemplateMiner, NodeBudgetHoldsUnderAdversarialHighCardinalityStream) {
  // 1M records whose leading tokens and token counts are all distinct-ish:
  // the worst case for a prefix tree. The node count must never exceed the
  // budget; overflow traffic lands in wildcard routes and the catch-all.
  TemplateMinerOptions options;
  options.max_nodes = 512;
  TemplateMiner miner(options);
  Rng rng(7);
  std::string payload;
  for (int i = 0; i < 1'000'000; ++i) {
    payload.clear();
    // Unique leading token, no digits (digit tokens would self-wildcard and
    // make the attack easy to absorb).
    payload += "k";
    uint64_t v = static_cast<uint64_t>(i);
    do {
      payload += static_cast<char>('a' + (v % 26));
      v /= 26;
    } while (v > 0);
    const int extra = static_cast<int>(rng.NextBelow(6));
    for (int t = 0; t < extra; ++t) {
      payload += " w";
      payload += static_cast<char>('a' + static_cast<char>(rng.NextBelow(26)));
    }
    miner.Mine(payload);
    ASSERT_LE(miner.node_count(), options.max_nodes)
        << "node budget exceeded at record " << i;
  }
  EXPECT_EQ(miner.payloads_mined(), 1'000'000u);
  EXPECT_LE(miner.node_count(), options.max_nodes);
  // The miner still made progress: hot shapes got ids, the rest fell back.
  EXPECT_GT(miner.template_count(), 0u);
}

TEST(TemplateMiner, SnapshotHitsSumToPayloadsMined) {
  TemplateMiner miner;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::string p = rng.NextBool(0.5) ? "cache hit for key " : "cache miss for key ";
    p += std::to_string(rng.NextBelow(100));
    miner.Mine(p);
  }
  uint64_t total = 0;
  for (const auto& info : miner.Snapshot()) {
    total += info.hits;
  }
  EXPECT_EQ(total, miner.payloads_mined());
}

// Live-pipeline integration: mining happens on the ingest thread before the
// shard exchange, so the closed-session stream, the store's query answers,
// and the mined dictionary must be byte-identical for every worker count.
struct PipelineRun {
  uint64_t session_digest = 0;
  uint64_t store_digest = 0;
  uint64_t sessions = 0;
  size_t templates = 0;
  size_t nodes = 0;
  std::vector<TemplateInfo> dictionary;
};

PipelineRun RunMinedPipeline(const std::vector<std::string>& lines,
                             size_t workers) {
  PipelineRun run;
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  std::mutex mu;
  std::set<std::string> ids;
  LivePipelineOptions options;
  options.workers = workers;
  options.inactivity_ns = 2 * kNanosPerSecond;
  options.mine_templates = true;
  LivePipeline pipeline(options, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(mu);
      run.session_digest ^= d;
      ids.insert(s.id);
    }
    store.Insert(std::move(s));
  });
  pipeline.FeedBlock(CopyToLineBlock(lines));
  pipeline.Finish();
  run.store_digest = ChainedStoreDigest(store, ids);
  run.sessions = store.stats().sessions;
  run.templates = pipeline.template_count();
  run.nodes = pipeline.template_nodes();
  run.dictionary = pipeline.TemplateSnapshot();
  return run;
}

std::vector<std::string> FreeTextLines(uint64_t seed, double rate,
                                       int seconds) {
  GeneratorConfig config;
  config.seed = seed;
  config.duration_ns = static_cast<EventTime>(seconds) * kNanosPerSecond;
  config.target_records_per_sec = rate;
  config.free_text_payloads = true;
  TraceGenerator gen(config);
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  std::vector<std::string> lines;
  std::string line;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      line.clear();
      AppendWireFormat(r, &line);
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(TemplatePipeline, MinedOutputInvariantAcrossWorkerCounts) {
  const auto lines = FreeTextLines(/*seed=*/11, /*rate=*/4000, /*seconds=*/4);
  ASSERT_GT(lines.size(), 5000u);
  const PipelineRun one = RunMinedPipeline(lines, 1);
  ASSERT_GT(one.sessions, 0u);
  ASSERT_GT(one.templates, 0u);
  for (size_t workers : {2u, 4u}) {
    const PipelineRun other = RunMinedPipeline(lines, workers);
    EXPECT_EQ(one.session_digest, other.session_digest) << workers;
    EXPECT_EQ(one.store_digest, other.store_digest) << workers;
    EXPECT_EQ(one.sessions, other.sessions) << workers;
    EXPECT_EQ(one.templates, other.templates) << workers;
    EXPECT_EQ(one.nodes, other.nodes) << workers;
    ASSERT_EQ(one.dictionary.size(), other.dictionary.size()) << workers;
    for (size_t i = 0; i < one.dictionary.size(); ++i) {
      EXPECT_EQ(one.dictionary[i].id, other.dictionary[i].id);
      EXPECT_EQ(one.dictionary[i].hits, other.dictionary[i].hits);
      EXPECT_EQ(one.dictionary[i].text, other.dictionary[i].text);
    }
  }
}

TEST(TemplatePipeline, MiningShrinksStoreBytes) {
  const auto lines = FreeTextLines(/*seed=*/12, /*rate=*/3000, /*seconds=*/3);
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  uint64_t bytes[2] = {0, 0};
  uint64_t sessions[2] = {0, 0};
  for (int mined = 0; mined < 2; ++mined) {
    SessionStore store(store_options);
    LivePipelineOptions options;
    options.workers = 2;
    options.inactivity_ns = 2 * kNanosPerSecond;
    options.mine_templates = mined == 1;
    LivePipeline pipeline(options,
                          [&](Session&& s) { store.Insert(std::move(s)); });
    pipeline.FeedBlock(CopyToLineBlock(lines));
    pipeline.Finish();
    bytes[mined] = store.stats().bytes;
    sessions[mined] = store.stats().sessions;
  }
  ASSERT_GT(sessions[0], 0u);
  EXPECT_EQ(sessions[0], sessions[1]);  // Mining must not change sessions.
  // The free-text workload is dominated by constant template text, so the
  // rewritten store must be at least 3x smaller per session.
  EXPECT_GE(static_cast<double>(bytes[0]),
            3.0 * static_cast<double>(bytes[1]));
}

TEST(TemplatePipeline, ShortLinesPassThroughUnmined) {
  // Lines with fewer than the wire format's six '|' separators carry no
  // payload field; mining must leave them alone (they count as parse
  // failures downstream, same as without mining).
  LivePipelineOptions options;
  options.workers = 1;
  options.mine_templates = true;
  LivePipeline pipeline(options, [](Session&&) {});
  const std::vector<std::string> lines = {"not|a|wire|record", ""};
  pipeline.FeedBlock(CopyToLineBlock(lines));
  pipeline.Finish();
  EXPECT_EQ(pipeline.parse_failures(), 1u);
  EXPECT_EQ(pipeline.template_count(), 0u);
}

}  // namespace
}  // namespace ts
