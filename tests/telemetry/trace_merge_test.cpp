// Offline merge-tool tests: shard parsing rejects torn tails, the NTP
// minimum-filter clock alignment recovers a deliberately injected skew
// (overriding the coarse wall-clock baseline), the Chrome trace_event
// output is well-formed JSON with flow arrows, and the per-trace rollup
// reconstructs the causal tree the CLI gate checks.
#include "telemetry/trace_merge.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "json_check.hpp"

namespace discs::telemetry {
namespace {

ShardRecord span_record(std::uint64_t as, const char* name,
                        std::uint64_t trace, std::uint64_t span,
                        std::uint64_t parent, std::uint64_t ts,
                        std::uint64_t dur) {
  ShardRecord r;
  r.kind = ShardRecord::Kind::kSpan;
  r.as = as;
  r.name = name;
  r.cat = "control";
  r.trace = trace;
  r.span = span;
  r.parent = parent;
  r.ts = ts;
  r.dur = dur;
  return r;
}

ShardRecord instant_record(std::uint64_t as, const char* name,
                           std::uint64_t trace, std::uint64_t span,
                           std::uint64_t parent, std::uint64_t ts) {
  ShardRecord r = span_record(as, name, trace, span, parent, ts, 0);
  r.kind = ShardRecord::Kind::kInstant;
  return r;
}

ShardRecord wire_record(ShardRecord::Kind kind, std::uint64_t as,
                        std::uint64_t peer, std::uint64_t seq,
                        std::uint64_t trace, std::uint64_t span,
                        std::uint64_t ts) {
  ShardRecord r;
  r.kind = kind;
  r.as = as;
  r.peer = peer;
  r.seq = seq;
  r.msg = 6;
  r.trace = trace;
  r.span = span;
  r.ts = ts;
  r.attempt = 1;
  return r;
}

TraceShard make_shard(std::uint32_t as, std::int64_t wall_minus_loop,
                      std::vector<ShardRecord> records) {
  TraceShard shard;
  shard.as = as;
  shard.has_meta = true;
  shard.wall_minus_loop_us = wall_minus_loop;
  shard.records = std::move(records);
  return shard;
}

TEST(ShardParseTest, ParsesARealSpanLine) {
  ShardRecord r;
  ASSERT_TRUE(parse_shard_record(
      R"({"type":"span","name":"invocation","cat":"control","as":1,)"
      R"("trace":"0xdeadbeef","span":"0x100000001","parent":"0x0",)"
      R"("ts":42,"dur":7,"args":{"peers":4}})",
      r));
  EXPECT_EQ(r.kind, ShardRecord::Kind::kSpan);
  EXPECT_EQ(r.name, "invocation");
  EXPECT_EQ(r.trace, 0xdeadbeefu);
  EXPECT_EQ(r.span, 0x100000001u);
  EXPECT_EQ(r.parent, 0u);
  EXPECT_EQ(r.ts, 42u);
  EXPECT_EQ(r.dur, 7u);
  ASSERT_EQ(r.args.size(), 1u);
  EXPECT_EQ(r.args[0].second, 4u);
}

TEST(ShardParseTest, RejectsTornAndUnknownLines) {
  ShardRecord r;
  // SIGKILL-torn tail: the closing brace never made it to disk.
  EXPECT_FALSE(parse_shard_record(
      R"({"type":"span","name":"invocation","cat":"control","as":1,"ts":4)",
      r));
  EXPECT_FALSE(parse_shard_record(R"({"type":"wormhole","as":1})", r));
  EXPECT_FALSE(parse_shard_record("", r));
  EXPECT_FALSE(parse_shard_record("not json at all", r));
}

TEST(ShardParseTest, LoadSkipsTornTailButKeepsGoodRecords) {
  const std::string path = ::testing::TempDir() + "discs_torn_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    std::ofstream f(path);
    f << R"({"type":"meta","as":3,"pid":1,"loop_us":0,"wall_us":50,"version":1})"
      << "\n";
    f << R"({"type":"instant","name":"x","cat":"c","as":3,"trace":"0x1",)"
      << R"("span":"0x2","parent":"0x0","ts":9})" << "\n";
    f << R"({"type":"span","name":"torn","cat":"c","as":3,"trace":"0x1")";
    // no newline, no closing brace: the writer died mid-record
  }
  TraceShard shard;
  ASSERT_TRUE(load_trace_shard(path, shard));
  EXPECT_EQ(shard.as, 3u);
  EXPECT_TRUE(shard.has_meta);
  EXPECT_EQ(shard.records.size(), 2u);
  EXPECT_EQ(shard.skipped_lines, 1u);
  std::remove(path.c_str());

  TraceShard missing;
  EXPECT_FALSE(load_trace_shard(path + ".does-not-exist", missing));
}

TEST(AlignClocksTest, PairedSendRecvRecoversInjectedSkew) {
  // Ground truth: node 2's loop clock runs 5000 us behind node 1's
  // (offset_2 = +5000 maps it onto node 1's timeline). Symmetric one-way
  // delay of 200 us in both directions. The wall anchors deliberately
  // claim zero skew — the pair refinement must override them.
  const std::uint64_t trace = 0xaa, s1 = 0x101, s2 = 0x201;
  TraceShard a = make_shard(
      1, 1'000'000,
      {
          wire_record(ShardRecord::Kind::kSend, 1, 2, 7, trace, s1, 100000),
          wire_record(ShardRecord::Kind::kRecv, 1, 2, 9, trace, s2, 110200),
      });
  TraceShard b = make_shard(
      2, 1'000'000,
      {
          wire_record(ShardRecord::Kind::kRecv, 2, 1, 7, trace, s1, 95200),
          wire_record(ShardRecord::Kind::kSend, 2, 1, 9, trace, s2, 105000),
      });
  // Node 3 never exchanged a traced message: it keeps the wall baseline,
  // whose anchor says its loop clock runs 250 us behind the reference.
  TraceShard c = make_shard(
      3, 1'000'000 + 250,
      {instant_record(3, "lonely", 0xbb, 0x301, 0, 1)});

  const auto offsets = align_clocks({a, b, c});
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets.at(1), 0);  // reference = lowest AS
  EXPECT_EQ(offsets.at(2), 5000);
  EXPECT_EQ(offsets.at(3), 250);
}

TEST(MergeTest, ProducesValidChromeTraceWithFlows) {
  const std::uint64_t trace = 0x77, root = 0x100000001, exec = 0x200000001;
  TraceShard a = make_shard(
      1, 500,
      {
          span_record(1, "invocation", trace, root, 0, 1000, 4000),
          wire_record(ShardRecord::Kind::kSend, 1, 2, 5, trace, root, 1100),
      });
  TraceShard b = make_shard(
      2, 500,
      {
          wire_record(ShardRecord::Kind::kRecv, 2, 1, 5, trace, root, 1300),
          span_record(2, "execute_invocation", trace, exec, root, 1300, 700),
          instant_record(2, "filter_install", trace, 0x200000002, exec, 1900),
      });
  const auto offsets = align_clocks({a, b});
  const std::string json = merge_to_chrome_trace({a, b}, offsets);

  testing_json::Checker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // The matched send/recv pair becomes a flow arrow (start + finish).
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("invocation"), std::string::npos);
  EXPECT_NE(json.find("filter_install"), std::string::npos);
}

TEST(SummarizeTest, RollsUpTheCausalTreePerTrace) {
  const std::uint64_t inv = 0x11, rekey = 0x22;
  TraceShard a = make_shard(
      1, 0,
      {
          span_record(1, "invocation", inv, 0x101, 0, 10, 100),
          span_record(1, "rekey", rekey, 0x102, 0, 5, 50),
          wire_record(ShardRecord::Kind::kSend, 1, 2, 1, inv, 0x101, 12),
      });
  TraceShard b = make_shard(
      2, 0,
      {
          wire_record(ShardRecord::Kind::kRecv, 2, 1, 1, inv, 0x101, 40),
          span_record(2, "execute_invocation", inv, 0x201, 0x101, 40, 30),
          instant_record(2, "filter_install", inv, 0x202, 0x201, 60),
      });
  TraceShard c = make_shard(
      3, 0, {span_record(3, "execute_invocation", inv, 0x301, 0x101, 45, 20)});

  const auto summaries = summarize_traces({a, b, c});
  ASSERT_EQ(summaries.size(), 2u);
  const TraceSummary* inv_sum = nullptr;
  const TraceSummary* rekey_sum = nullptr;
  for (const auto& s : summaries) {
    if (s.trace_id == inv) inv_sum = &s;
    if (s.trace_id == rekey) rekey_sum = &s;
  }
  ASSERT_NE(inv_sum, nullptr);
  ASSERT_NE(rekey_sum, nullptr);
  EXPECT_EQ(inv_sum->root_name, "invocation");
  EXPECT_EQ(inv_sum->nodes, (std::set<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(inv_sum->filter_installs, 1u);
  EXPECT_GE(inv_sum->spans, 4u);
  EXPECT_EQ(rekey_sum->nodes, (std::set<std::uint32_t>{1}));
}

}  // namespace
}  // namespace discs::telemetry
