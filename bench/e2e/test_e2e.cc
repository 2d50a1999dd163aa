// Tests of citbench's own rules: tail quantiles, the seeded request order,
// where serving threads run, reply matching and span self time.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "e2e.h"

namespace cit::e2e {
namespace {

TEST(Quantiles, SamplesBeyondIsExact) {
  const Level p99{"p99", 99, 100};
  EXPECT_EQ(SamplesBeyond(1000, p99), 10);
  EXPECT_EQ(SamplesBeyond(999, p99), 9);
  EXPECT_EQ(SamplesBeyond(20, Level{"p50", 1, 2}), 10);
  EXPECT_EQ(SamplesBeyond(10000, Level{"p99.9", 999, 1000}), 10);
}

TEST(Quantiles, TailsNeedTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) v.push_back(i);
  std::vector<Tail> tails = SupportedTails(v);
  ASSERT_EQ(tails.size(), 2u);  // p50, p90; p99 has only 9 beyond
  EXPECT_EQ(tails.back().level, "p90");
  EXPECT_EQ(tails.back().count, 999);
  EXPECT_EQ(tails.back().beyond, 99);
  v.push_back(999);
  tails = SupportedTails(v);
  ASSERT_EQ(tails.size(), 3u);
  EXPECT_EQ(tails.back().level, "p99");
  EXPECT_EQ(tails.back().beyond, 10);
  EXPECT_DOUBLE_EQ(tails.back().value, 0.99 * 999);
  EXPECT_TRUE(SupportedTails(std::vector<double>(19, 1.0)).empty());
}

TEST(Quantiles, LinearInterpolationAndMedian) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({10, 1, 4, 2, 3, 6, 5, 9, 8, 7, 0}, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(SortedQuantile({}, 0.5), 0.0);
}

TEST(Order, SameSeedSameOrderOtherSeedOther) {
  const auto a = RequestOrder(256, 4096, 42);
  const auto b = RequestOrder(256, 4096, 42);
  const auto c = RequestOrder(256, 4096, 43);
  ASSERT_EQ(a.size(), 4096u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::vector<int> seen(256, 0);
  for (int32_t line : a) {
    ASSERT_GE(line, 0);
    ASSERT_LT(line, 256);
    ++seen[static_cast<size_t>(line)];
  }
  // 4096 uniform draws over 256 lines: every line comes up.
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), 0);
  EXPECT_TRUE(RequestOrder(0, 10, 1).empty());
  EXPECT_NE(SubSeed(7, 1), SubSeed(7, 2));
  EXPECT_EQ(SubSeed(7, 1), SubSeed(7, 1));
}

TEST(Placement, OwnCpuEachAndAllMoveOn) {
  cpu_set_t before;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(before), &before), 0);
  // The single CPU a thread may run on, or -1.
  auto cpu_of = [](int tid) {
    cpu_set_t s;
    if (::sched_getaffinity(tid, sizeof(s), &s) != 0 || CPU_COUNT(&s) != 1) {
      return -1;
    }
    int c = 0;
    while (!CPU_ISSET(c, &s)) ++c;
    return c;
  };
  {
    Placement placement;
    const std::vector<int> snapshot = ThreadIds();
    std::atomic<bool> release{false};
    std::atomic<int> tid{0};
    std::thread worker([&] {
      tid = static_cast<int>(::syscall(SYS_gettid));
      while (!release) std::this_thread::yield();
    });
    while (tid == 0) std::this_thread::yield();
    placement.AdoptServer(snapshot);
    // Two threads need three CPUs.
    EXPECT_EQ(placement.active(), CPU_COUNT(&before) >= 3);
    if (placement.active()) {
      const int client0 = cpu_of(0), worker0 = cpu_of(tid);
      EXPECT_GE(client0, 0);
      EXPECT_GE(worker0, 0);
      EXPECT_NE(client0, worker0);
      placement.Rotate();
      // Every thread moves on one CPU: the client to the worker's old one.
      EXPECT_EQ(cpu_of(0), worker0);
      EXPECT_NE(cpu_of(tid), worker0);
      EXPECT_GE(cpu_of(tid), 0);
    }
    release = true;
    worker.join();
  }
  cpu_set_t after;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(Replies, ByteExactInOrderAcrossReads) {
  const std::string a = "ok 0 0.25 0.75\n", b = "ok 0 0.5 0.5\n";
  ReplyStream s;
  s.Expect(7, &a);
  s.Expect(8, &b);
  std::vector<std::pair<int64_t, bool>> got;
  auto rec = [&](int64_t r, bool ok) { got.emplace_back(r, ok); };
  s.Feed("ok 0 0.2", rec);
  EXPECT_TRUE(got.empty());
  s.Feed("5 0.75\nok 0 0.5 ", rec);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::make_pair(int64_t{7}, true));
  s.Feed("0.5\n", rec);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], std::make_pair(int64_t{8}, true));
  EXPECT_EQ(s.outstanding(), 0u);

  s.Feed("ok 0 1\n", rec);  // nothing outstanding
  EXPECT_EQ(s.unexpected(), 1);
}

TEST(Replies, AnyDifferingByteIsAMismatch) {
  const std::string want = "ok 0 0.25 0.75\n";
  for (const std::string reply :
       {"ok 1 0.25 0.75\n", "ok 0 0.25 0.7500000000000001\n",
        "ok 0 0.25 0.75 \n", "err input bad\n"}) {
    ReplyStream s;
    s.Expect(1, &want);
    bool ok = true;
    s.Feed(reply, [&](int64_t, bool m) { ok = m; });
    EXPECT_FALSE(ok) << reply;
  }
}

TEST(Digest, FnvKnownValues) {
  EXPECT_EQ(Fnv1a(""), kFnvOffset);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Hex64(0xabcull), "0000000000000abc");
  EXPECT_NE(FnvDouble(0.1, kFnvOffset), FnvDouble(0.1 + 1e-17, kFnvOffset));
}

TEST(Json, ValuesAndEscapes) {
  EXPECT_EQ(JsonNum(1.5), "1.5");
  EXPECT_EQ(JsonNum(1.0 / 0.0), "null");
  EXPECT_EQ(JsonStr("a\"b\\\n"), "\"a\\\"b\\\\\\n\"");
  EXPECT_EQ(JsonObject().Int("n", 2).Bool("ok", true).Render(),
            "{\"n\": 2, \"ok\": true}");
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  SpanLog log;
  log.set_enabled(true);
  const int64_t root = log.Add("job", 0, 100, -1);
  log.Add("a", 10, 40, root);
  log.Add("b", 30, 60, root);   // overlaps a: union is [10, 60)
  log.Add("c", 90, 120, root);  // clipped to the parent: [90, 100)
  const auto self = log.SelfTimeUs();
  EXPECT_DOUBLE_EQ(self.at("job"), 100 - 50 - 10);
  EXPECT_DOUBLE_EQ(self.at("a"), 30);
  EXPECT_DOUBLE_EQ(log.TotalUs().at("c"), 30);

  SpanLog off;
  EXPECT_EQ(off.Begin("x"), -1);
  EXPECT_EQ(off.size(), 0u);
}

TEST(Spans, NestingAndRequestIds) {
  SpanLog log;
  log.set_enabled(true);
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner", 42);
  }
  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"name\": \"inner\", \"start_us\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0, \"request_id\": 42"), std::string::npos);
}

}  // namespace
}  // namespace cit::e2e
