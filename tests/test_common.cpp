/**
 * @file
 * Tests for the common utilities: stats, tables, RNG determinism, the
 * parallel loop and the fatal exit path while the worker pool is live.
 */
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace bbs {
namespace {

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), 1.118, 1e-3);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanOfRatios)
{
    std::vector<double> xs = {2.0, 8.0};
    EXPECT_DOUBLE_EQ(geomean(xs), 4.0);
    std::vector<double> ones = {1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(geomean(ones), 1.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, AccumulatorTracksRange)
{
    Accumulator acc;
    acc.add(3.0);
    acc.add(-1.0);
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.min(), -1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_NEAR(acc.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"Model", "Speedup"});
    t.addRow({"ResNet-50", "3.03"});
    t.addRow({"VGG-16", "2.1"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("Model"), std::string::npos);
    EXPECT_NE(s.find("ResNet-50"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(Format, PrintfStyle)
{
    EXPECT_EQ(format("%.2f x", 3.0305), "3.03 x");
    EXPECT_EQ(formatDouble(1.666, 1), "1.7");
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(9), b(9);
    Rng fa = a.fork();
    Rng fb = b.fork();
    EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(7);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(1.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double m = sum / n;
    double var = sq / n - m * m;
    EXPECT_NEAR(m, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, LaplaceIsSymmetricWithHeavyTails)
{
    Rng rng(7);
    int pos = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        pos += rng.laplace(0.0, 1.0) > 0.0;
    EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.03);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    const std::int64_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    }, 13);
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(Parallel, HandlesEmptyAndTiny)
{
    std::atomic<int> count{0};
    parallelFor(0, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallelFor(3, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

// A fatal error must exit with code 1 even after the persistent pool has
// spawned its helpers. The default ("fast") death test forks the child
// without those threads, so an exit path that joins them from a static
// destructor crashes instead.
TEST(Parallel, FatalExitsWithCodeOneWhilePoolIsWarm)
{
    std::atomic<int> count{0};
    parallelFor(4096, [&](std::int64_t) { count.fetch_add(1); }, 1);
    ASSERT_EQ(count.load(), 4096);
    EXPECT_EXIT(BBS_FATAL("bad input with a warm pool"),
                ::testing::ExitedWithCode(1), "bad input with a warm pool");
}

/** Fatal on a pool helper while the calling thread holds its own chunk. */
void
fatalOnPoolHelper()
{
    const std::thread::id caller = std::this_thread::get_id();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    parallelFor(2, [&](std::int64_t) {
        if (std::this_thread::get_id() != caller)
            BBS_FATAL("bad input on a pool helper");
        // Keep the caller busy so the other chunk goes to a helper.
        while (std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }, 1);
}

// A fatal error raised on a pool helper must exit with code 1: the exit
// path must not join the helper from itself.
TEST(Parallel, FatalOnPoolWorkerExitsWithCodeOne)
{
    if (maxWorkerThreads() < 2)
        GTEST_SKIP() << "needs at least two worker threads";
    // "threadsafe" re-executes the test binary, so the child starts a
    // fresh pool whose helper raises the fatal.
    std::string &style = ::testing::GTEST_FLAG(death_test_style);
    const std::string saved = style;
    style = "threadsafe";
    EXPECT_EXIT(fatalOnPoolHelper(), ::testing::ExitedWithCode(1),
                "bad input on a pool helper");
    style = saved;
}

} // namespace
} // namespace bbs
