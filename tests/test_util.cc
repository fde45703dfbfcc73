/**
 * @file
 * Unit tests for the util library: RNG, bit utilities, histograms,
 * stats, tables, option parsing, JSON input hardening, and FlatAddrMap
 * diffed against std::unordered_map.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/bitutil.hh"
#include "util/flat_map.hh"
#include "util/histogram.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ipref;

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsIndependentAndStable)
{
    Rng root(42);
    Rng f1 = root.fork("alpha");
    Rng f2 = root.fork("alpha");
    Rng f3 = root.fork("beta");
    EXPECT_EQ(f1.next(), f2.next());
    Rng f4 = root.fork("beta");
    EXPECT_EQ(f3.next(), f4.next());
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// chanceBelow(chanceThreshold(p)) must be chance(p) bit for bit: same
// draw consumed, same outcome, at the edges of [0, 1] and of the
// threshold itself (the integers m just below and at ceil(p * 2^53)).
TEST(Rng, ChanceThresholdMatchesUniformCompare)
{
    constexpr double kOneUlpBelowOne = 1.0 - 0x1.0p-53;
    static_assert(Rng::chanceThreshold(0.0) == 0);
    static_assert(Rng::chanceThreshold(1.0) == std::uint64_t{1} << 53);
    static_assert(Rng::chanceThreshold(kOneUlpBelowOne) ==
                  (std::uint64_t{1} << 53) - 1);
    static_assert(Rng::chanceThreshold(1e-300) == 1);
    static_assert(Rng::chanceThreshold(0.5) == std::uint64_t{1} << 52);

    std::vector<double> ps = {0.0,  1e-300, 1.5e-5, 0.5,
                              kOneUlpBelowOne, 1.0, -0.25, 1.5,
                              std::nan("")};
    Rng pick(41);
    for (int i = 0; i < 64; ++i)
        ps.push_back(pick.uniform());
    for (float f : {0.1f, 0.03f, 0.97f, 0.8f})
        ps.push_back(f); // BasicBlock::takenProb is a float
    std::uint64_t seed = 3;
    for (double p : ps) {
        const std::uint64_t t = Rng::chanceThreshold(p);
        // The boundary draws: m * 2^-53 for m around the threshold.
        for (std::uint64_t m : {t - 1, t, t + 1}) {
            if (m >= std::uint64_t{1} << 53)
                continue;
            const double u = static_cast<double>(m) * 0x1.0p-53;
            ASSERT_EQ(m < t, u < p) << "p " << p << " m " << m;
        }
        Rng a(++seed), b = a;
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.chance(p), b.chanceBelow(t)) << "p " << p;
        ASSERT_EQ(a.next(), b.next()); // one draw each, in step
    }
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.geometric(0.5));
    EXPECT_NEAR(sum / 20000, 1.0, 0.1); // mean (1-p)/p = 1
}

TEST(Zipf, RankZeroMostPopular)
{
    ZipfSampler zipf(100, 1.0);
    Rng rng(17);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[99]);
    // zipf(1.0): p(0)/p(9) == 10
    EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0,
                3.0);
}

TEST(Zipf, SingleItem)
{
    ZipfSampler zipf(1, 1.0);
    Rng rng(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

// The guide table must be invisible: for draws at every CDF value, at
// every guide-bucket edge k/G, and at the neighbouring doubles of
// both, rankOf() returns exactly the full std::lower_bound index.
TEST(Zipf, GuideTableMatchesFullSearch)
{
    const std::pair<std::size_t, double> shapes[] = {
        {262144, 1.3}, {65536, 1.05}, {1000, 0.55}, {37, 0.4},
        {3, 2.0},      {1, 1.0}};
    for (auto [n, alpha] : shapes) {
        ZipfSampler zipf(n, alpha);
        const std::vector<double> &cdf = zipf.cdf();
        auto full = [&](double u) {
            auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            if (it == cdf.end())
                --it;
            return static_cast<std::size_t>(it - cdf.begin());
        };
        auto check = [&](double u) {
            for (double v : {std::nextafter(u, -1.0), u,
                             std::nextafter(u, 2.0)}) {
                if (v < 0.0 || v >= 1.0)
                    continue; // outside Rng::uniform()'s range
                ASSERT_EQ(zipf.rankOf(v), full(v))
                    << "n " << n << " alpha " << alpha << " u " << v;
            }
        };
        for (double c : cdf)
            check(c);
        for (std::size_t k = 0; k <= ZipfSampler::kGuideBuckets; ++k)
            check(static_cast<double>(k) /
                  static_cast<double>(ZipfSampler::kGuideBuckets));
        Rng rng(29);
        for (int i = 0; i < 10000; ++i) {
            double u = rng.uniform();
            ASSERT_EQ(zipf.rankOf(u), full(u));
        }
    }
}

// Samplers of one shape share a single immutable CDF.
TEST(Zipf, EqualShapesShareOneTable)
{
    ZipfSampler a(4096, 1.28);
    ZipfSampler b(4096, 1.28);
    ZipfSampler c(4096, 1.31);
    EXPECT_EQ(&a.cdf(), &b.cdf());
    EXPECT_NE(&a.cdf(), &c.cdf());
    Rng ra(5), rb(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.sample(ra), b.sample(rb));
}

// A table outlives its samplers: a later System of the same preset
// reuses it instead of rebuilding the CDF.
TEST(Zipf, TablesOutliveTheirSamplers)
{
    const double *first = nullptr;
    {
        ZipfSampler a(12345, 0.77);
        first = a.cdf().data();
    }
    // Claim a block of the table's size, so a rebuilt table could not
    // land at the address the first one had.
    std::vector<double> squatter(12345, 0.0);
    ZipfSampler b(12345, 0.77);
    EXPECT_EQ(b.cdf().data(), first);
    EXPECT_NE(squatter.data(), first);
}

namespace
{

/** Diff every point operation of a FlatAddrMap against
 *  std::unordered_map, then check all of @p keys are findable. */
class FlatMapDiff
{
  public:
    explicit FlatMapDiff(std::size_t expected) : flat(expected) {}

    void
    put(Addr key, std::uint64_t value)
    {
        flat[key] = value;
        ref[key] = value;
        ASSERT_EQ(flat.size(), ref.size());
    }

    void
    erase(Addr key)
    {
        ASSERT_EQ(flat.erase(key), ref.erase(key) == 1) << key;
        ASSERT_EQ(flat.size(), ref.size());
    }

    void
    find(Addr key) const
    {
        const std::uint64_t *got = flat.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << key;
        if (got) {
            ASSERT_EQ(*got, it->second) << key;
        }
    }

    void
    findAll(const std::vector<Addr> &keys) const
    {
        for (Addr k : keys)
            find(k);
    }

    FlatAddrMap<std::uint64_t> flat;
    std::unordered_map<Addr, std::uint64_t> ref;
};

} // namespace

TEST(FlatAddrMap, RandomStreamsMatchUnorderedMap)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        // Line addresses (the common key) and arbitrary 64-bit keys.
        std::vector<Addr> keys;
        for (int i = 0; i < 3000; ++i)
            keys.push_back(i % 2 ? rng.below(1u << 20) * 64
                                 : rng.next() | 1);
        FlatMapDiff d(seed == 1 ? 0 : 64);
        for (int op = 0; op < 60000; ++op) {
            Addr k = keys[rng.below(keys.size())];
            switch (rng.below(4)) {
              case 0:
              case 1:
                d.put(k, rng.next());
                break;
              case 2:
                d.erase(k);
                break;
              default:
                d.find(k);
                break;
            }
            if (HasFatalFailure())
                return;
        }
        d.findAll(keys);
        // invalidAddr marks empty slots: it is never found or erased.
        EXPECT_EQ(d.flat.find(invalidAddr), nullptr);
        EXPECT_FALSE(d.flat.erase(invalidAddr));
    }
}

// Keys homed in the last slots of the table probe past its end and
// wrap to slot 0, where they interleave with keys homed there; erasing
// from the middle of such a run makes backward shift move entries
// across the wrap and past entries that must stay put.
TEST(FlatAddrMap, WrapAroundAndLongShiftChains)
{
    FlatMapDiff d(64);
    const std::size_t cap = d.flat.capacity();
    ASSERT_GE(cap, 64u);
    Rng rng(7);
    std::vector<Addr> keys;
    // 20 keys homed at cap-2 or cap-1, 10 at 0..2: one 30-long run.
    unsigned tail = 0, head = 0;
    while (tail < 20 || head < 10) {
        Addr k = rng.next();
        std::size_t h = d.flat.home(k);
        if (h >= cap - 2 && tail < 20)
            ++tail;
        else if (h <= 2 && head < 10)
            ++head;
        else
            continue;
        keys.push_back(k);
        d.put(k, k ^ 0x5555);
    }
    ASSERT_EQ(d.flat.capacity(), cap); // no growth: the run stays
    d.findAll(keys);
    // Erase in random order, re-checking every key each time.
    std::vector<Addr> order = keys;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (std::size_t i = 0; i < order.size(); ++i) {
        d.erase(order[i]);
        d.findAll(keys);
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(d.flat.empty());
}

TEST(BitUtil, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitUtil, Align)
{
    EXPECT_EQ(alignDown(0x12345, 64), 0x12340u);
    EXPECT_EQ(alignUp(0x12345, 64), 0x12380u);
    EXPECT_EQ(alignUp(0x12340, 64), 0x12340u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
    EXPECT_EQ(bits(0b1010, 3, 1), 0b101u);
}

TEST(Histogram, MeanAndCount)
{
    Log2Histogram h;
    h.add(1);
    h.add(3);
    h.add(8);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 12u);
    EXPECT_NEAR(h.mean(), 4.0, 1e-9);
    EXPECT_EQ(h.max(), 8u);
}

TEST(Histogram, BucketsAndReset)
{
    Log2Histogram h;
    for (int i = 0; i < 10; ++i)
        h.add(100);
    EXPECT_EQ(h.buckets()[7], 10u); // 100 in (64,128]
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, Quantile)
{
    Log2Histogram h;
    for (int i = 0; i < 90; ++i)
        h.add(2);
    for (int i = 0; i < 10; ++i)
        h.add(1024);
    EXPECT_LE(h.quantile(0.5), 4u);
    EXPECT_GE(h.quantile(0.99), 512u);
}

TEST(Histogram, QuantileEmpty)
{
    Log2Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p95(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, QuantileSingleBucket)
{
    Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(7); // all samples land in the (4,8] bucket
    // Every quantile strictly below 1 resolves to that bucket's
    // upper boundary.
    EXPECT_EQ(h.quantile(0.0), 8u);
    EXPECT_EQ(h.p50(), 8u);
    EXPECT_EQ(h.p95(), 8u);
    EXPECT_EQ(h.p99(), 8u);
    // q = 1: the target rank is past every bucket — the exact max.
    EXPECT_EQ(h.quantile(1.0), 7u);
}

TEST(Histogram, QuantileBounds)
{
    Log2Histogram h;
    h.add(1);
    h.add(1000);
    // q=0 returns the first occupied bucket's boundary; q=1 the max.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
    EXPECT_EQ(h.p50(), h.quantile(0.5));
    EXPECT_EQ(h.p95(), h.quantile(0.95));
    EXPECT_EQ(h.p99(), h.quantile(0.99));
}

namespace
{

/** Find the dump line for @p name; @return its value token. */
std::string
dumpValue(const std::string &dump, const std::string &name)
{
    std::istringstream lines(dump);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream tokens(line);
        std::string n, v;
        tokens >> n >> v;
        if (n == name)
            return v;
    }
    return "";
}

} // namespace

TEST(Stats, DumpFormat)
{
    Counter c;
    c += 41;
    ++c;
    StatGroup g("grp");
    g.addCounter("answer", &c, "the answer");
    g.addFormula("half", [&] { return c.value() / 2.0; });
    std::ostringstream os;
    g.dump(os, "top");
    std::string s = os.str();
    EXPECT_EQ(dumpValue(s, "top.grp.answer"), "42");
    EXPECT_EQ(dumpValue(s, "top.grp.half"), "21");
    EXPECT_NE(s.find("# the answer"), std::string::npos);
}

TEST(Stats, DumpAlignsValuesAndSanitizesDescriptions)
{
    Counter a, b;
    a += 7;
    StatGroup g("grp");
    g.addCounter("x", &a, "multi\nline\rdesc");
    g.addCounter("much_longer_name", &b);
    std::ostringstream os;
    g.dump(os);
    std::string s = os.str();
    // Newlines in descriptions must not split the stat line.
    EXPECT_EQ(s.find("multi\nline"), std::string::npos);
    EXPECT_NE(s.find("# multi line desc"), std::string::npos);
    // Short names are padded so values line up with the widest name.
    std::istringstream lines(s);
    std::string first, second;
    std::getline(lines, first);
    std::getline(lines, second);
    EXPECT_EQ(first.find('7'), second.find('0'));
}

TEST(Stats, ResetAllRecursesIntoChildren)
{
    Counter a, b;
    Log2Histogram h;
    a += 5;
    b += 9;
    h.add(100);
    StatGroup parent("p"), child("c");
    parent.addCounter("a", &a);
    parent.addHistogram("h", &h);
    child.addCounter("b", &b);
    parent.addChild(&child);
    parent.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, NestedGroups)
{
    Counter c;
    StatGroup parent("p"), child("c");
    child.addCounter("x", &c);
    parent.addChild(&child);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("p.c.x 0"), std::string::npos);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", Table::num(1.5, 2)});
    t.row({"longer", Table::pct(0.123, 1)});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Csv)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Options, ParseForms)
{
    const char *argv[] = {"prog", "pos1", "--alpha", "3",
                          "--beta=x", "--gamma", "2.5", "--flag"};
    Options o(8, const_cast<char **>(argv));
    EXPECT_EQ(o.getInt("alpha", 0), 3);
    EXPECT_EQ(o.getString("beta"), "x");
    EXPECT_TRUE(o.getBool("flag"));
    EXPECT_FALSE(o.getBool("missing"));
    EXPECT_DOUBLE_EQ(o.getDouble("gamma", 0), 2.5);
    ASSERT_EQ(o.positional().size(), 1u);
    EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, Defaults)
{
    const char *argv[] = {"prog"};
    Options o(1, const_cast<char **>(argv));
    EXPECT_EQ(o.getInt("n", 7), 7);
    EXPECT_EQ(o.getString("s", "d"), "d");
    EXPECT_FALSE(o.has("n"));
}

TEST(Options, EqualsAndSpaceFormsAreEquivalent)
{
    const char *argv1[] = {"prog", "--alpha=3", "--beta=x",
                           "--gamma=2.5"};
    const char *argv2[] = {"prog", "--alpha", "3", "--beta", "x",
                           "--gamma", "2.5"};
    Options eq(4, const_cast<char **>(argv1));
    Options sp(7, const_cast<char **>(argv2));
    EXPECT_EQ(eq.getInt("alpha", 0), sp.getInt("alpha", 0));
    EXPECT_EQ(eq.getString("beta"), sp.getString("beta"));
    EXPECT_DOUBLE_EQ(eq.getDouble("gamma", 0),
                     sp.getDouble("gamma", 0));
}

TEST(Options, KnownMapAcceptsBothForms)
{
    std::map<std::string, std::string> known{{"stats-json", ""},
                                             {"stats-interval", ""}};
    const char *argv[] = {"prog", "--stats-json=out.json",
                          "--stats-interval", "100000"};
    Options o(4, const_cast<char **>(argv), known);
    EXPECT_EQ(o.getString("stats-json"), "out.json");
    EXPECT_EQ(o.getUint("stats-interval", 0), 100000u);
}

TEST(Options, BoolForms)
{
    const char *argv[] = {"prog", "--on", "--off=0", "--no=false",
                          "--yes=1"};
    Options o(5, const_cast<char **>(argv));
    EXPECT_TRUE(o.getBool("on"));
    EXPECT_FALSE(o.getBool("off"));
    EXPECT_FALSE(o.getBool("no"));
    EXPECT_TRUE(o.getBool("yes"));
    EXPECT_TRUE(o.getBool("missing", true));
}

TEST(Options, UnknownOptionThrows)
{
    std::map<std::string, std::string> known{{"ok", "help"}};
    const char *argv[] = {"prog", "--bad", "1"};
    test::expectThrows<ConfigError>(
        [&] { Options opts(3, const_cast<char **>(argv), known); },
        "unknown option");
}

TEST(Options, UnknownEqualsFormThrows)
{
    std::map<std::string, std::string> known{{"ok", "help"}};
    const char *argv[] = {"prog", "--bad=1"};
    test::expectThrows<ConfigError>(
        [&] { Options opts(2, const_cast<char **>(argv), known); },
        "unknown option --bad");
}

// Nesting beyond kJsonMaxDepth is a ConfigError, not a stack overflow.
TEST(Json, DeepNestingIsRefused)
{
    const std::string deep(2'000'000, '[');
    test::expectThrows<ConfigError>([&] { parseJson(deep); },
                                    "nested deeper");
    std::string ok = std::string(kJsonMaxDepth, '[') +
                     std::string(kJsonMaxDepth, ']');
    EXPECT_EQ(parseJson(ok).kind, JsonValue::Array);
    std::string over = "{\"a\":" + std::string(kJsonMaxDepth, '[');
    test::expectThrows<ConfigError>([&] { parseJson(over); },
                                    "nested deeper");
}

// A number is a whole, finite JSON token: no prefix parse of 1.2.3,
// no bare sign, no overflow to infinity.
TEST(Json, NumbersAreWholeFiniteTokens)
{
    for (const char *bad : {"1.2.3", "-", "1e99999", "-1e99999", "1.",
                            ".5", "1e", "1e+", "+1", "01", "[1.2.3]",
                            "{\"k\": -}"})
        test::expectThrows<ConfigError>([&] { parseJson(bad); },
                                        "JSON error");
    EXPECT_EQ(parseJson("-0.5e+2").number, -50.0);
    EXPECT_EQ(parseJson("0").number, 0.0);
    EXPECT_EQ(parseJson("1E3").number, 1000.0);
    EXPECT_EQ(parseJson("[12, -3.25e-1]").items[1].number, -0.325);
}

// asUint() refuses what no uint64 holds instead of casting it.
TEST(Json, AsUintIsRangeChecked)
{
    for (const char *bad : {"-1e30", "-1", "1e30", "18446744073709551616",
                            "\"0xZZ\"", "\"0x\"", "\"0x1g\"",
                            "\"0x10000000000000000\"", "\"12\"", "true"})
        test::expectThrows<ConfigError>(
            [&] { parseJson(bad).asUint(); }, "not a uint");
    EXPECT_EQ(parseJson("4096").asUint(), 4096u);
    EXPECT_EQ(parseJson("\"0xffffffffffffffff\"").asUint(), ~0ull);
    test::expectThrows<ConfigError>(
        [] { parseJson("{}").at("missing"); }, "missing key");
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(hashString("abc"), hashString("abc"));
    EXPECT_NE(hashString("abc"), hashString("abd"));
}

TEST(ThreadPool, ResultsMatchSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] {
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 10));
            return i * i;
        }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    // threads <= 1 executes at submit() time on the calling thread.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 0u);
    std::thread::id caller = std::this_thread::get_id();
    auto fut = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(fut.get(), caller);
}

TEST(ThreadPool, RunsAllTasksAcrossWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&count] { ++count; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 50);
}
