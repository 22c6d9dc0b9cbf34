/**
 * Determinism of Rng, RunningStat against hand-computed values, and
 * the strict decimal parse the command-line tools share.
 */

#include "harness.hh"

#include "stats/running_stat.hh"
#include "util/log.hh"
#include "util/rng.hh"

int
main()
{
    using namespace lp;

    // Same seed + stream -> identical sequences.
    {
        Rng a(42, "stream");
        Rng b(42, "stream");
        for (int i = 0; i < 1000; ++i)
            CHECK_EQ(a.next(), b.next());
    }
    // Different stream names -> different sequences.
    {
        Rng a(42, "one");
        Rng b(42, "two");
        bool anyDiff = false;
        for (int i = 0; i < 16; ++i)
            anyDiff = anyDiff || (a.next() != b.next());
        CHECK(anyDiff);
    }
    // Bounded draws stay in range and hit both halves.
    {
        Rng r(7);
        bool low = false;
        bool high = false;
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t v = r.nextBounded(100);
            CHECK(v < 100);
            low = low || v < 50;
            high = high || v >= 50;
        }
        CHECK(low);
        CHECK(high);
    }

    // RunningStat vs hand-computed values for {2, 4, 4, 4, 5, 5, 7, 9}:
    // mean 5, sample variance 32/7, min 2, max 9.
    {
        RunningStat s;
        for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
            s.add(x);
        CHECK_EQ(s.count(), 8u);
        CHECK_NEAR(s.mean(), 5.0, 1e-12);
        CHECK_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
        CHECK_NEAR(s.cov(), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
        CHECK_NEAR(s.min(), 2.0, 0.0);
        CHECK_NEAR(s.max(), 9.0, 0.0);
        // Half-width at z=2: 2 * stddev / sqrt(8).
        CHECK_NEAR(s.halfWidth(2.0),
                   2.0 * std::sqrt(32.0 / 7.0) / std::sqrt(8.0), 1e-12);
    }

    // RunningStat::merge (Chan et al.) against the same hand-computed
    // sample, split unevenly: {2, 4, 4} + {4, 5, 5, 7, 9}.
    {
        RunningStat a;
        for (const double x : {2.0, 4.0, 4.0})
            a.add(x);
        RunningStat b;
        for (const double x : {4.0, 5.0, 5.0, 7.0, 9.0})
            b.add(x);
        a.merge(b);
        CHECK_EQ(a.count(), 8u);
        CHECK_NEAR(a.mean(), 5.0, 1e-12);
        CHECK_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
        CHECK_NEAR(a.min(), 2.0, 0.0);
        CHECK_NEAR(a.max(), 9.0, 0.0);

        // Merging an empty accumulator is a no-op, either way.
        RunningStat empty;
        a.merge(empty);
        CHECK_EQ(a.count(), 8u);
        CHECK_NEAR(a.mean(), 5.0, 1e-12);
        RunningStat c;
        c.merge(a);
        CHECK_EQ(c.count(), 8u);
        CHECK_NEAR(c.mean(), 5.0, 1e-12);
        CHECK_NEAR(c.variance(), 32.0 / 7.0, 1e-12);

        // Single observations merge like adds: {3} + {7}.
        RunningStat d;
        d.add(3.0);
        RunningStat e;
        e.add(7.0);
        d.merge(e);
        CHECK_EQ(d.count(), 2u);
        CHECK_NEAR(d.mean(), 5.0, 1e-12);
        CHECK_NEAR(d.variance(), 8.0, 1e-12); // ((3-5)^2+(7-5)^2)/1
    }

    // Normal quantiles: well-known two-sided z values.
    CHECK_NEAR(confidenceZ(0.95), 1.959964, 1e-4);
    CHECK_NEAR(confidenceZ(0.99), 2.575829, 1e-4);
    CHECK_NEAR(confidenceZ(0.997), 2.967738, 1e-4);
    CHECK_NEAR(normalQuantile(0.5), 0.0, 1e-9);

    // strfmt round-trips formatting.
    CHECK(strfmt("%s-%d", "x", 7) == "x-7");

    // parseDecimal: digits only, up to UINT64_MAX.
    {
        std::uint64_t v = 0;
        CHECK(parseDecimal("0", &v));
        CHECK_EQ(v, 0u);
        CHECK(parseDecimal("0042", &v));
        CHECK_EQ(v, 42u);
        CHECK(parseDecimal("18446744073709551615", &v));
        CHECK_EQ(v, ~std::uint64_t{0});
        v = 7;
        for (const char *bad :
             {"", "abc", "1a", "a1", "+1", "-1", " 1", "1 ", "0x10",
              "1e3", "1.0", "18446744073709551616",
              "99999999999999999999"})
            CHECK(!parseDecimal(bad, &v));
        CHECK_EQ(v, 7u);
    }

    return TEST_MAIN_RESULT();
}
