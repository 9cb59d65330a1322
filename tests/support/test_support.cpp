/**
 * @file
 * Unit tests for the support layer: bit vectors, counters, tables,
 * and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "support/bitvector.h"
#include "support/random.h"
#include "support/stats.h"
#include "support/table.h"

namespace chf {
namespace {

TEST(BitVector, SetTestClear)
{
    BitVector bv(130);
    EXPECT_EQ(bv.size(), 130u);
    EXPECT_TRUE(bv.none());
    bv.set(0);
    bv.set(64);
    bv.set(129);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(129));
    EXPECT_FALSE(bv.test(1));
    EXPECT_EQ(bv.count(), 3u);
    bv.clear(64);
    EXPECT_FALSE(bv.test(64));
    EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector, SetAllRespectsPadding)
{
    // Every bit of a 70-bit vector set: the last word's padding never
    // counts, and a shrink clears it, so a bit past the new size does
    // not come back when the vector grows again.
    BitVector bv(70);
    for (size_t i = 0; i < bv.size(); ++i)
        bv.set(i);
    EXPECT_EQ(bv.count(), 70u);
    bv.resize(66);
    EXPECT_EQ(bv.count(), 66u);
    bv.resize(70);
    EXPECT_FALSE(bv.test(69));
    EXPECT_EQ(bv.count(), 66u);
    bv.reset();
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, UnionIntersectSubtract)
{
    BitVector a(100), b(100);
    a.set(3);
    a.set(50);
    b.set(50);
    b.set(99);

    BitVector u = a;
    EXPECT_TRUE(u.unionWith(b));
    EXPECT_EQ(u.count(), 3u);
    EXPECT_FALSE(u.unionWith(b)); // no change the second time

    BitVector i = a;
    EXPECT_TRUE(i.intersectWith(b));
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(50));

    BitVector s = a;
    EXPECT_TRUE(s.subtract(b));
    EXPECT_EQ(s.count(), 1u);
    EXPECT_TRUE(s.test(3));
}

TEST(BitVector, ForEachAscending)
{
    BitVector bv(200);
    bv.set(5);
    bv.set(63);
    bv.set(64);
    bv.set(199);
    std::vector<uint32_t> seen;
    bv.forEach([&](uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<uint32_t>{5, 63, 64, 199}));
    EXPECT_EQ(bv.bits(), seen);
}

TEST(BitVector, ResizeKeepsBitsAndClearsNew)
{
    BitVector bv(10);
    bv.set(9);
    bv.resize(100);
    EXPECT_TRUE(bv.test(9));
    EXPECT_FALSE(bv.test(50));
    EXPECT_EQ(bv.count(), 1u);
}

TEST(BitVector, Equality)
{
    BitVector a(64), b(64);
    a.set(13);
    EXPECT_NE(a, b);
    b.set(13);
    EXPECT_EQ(a, b);
}

TEST(StatSet, AddSetGetMerge)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0);
    EXPECT_FALSE(s.has("x"));
    s.add("x");
    s.add("x", 4);
    EXPECT_EQ(s.get("x"), 5);
    s.set("y", 7);
    EXPECT_TRUE(s.has("y"));

    StatSet t;
    t.add("x", 10);
    t.add("z", 1);
    s.merge(t);
    EXPECT_EQ(s.get("x"), 15);
    EXPECT_EQ(s.get("z"), 1);
}

TEST(StatSet, ToStringPreservesInsertionOrder)
{
    StatSet s;
    s.add("b", 2);
    s.add("a", 1);
    EXPECT_EQ(s.toString(), "b=2 a=1");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, FormatHelpers)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(-7.25), "-7.2");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

} // namespace
} // namespace chf
