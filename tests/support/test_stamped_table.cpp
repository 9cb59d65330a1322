/**
 * @file
 * Unit tests for StampedTable, the O(1)-reset table behind every
 * per-block register walk: presence across clear(), value
 * initialization once per generation, erase, growth, fixed-capacity
 * slot arrays and the stamp wraparound.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "support/stamped_table.h"

namespace chf {
namespace {

struct Pair
{
    int a = 0;
    int b = 0;
};

TEST(StampedTable, EntriesAreAbsentAfterClear)
{
    StampedTable<int> t;
    EXPECT_FALSE(t.contains(3));
    EXPECT_EQ(t.find(3), nullptr);
    t.touch(3) = 7;
    ASSERT_TRUE(t.contains(3));
    EXPECT_EQ(*t.find(3), 7);
    EXPECT_FALSE(t.contains(2));

    t.clear();
    EXPECT_FALSE(t.contains(3));
    EXPECT_EQ(t.find(3), nullptr);
    EXPECT_EQ(t.size(), 4u); // clearing keeps the storage
}

TEST(StampedTable, TouchValueInitializesOncePerGeneration)
{
    StampedTable<Pair> t;
    t.touch(5).a = 1;
    t.touch(5).b = 2; // same generation: the entry keeps its value
    EXPECT_EQ(t.find(5)->a, 1);
    EXPECT_EQ(t.find(5)->b, 2);

    t.clear();
    Pair &p = t.touch(5); // first use in the new generation
    EXPECT_EQ(p.a, 0);
    EXPECT_EQ(p.b, 0);
    p.a = 3;
    EXPECT_EQ(t.touch(5).a, 3);
}

TEST(StampedTable, EraseMakesOneEntryAbsent)
{
    StampedTable<int> t;
    t.touch(1) = 9;
    t.touch(2) = 8;
    t.erase(1);
    EXPECT_FALSE(t.contains(1));
    EXPECT_TRUE(t.contains(2));
    EXPECT_EQ(t.touch(1), 0); // re-initialized by its next touch
    t.erase(100);             // past the end: nothing to erase
    EXPECT_EQ(t.size(), 3u);
}

TEST(StampedTable, TouchGrowsPastTheCurrentSize)
{
    StampedTable<int> t;
    EXPECT_EQ(t.size(), 0u);
    t.touch(10) = 1;
    EXPECT_EQ(t.size(), 11u);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_FALSE(t.contains(i)) << i;
    t.touch(1000) = 2;
    EXPECT_EQ(t.size(), 1001u);
    EXPECT_EQ(*t.find(10), 1); // growth keeps present entries
    EXPECT_EQ(*t.find(1000), 2);
    EXPECT_FALSE(t.contains(1001));
}

TEST(StampedTable, ResizedSlotsStartAbsent)
{
    StampedTable<int> t;
    t.resize(8);
    EXPECT_EQ(t.size(), 8u);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_FALSE(t.contains(i)) << i;
    t.touch(7) = 4;
    t.resize(16);
    EXPECT_EQ(*t.find(7), 4);
    EXPECT_FALSE(t.contains(8));
}

TEST(StampedTable, WraparoundFlushesEntriesFromBeforeTheWrap)
{
    // An 8-bit stamp wraps every 255 clears, so 600 clears cross two
    // wraps. An entry written in any generation must read as absent
    // in every later one, including the generations whose stamp value
    // comes round again.
    StampedTable<int, uint8_t> t;
    t.touch(0) = 1;
    for (int k = 1; k <= 600; ++k) {
        t.clear();
        ASSERT_FALSE(t.contains(0)) << "after clear " << k;
        ASSERT_FALSE(t.contains(1)) << "after clear " << k;
        ASSERT_EQ(t.find(2), nullptr) << "after clear " << k;
        // Write one entry in this generation; the next clear must
        // retire it.
        t.touch(k % 2 ? 1 : 2) = k;
        ASSERT_EQ(*t.find(k % 2 ? 1 : 2), k);
    }
    EXPECT_EQ(t.touch(0), 0); // value-initialized after the wraps
}

} // namespace
} // namespace chf
