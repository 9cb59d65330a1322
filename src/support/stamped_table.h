/**
 * @file
 * A dense table indexed by a small integer (usually a register) whose
 * reset costs O(1): the per-block walks of the optimizer, legality, the
 * back end and the analyses keep one across many blocks or trials and
 * clear it before each.
 *
 * Every entry carries the stamp of the generation that wrote it, and an
 * entry is present iff its stamp equals the current generation, so
 * clear() is one increment. When the stamp type wraps (2^32 clears for
 * the default), clear() flushes every stamp once, so an entry written
 * before the wrap never reads as present after it. Stamp 0 is never a
 * generation: it marks an entry absent in all of them.
 */

#ifndef CHF_SUPPORT_STAMPED_TABLE_H
#define CHF_SUPPORT_STAMPED_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chf {

template <typename T, typename Stamp = uint32_t>
class StampedTable
{
  public:
    /** Start a new generation: every entry reads as absent. */
    void
    clear()
    {
        if (++generation == 0) {
            for (Entry &e : entries)
                e.stamp = 0;
            generation = 1;
        }
    }

    bool
    contains(size_t i) const
    {
        return i < entries.size() && entries[i].stamp == generation;
    }

    /** Entry @p i if present in this generation, else null. */
    T *
    find(size_t i)
    {
        return contains(i) ? &entries[i].value : nullptr;
    }

    /**
     * Entry @p i, value-initialized on its first use in this
     * generation; grows the table to cover @p i. A reference it returns
     * lasts until the next touch() that grows the table.
     */
    T &
    touch(size_t i)
    {
        if (i >= entries.size())
            entries.resize(i + 1);
        Entry &e = entries[i];
        if (e.stamp != generation) {
            e.stamp = generation;
            e.value = T{};
        }
        return e.value;
    }

    /** Make entry @p i absent until its next touch(). */
    void
    erase(size_t i)
    {
        if (i < entries.size())
            entries[i].stamp = 0;
    }

    /**
     * Slots allocated, present or not. A fixed-capacity slot array
     * (an open-addressed hash table) sets it with resize(); new slots
     * are absent.
     */
    size_t size() const { return entries.size(); }

    void resize(size_t n) { entries.resize(n); }

  private:
    struct Entry
    {
        Stamp stamp = 0;
        T value{};
    };

    std::vector<Entry> entries;
    Stamp generation = 1;
};

} // namespace chf

#endif // CHF_SUPPORT_STAMPED_TABLE_H
