/**
 * @file
 * Dense, resizable bit vector used by the dataflow analyses.
 *
 * std::vector<bool> lacks fast word-level set operations; liveness over
 * hundreds of virtual registers wants union/intersection on whole words.
 */

#ifndef CHF_SUPPORT_BITVECTOR_H
#define CHF_SUPPORT_BITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chf {

/** Fixed-universe dense bit set with word-parallel set algebra. */
class BitVector
{
  public:
    BitVector() = default;

    /** Create a vector of @p size bits, all clear. */
    explicit BitVector(size_t size);

    /** Number of bits in the universe. */
    size_t size() const { return numBits; }

    /** Grow (or shrink) the universe; new bits are clear. */
    void resize(size_t size);

    void set(size_t i);
    void clear(size_t i);
    bool test(size_t i) const;

    /** Clear every bit. */
    void reset();

    /** Number of set bits. */
    size_t count() const;

    /** True if no bit is set. */
    bool none() const;

    /** this |= other. @return true if this changed. */
    bool unionWith(const BitVector &other);

    /** this &= other. @return true if this changed. */
    bool intersectWith(const BitVector &other);

    /** this &= ~other. @return true if this changed. */
    bool subtract(const BitVector &other);

    bool operator==(const BitVector &other) const;
    bool operator!=(const BitVector &other) const
    {
        return !(*this == other);
    }

    /** Indices of all set bits, ascending. */
    std::vector<uint32_t> bits() const;

    /**
     * Invoke @p fn on each set bit index, ascending.
     */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (size_t w = 0; w < words.size(); ++w) {
            uint64_t word = words[w];
            while (word) {
                unsigned bit = __builtin_ctzll(word);
                fn(static_cast<uint32_t>(w * 64 + bit));
                word &= word - 1;
            }
        }
    }

  private:
    /** Zero any padding bits beyond numBits in the last word. */
    void clearPadding();

    size_t numBits = 0;
    std::vector<uint64_t> words;
};

} // namespace chf

#endif // CHF_SUPPORT_BITVECTOR_H
