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

    // Inline: the dataflow solves and the per-block walks call these
    // per operand. The bounds check stays; its panic is out of line.
    void
    set(size_t i)
    {
        if (i >= numBits)
            outOfRange("set", i);
        words[i / 64] |= uint64_t(1) << (i % 64);
    }

    void
    clear(size_t i)
    {
        if (i >= numBits)
            outOfRange("clear", i);
        words[i / 64] &= ~(uint64_t(1) << (i % 64));
    }

    bool
    test(size_t i) const
    {
        if (i >= numBits)
            outOfRange("test", i);
        return (words[i / 64] >> (i % 64)) & 1;
    }

    /** Clear every bit. */
    void reset();

    /** Bits 64 @p w .. 64 @p w + 63 as one word. */
    uint64_t
    word(size_t w) const
    {
        if (w >= words.size())
            outOfRange("word", w * 64);
        return words[w];
    }

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
    /** Panic: bit @p i of this vector does not exist. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    outOfRange(const char *op, size_t i) const;

    /** Zero any padding bits beyond numBits in the last word. */
    void clearPadding();

    size_t numBits = 0;
    std::vector<uint64_t> words;
};

} // namespace chf

#endif // CHF_SUPPORT_BITVECTOR_H
