#include "support/bitvector.h"

#include "support/fatal.h"

namespace chf {

BitVector::BitVector(size_t size)
    : numBits(size), words((size + 63) / 64, 0)
{
}

void
BitVector::resize(size_t size)
{
    numBits = size;
    words.resize((size + 63) / 64, 0);
    clearPadding();
}

void
BitVector::outOfRange(const char *op, size_t i) const
{
    panic(concat("BitVector::", op, " out of range: bit ", i, " of ",
                 numBits));
}

void
BitVector::reset()
{
    for (auto &w : words)
        w = 0;
}

size_t
BitVector::count() const
{
    size_t n = 0;
    for (auto w : words)
        n += __builtin_popcountll(w);
    return n;
}

bool
BitVector::none() const
{
    for (auto w : words) {
        if (w)
            return false;
    }
    return true;
}

bool
BitVector::unionWith(const BitVector &other)
{
    CHF_ASSERT(numBits == other.numBits, "BitVector size mismatch");
    bool changed = false;
    for (size_t i = 0; i < words.size(); ++i) {
        uint64_t next = words[i] | other.words[i];
        changed |= next != words[i];
        words[i] = next;
    }
    return changed;
}

bool
BitVector::intersectWith(const BitVector &other)
{
    CHF_ASSERT(numBits == other.numBits, "BitVector size mismatch");
    bool changed = false;
    for (size_t i = 0; i < words.size(); ++i) {
        uint64_t next = words[i] & other.words[i];
        changed |= next != words[i];
        words[i] = next;
    }
    return changed;
}

bool
BitVector::subtract(const BitVector &other)
{
    CHF_ASSERT(numBits == other.numBits, "BitVector size mismatch");
    bool changed = false;
    for (size_t i = 0; i < words.size(); ++i) {
        uint64_t next = words[i] & ~other.words[i];
        changed |= next != words[i];
        words[i] = next;
    }
    return changed;
}

bool
BitVector::operator==(const BitVector &other) const
{
    return numBits == other.numBits && words == other.words;
}

std::vector<uint32_t>
BitVector::bits() const
{
    std::vector<uint32_t> out;
    forEach([&](uint32_t i) { out.push_back(i); });
    return out;
}

void
BitVector::clearPadding()
{
    size_t rem = numBits % 64;
    if (rem != 0 && !words.empty())
        words.back() &= (uint64_t(1) << rem) - 1;
}

} // namespace chf
