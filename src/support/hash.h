/**
 * @file
 * Streaming 64-bit FNV-1a hasher for content digests and cache keys.
 *
 * Its output is pinned: the per-unit asm digests
 * (tests/backend/asm_digests.inc), the generator's golden hashes and
 * perfbench's asm digests are all Hash64 values. The compile server
 * keys its response cache with it. The trial-merge memo keys with its
 * own word-at-a-time hash, which costs a trial several times less
 * (hyperblock/merge.cpp, DESIGN.md section 10). FNV-1a is not
 * collision-free.
 */

#ifndef CHF_SUPPORT_HASH_H
#define CHF_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace chf {

/** Incremental FNV-1a over a stream of typed fields. */
class Hash64
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 1099511628211ull;
        }
    }

    void
    u8(uint8_t v)
    {
        bytes(&v, sizeof(v));
    }

    void
    u32(uint32_t v)
    {
        bytes(&v, sizeof(v));
    }

    void
    u64(uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    /** Hash the exact bit pattern (distinguishes -0.0, NaN payloads). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    uint64_t digest() const { return state; }

  private:
    uint64_t state = 14695981039346656037ull; // FNV offset basis
};

} // namespace chf

#endif // CHF_SUPPORT_HASH_H
