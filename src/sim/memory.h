/**
 * @file
 * Flat word-addressed memory image with named global regions.
 *
 * Programs address memory in 64-bit words. Globals (scalars and arrays)
 * are laid out contiguously from address 0; a spill area for the register
 * allocator is reserved at the top of the image.
 */

#ifndef CHF_SIM_MEMORY_H
#define CHF_SIM_MEMORY_H

#include <cstdint>
#include <string>
#include <vector>

namespace chf {

/** A named global region within the memory image. */
struct GlobalRegion
{
    std::string name;
    int64_t base = 0;   ///< word address of first element
    int64_t size = 0;   ///< number of words
};

/** Word-addressed memory with named globals. */
class MemoryImage
{
  public:
    /** Allocate a named region of @p size words; returns base address. */
    int64_t allocate(const std::string &name, int64_t size);

    /** Region descriptor by name; fatal if absent. */
    const GlobalRegion &region(const std::string &name) const;

    /** True if a region with this name exists. */
    bool hasRegion(const std::string &name) const;

    /** All regions, in allocation order. */
    const std::vector<GlobalRegion> &regions() const { return globals; }

    /**
     * The word at @p addr. Reads never grow the image, and a read
     * outside it returns zero: speculatively issued (unpredicated)
     * loads may compute wild addresses from stale operands, and their
     * results are only observed by correctly guarded consumers.
     */
    int64_t
    read(int64_t addr) const
    {
        if (addr < 0 || addr >= static_cast<int64_t>(data.size()))
            return 0;
        return data[addr];
    }

    /**
     * Store @p value at @p addr, growing the image to it; fatal at a
     * negative address or at one beyond the image cap.
     */
    void
    write(int64_t addr, int64_t value)
    {
        if (addr >= 0 && addr < kWriteCap &&
            addr < static_cast<int64_t>(data.size())) {
            data[addr] = value;
            return;
        }
        writeGrowing(addr, value);
    }

    /** Raw words (sized to the high-water mark of writes/allocations). */
    const std::vector<int64_t> &words() const { return data; }

    /** FNV-1a hash of all allocated words; used to compare end states. */
    uint64_t hash() const;

    /**
     * FNV-1a hash of the program-visible globals only: every word
     * below the register allocator's "spill" region (all words when no
     * spill region exists). Residual spill-slot values are a backend
     * artifact, so this — not hash() — is the hash to compare between
     * a compiled program and an unoptimized oracle, which never
     * spills.
     */
    uint64_t userHash() const;

  private:
    /** Writes at or beyond this word address are fatal. */
    static constexpr int64_t kWriteCap = int64_t(1) << 26;

    void writeGrowing(int64_t addr, int64_t value);
    void ensure(int64_t addr) const;

    std::vector<GlobalRegion> globals;
    int64_t nextFree = 0;
    mutable std::vector<int64_t> data;
};

} // namespace chf

#endif // CHF_SIM_MEMORY_H
