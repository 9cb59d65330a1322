#include "sim/memory.h"

#include <algorithm>

#include "support/fatal.h"

namespace chf {

int64_t
MemoryImage::allocate(const std::string &name, int64_t size)
{
    CHF_ASSERT(size >= 0, "negative region size");
    for (const auto &g : globals) {
        if (g.name == name)
            fatal(concat("duplicate global region: ", name));
    }
    GlobalRegion region;
    region.name = name;
    region.base = nextFree;
    region.size = size;
    globals.push_back(region);
    nextFree += size;
    ensure(nextFree);
    return region.base;
}

const GlobalRegion &
MemoryImage::region(const std::string &name) const
{
    for (const auto &g : globals) {
        if (g.name == name)
            return g;
    }
    fatal(concat("unknown global region: ", name));
}

bool
MemoryImage::hasRegion(const std::string &name) const
{
    for (const auto &g : globals) {
        if (g.name == name)
            return true;
    }
    return false;
}

void
MemoryImage::writeGrowing(int64_t addr, int64_t value)
{
    if (addr < 0)
        fatal(concat("memory write at negative address ", addr));
    if (addr >= kWriteCap)
        fatal(concat("memory write beyond image cap at ", addr));
    ensure(addr + 1);
    data[addr] = value;
}

uint64_t
MemoryImage::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int64_t w : data) {
        h ^= static_cast<uint64_t>(w);
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
MemoryImage::userHash() const
{
    int64_t end = static_cast<int64_t>(data.size());
    if (hasRegion("spill"))
        end = std::min(end, region("spill").base);
    uint64_t h = 0xcbf29ce484222325ull;
    for (int64_t i = 0; i < end; ++i) {
        h ^= static_cast<uint64_t>(data[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
MemoryImage::ensure(int64_t addr) const
{
    if (addr > static_cast<int64_t>(data.size()))
        data.resize(addr, 0);
}

} // namespace chf
