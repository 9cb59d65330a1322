#include "target/target_model.h"

#include "support/fatal.h"

namespace chf {

std::string
TargetModel::validate() const
{
    if (maxInsts == 0)
        return "maxInsts must be positive";
    if (numRegBanks == 0)
        return "numRegBanks must be positive";
    if (numRegBanks > kMaxBanks) {
        return concat(numRegBanks, " register banks exceed the ",
                      kMaxBanks, "-bank model limit");
    }
    if (maxReadsPerBank == 0 || maxWritesPerBank == 0)
        return "per-bank read/write limits must be positive";
    if (maxMemOps == 0)
        return "maxMemOps must be positive";
    if (spillHeadroom >= maxInsts) {
        return concat("spill headroom ", spillHeadroom,
                      " leaves no room in ", maxInsts,
                      "-instruction blocks");
    }
    if (numPhysRegs == 0)
        return "numPhysRegs must be positive";
    return "";
}

namespace {

std::vector<TargetModel>
buildRegistry()
{
    std::vector<TargetModel> models;

    // The reference model: a default TargetModel IS trips.
    TargetModel trips;
    trips.name = "trips";
    models.push_back(trips);

    // A scaled-up format: twice the block budget, twice the banks and
    // register file, an LSQ to match. Formation merges further before
    // the size check fires, so the policy × code-growth tradeoff moves.
    TargetModel wide;
    wide.name = "trips-wide";
    wide.maxInsts = 256;
    wide.maxMemOps = 64;
    wide.numRegBanks = 8;
    wide.numPhysRegs = 256;
    wide.spillHeadroom = 8;
    models.push_back(wide);

    // A constrained embedded-style format: quarter-size blocks, two
    // narrow banks, half the register file, a shallow LSQ, and an
    // explicit branch cap. Duplication-heavy policies pay for code
    // growth almost immediately here.
    TargetModel small;
    small.name = "small-block";
    small.maxInsts = 32;
    small.maxMemOps = 8;
    small.numRegBanks = 2;
    small.maxReadsPerBank = 6;
    small.maxWritesPerBank = 6;
    small.maxBranches = 4;
    small.numPhysRegs = 64;
    small.spillHeadroom = 2;
    models.push_back(small);

    // TRIPS block format with a deepened memory pipeline: the LSQ no
    // longer caps blocks at 32 memory ops, so memory-dense kernels can
    // fill blocks the reference model rejects.
    TargetModel deep;
    deep.name = "deep-lsq";
    deep.maxMemOps = 64;
    models.push_back(deep);

    for (const TargetModel &m : models) {
        CHF_ASSERT(m.validate().empty(),
                   "registry target models must validate");
    }
    return models;
}

} // namespace

const std::vector<TargetModel> &
targetRegistry()
{
    static const std::vector<TargetModel> models = buildRegistry();
    return models;
}

const TargetModel *
findTarget(const std::string &name)
{
    for (const TargetModel &m : targetRegistry())
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
targetNamesJoined()
{
    std::string out;
    for (const TargetModel &m : targetRegistry()) {
        if (!out.empty())
            out += ", ";
        out += m.name;
    }
    return out;
}

} // namespace chf
