#include "support/fault_inject.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "support/cancellation.h"
#include "support/diagnostics.h"
#include "support/fatal.h"
#include "support/parse_int.h"

namespace chf {

namespace {

/** The phase names runPhase call sites pass (the fault hook asserts
 *  that each name it sees is listed). */
constexpr const char *kFaultPhases[] = {
    "unroll",   "peel",   "formation", "formation-seed",
    "regalloc", "fanout", "schedule",
};

bool
isFaultPhase(const char *phase)
{
    for (const char *name : kFaultPhases)
        if (std::strcmp(name, phase) == 0)
            return true;
    return false;
}

/** Split "key:value" out of one comma-separated field. */
bool
splitField(const std::string &field, std::string *key, std::string *value)
{
    size_t colon = field.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= field.size()) {
        return false;
    }
    *key = field.substr(0, colon);
    *value = field.substr(colon + 1);
    return true;
}

} // namespace

bool
parseFaultSpec(const std::string &text, FaultSpec *out, std::string *err)
{
    FaultSpec spec;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        std::string field =
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (field.empty())
            continue;

        std::string key, value;
        if (!splitField(field, &key, &value)) {
            *err = concat("malformed fault field '", field,
                          "' (want key:value)");
            return false;
        }
        if (key == "phase") {
            if (value != "any" && !isFaultPhase(value.c_str())) {
                std::string known;
                for (const char *name : kFaultPhases)
                    known += concat(name, ", ");
                *err = concat("unknown fault phase '", value, "' (want ",
                              known, "or any)");
                return false;
            }
            spec.phase = value == "any" ? "" : value;
        } else if (key == "fn") {
            if (!parseAtLeast(value, 0, &spec.unit)) {
                *err = concat("bad fault unit '", value, "'");
                return false;
            }
        } else if (key == "kind") {
            if (value == "corrupt-ir") {
                spec.kind = FaultSpec::Kind::CorruptIr;
            } else if (value == "throw") {
                spec.kind = FaultSpec::Kind::Throw;
            } else if (value.rfind("stall:", 0) == 0) {
                if (!parseAtLeast(std::string_view(value).substr(6), 0,
                                  &spec.stallMs)) {
                    *err = concat("bad stall duration in '", value,
                                  "' (want stall:<ms>)");
                    return false;
                }
                spec.kind = FaultSpec::Kind::Stall;
            } else {
                *err = concat("unknown fault kind '", value,
                              "' (want corrupt-ir, throw or stall:<ms>)");
                return false;
            }
        } else {
            *err = concat("unknown fault field '", key, "'");
            return false;
        }
    }
    *out = spec;
    return true;
}

namespace {

/** Innermost FaultScope of this thread (null outside any). */
thread_local FaultScope *current_scope = nullptr;

} // namespace

FaultScope::FaultScope(const FaultSpec *armed, int unit_index)
    : spec(armed), unit(unit_index), previous(current_scope)
{
    current_scope = this;
}

FaultScope::~FaultScope()
{
    current_scope = previous;
}

void
faultInjectionPoint(const char *phase, Function &fn)
{
    FaultScope *scope = current_scope;
    if (scope == nullptr || scope->spec == nullptr)
        return;
    CHF_ASSERT(isFaultPhase(phase), "phase '", phase,
               "' is missing from the fault-spec phase list");
    if (scope->hasFired)
        return;
    const FaultSpec &spec = *scope->spec;
    if (scope->unit != spec.unit)
        return;
    if (!spec.phase.empty() && spec.phase != phase)
        return;
    scope->hasFired = true;

    if (spec.kind == FaultSpec::Kind::Throw) {
        Diagnostic d = Diagnostic::error(
            phase, concat("injected fault (throw) at ", phase, "#", spec.unit));
        d.function = fn.name();
        throw RecoverableError(std::move(d));
    }

    if (spec.kind == FaultSpec::Kind::Stall) {
        // Sleep the budget in small slices, polling the unit's deadline:
        // with a time budget the stall aborts within one slice of it;
        // without one it just sleeps the full budget and the phase
        // continues normally.
        const CancellationToken token = CancellationToken::current();
        const auto end = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(spec.stallMs);
        while (std::chrono::steady_clock::now() < end) {
            token.throwIfCancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token.throwIfCancelled();
        return;
    }

    // corrupt-ir: empty out the last live block. An empty block is a
    // corruption every internal consumer tolerates structurally (no
    // out-of-range ids are introduced) but the verifier always flags,
    // so the enclosing guard must detect it and roll back.
    std::vector<BlockId> ids = fn.blockIds();
    if (ids.empty())
        return;
    fn.block(ids.back())->insts.clear();
}

} // namespace chf
