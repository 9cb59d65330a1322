#include "support/fault_inject.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/cancellation.h"
#include "support/diagnostics.h"

namespace chf {

namespace {

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
            spec.phase = value == "any" ? "" : value;
        } else if (key == "fn" || key == "occ") {
            char *end = nullptr;
            long n = std::strtol(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || n < 0) {
                *err = concat("bad fault unit '", value, "'");
                return false;
            }
            spec.unit = static_cast<int>(n);
        } else if (key == "kind") {
            if (value == "corrupt-ir") {
                spec.kind = FaultSpec::Kind::CorruptIr;
            } else if (value == "throw") {
                spec.kind = FaultSpec::Kind::Throw;
            } else if (value.rfind("stall:", 0) == 0) {
                char *end = nullptr;
                long ms = std::strtol(value.c_str() + 6, &end, 10);
                if (end == value.c_str() + 6 || *end != '\0' || ms < 0) {
                    *err = concat("bad stall duration in '", value,
                                  "' (want stall:<ms>)");
                    return false;
                }
                spec.kind = FaultSpec::Kind::Stall;
                spec.stallMs = static_cast<int>(ms);
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
    if (scope == nullptr || scope->spec == nullptr || scope->hasFired)
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
