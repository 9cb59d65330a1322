#include "support/cancellation.h"

#include <algorithm>

namespace chf {

const char *
cancelKindName(CancelKind kind)
{
    switch (kind) {
      case CancelKind::Cancelled: return "cancelled";
      case CancelKind::Timeout: return "timeout";
      case CancelKind::Deadline: return "deadline";
    }
    return "?";
}

namespace {

/**
 * The diagnostic a cancellation surfaces as. Fixed text per kind: the
 * poll that happened to observe the trip first (a phase boundary, a
 * merge round, the stall fault's sleep) must not leak into the
 * message, or cancelled units would produce schedule-dependent
 * diagnostic streams.
 */
Diagnostic
cancelDiagnostic(CancelKind kind)
{
    const char *message = "compilation cancelled";
    switch (kind) {
      case CancelKind::Cancelled:
        message = "compilation cancelled";
        break;
      case CancelKind::Timeout:
        message = "unit exceeded its time budget";
        break;
      case CancelKind::Deadline:
        message = "session deadline exceeded";
        break;
    }
    return Diagnostic::error(cancelKindName(kind), message);
}

thread_local CancellationToken current_token;

} // namespace

CancelledError::CancelledError(CancelKind kind)
    : RecoverableError(cancelDiagnostic(kind)), kind_(kind)
{
}

CancellationToken
CancellationToken::current()
{
    return current_token;
}

CancellationScope::CancellationScope(CancellationToken token)
    : previous(current_token)
{
    current_token = std::move(token);
}

CancellationScope::~CancellationScope()
{
    current_token = previous;
}

DeadlineWatchdog::DeadlineWatchdog() : thread([this] { loop(); }) {}

DeadlineWatchdog::~DeadlineWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    thread.join();
}

uint64_t
DeadlineWatchdog::watch(const CancellationSource &source,
                        Clock::time_point when, CancelKind kind)
{
    uint64_t id;
    {
        std::lock_guard<std::mutex> lock(mutex);
        id = nextId++;
        entries.push_back(Entry{id, when, kind, source.state});
    }
    wake.notify_all();
    return id;
}

void
DeadlineWatchdog::unwatch(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex);
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [id](const Entry &e) {
                                     return e.id == id;
                                 }),
                  entries.end());
}

size_t
DeadlineWatchdog::trippedCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return fired;
}

void
DeadlineWatchdog::loop()
{
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
        const Clock::time_point now = Clock::now();

        // Trip everything that is due, then find the next wake-up.
        bool have_next = false;
        Clock::time_point next{};
        for (size_t i = 0; i < entries.size();) {
            if (entries[i].when <= now) {
                entries[i].state->trip(entries[i].kind);
                ++fired;
                entries[i] = std::move(entries.back());
                entries.pop_back();
            } else {
                if (!have_next || entries[i].when < next) {
                    next = entries[i].when;
                    have_next = true;
                }
                ++i;
            }
        }

        if (have_next)
            wake.wait_until(lock, next);
        else
            wake.wait(lock);
    }
}

} // namespace chf
