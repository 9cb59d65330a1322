#include "support/cancellation.h"

namespace chf {

namespace {

thread_local CancellationToken current_token;

} // namespace

// Fixed text: the poll that happened to observe the deadline first (a
// phase boundary, a merge round, the stall fault's sleep) must not leak
// into the message, or timed-out units would produce schedule-dependent
// diagnostic streams.
CancelledError::CancelledError()
    : RecoverableError(
          Diagnostic::error("timeout", "unit exceeded its time budget"))
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
    current_token = token;
}

CancellationScope::~CancellationScope()
{
    current_token = previous;
}

} // namespace chf
