/**
 * @file
 * Wall-clock pass timing.
 *
 * A Timer is a steady-clock stopwatch; a ScopedStatTimer accumulates
 * the elapsed microseconds of a scope into a named StatSet counter (the
 * "usXxx" counters reported alongside the m/t/u/p statistics), so
 * compile-time trends ride the same reporting path as transform
 * activity.
 */

#ifndef CHF_SUPPORT_TIMER_H
#define CHF_SUPPORT_TIMER_H

#include <chrono>
#include <string>

#include "support/stats.h"

namespace chf {

/** Steady-clock stopwatch started at construction. */
class Timer
{
  public:
    Timer() : start(Clock::now()) {}

    void reset() { start = Clock::now(); }

    int64_t
    elapsedMicros() const
    {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - start)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

/**
 * Adds the microseconds a scope took to @p stats under @p name on
 * destruction. Repeated scopes with the same name accumulate.
 */
class ScopedStatTimer
{
  public:
    ScopedStatTimer(StatSet &stats, std::string name);
    ~ScopedStatTimer();

    ScopedStatTimer(const ScopedStatTimer &) = delete;
    ScopedStatTimer &operator=(const ScopedStatTimer &) = delete;

  private:
    StatSet &stats;
    std::string name;
    Timer timer;
};

} // namespace chf

#endif // CHF_SUPPORT_TIMER_H
