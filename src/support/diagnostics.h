/**
 * @file
 * Structured diagnostics for the transactional pass pipeline.
 *
 * Recoverable failures (malformed user input, a transform that broke
 * the IR invariants and was rolled back) are described by a Diagnostic
 * and collected in a DiagnosticEngine instead of killing the process;
 * panic() remains reserved for true memory-safety invariants. Code
 * that detects a recoverable failure deep inside a phase throws
 * RecoverableError, which the enclosing PassGuard (or the API-boundary
 * catch in Session::frontend / parseFunctionIR) turns into a Diagnostic.
 *
 * The recovery contract is documented in DESIGN.md §7 and
 * docs/robustness.md.
 */

#ifndef CHF_SUPPORT_DIAGNOSTICS_H
#define CHF_SUPPORT_DIAGNOSTICS_H

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ir/value.h"
#include "support/fatal.h"

namespace chf {

/** How bad a diagnostic is. */
enum class Severity : uint8_t
{
    Note,    ///< context for a preceding diagnostic (e.g. "rolled back")
    Warning, ///< suspicious but compilation continued unchanged
    Error,   ///< a phase failed; its effects were rolled back
};

const char *severityName(Severity severity);

/** A source position (1-based; 0 means unknown). */
struct SourceLoc
{
    int line = 0;
    int column = 0;

    bool valid() const { return line > 0; }

    static SourceLoc at(int line, int column = 0) { return {line, column}; }
};

/** One structured diagnostic. */
struct Diagnostic
{
    Severity severity = Severity::Error;

    /** Pipeline phase that produced it ("lex", "formation", ...). */
    std::string phase;

    /** Function being compiled (empty if not applicable). */
    std::string function;

    /**
     * Index of the compilation unit inside a Session batch (-1 outside
     * a session). Primary merge key: diagnostics from parallel workers
     * are ordered by function index first, so the merged stream is
     * identical at any thread count.
     */
    int functionIndex = -1;

    /**
     * Emission order within one DiagnosticEngine, stamped by report().
     * Final tie-breaker of the stable sort key, so diagnostics that
     * compare equal on (function, phase, location) keep the order the
     * phase emitted them in (e.g. an error before its rollback note).
     */
    uint32_t sequence = 0;

    /** Block the problem was found in (kNoBlock if not applicable). */
    BlockId block = kNoBlock;

    /** Source location for user-input errors (invalid() otherwise). */
    SourceLoc loc;

    std::string message;

    /** "error: formation: fn 'main': bb3: message" (parts optional). */
    std::string toString() const;

    static Diagnostic
    error(std::string phase, std::string message)
    {
        Diagnostic d;
        d.phase = std::move(phase);
        d.message = std::move(message);
        return d;
    }

    static Diagnostic
    inputError(std::string phase, SourceLoc loc, std::string message)
    {
        Diagnostic d = error(std::move(phase), std::move(message));
        d.loc = loc;
        return d;
    }
};

/**
 * Strict weak ordering over the stable sort key
 * (functionIndex, phase, location, block, sequence). Sorting a merged
 * diagnostic stream with this comparator is reproducible regardless of
 * which thread produced which diagnostic first: every component is a
 * property of the diagnostic itself, never of scheduling.
 */
bool diagnosticOrder(const Diagnostic &a, const Diagnostic &b);

/**
 * Collects diagnostics for one compilation. Does not terminate the
 * process; callers decide what an error count means (a driver without
 * --keep-going typically exits non-zero at the end).
 */
class DiagnosticEngine
{
  public:
    void report(Diagnostic diag);

    /** Convenience: report an Error with phase + message. */
    void error(std::string phase, std::string message);

    /** Convenience: report a Note with phase + message. */
    void note(std::string phase, std::string message);

    const std::vector<Diagnostic> &diagnostics() const { return diags; }

    size_t count(Severity severity) const;
    size_t errorCount() const { return count(Severity::Error); }
    bool empty() const { return diags.empty(); }

    /** True if any diagnostic's phase equals @p phase. */
    bool hasPhase(const std::string &phase) const;

    /**
     * Append @p other's diagnostics, stamping @p function_index on each
     * (when >= 0) and re-sequencing them after the ones already here.
     * Used by Session to fold per-worker engines together in unit
     * order.
     */
    void append(const DiagnosticEngine &other, int function_index = -1);

    /** Stable-sort the stream by diagnosticOrder(). */
    void sortStable();

    void clear() { diags.clear(); }

    /** One diagnostic per line. */
    std::string toString() const;

    /** Print all diagnostics to @p out (e.g. stderr). */
    void print(std::FILE *out) const;

  private:
    std::vector<Diagnostic> diags;
};

/**
 * A failure the pipeline can survive: the thrower guarantees the
 * Function may be in an arbitrary (even verifier-invalid) state but no
 * memory safety was violated, so rolling back to a checkpoint fully
 * recovers. Caught by PassGuard::run and by the API-boundary handlers
 * in the front end.
 */
class RecoverableError : public std::exception
{
  public:
    explicit RecoverableError(Diagnostic diag)
        : diag_(std::move(diag)), text(diag_.toString())
    {
    }

    const Diagnostic &diagnostic() const { return diag_; }
    const char *what() const noexcept override { return text.c_str(); }

  private:
    Diagnostic diag_;
    std::string text;
};

/** Throw a RecoverableError for a user-input error with a location. */
[[noreturn]] void throwInputError(std::string phase, SourceLoc loc,
                                  std::string message);

} // namespace chf

#endif // CHF_SUPPORT_DIAGNOSTICS_H
