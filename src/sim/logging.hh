/**
 * @file
 * Error and status reporting, following the gem5 convention:
 *
 *  - panic():  an internal simulator bug — a condition that should never
 *              happen regardless of user input. Aborts.
 *  - fatal():  a user error (bad configuration, invalid argument) that
 *              the simulation cannot continue past. Exits with code 1.
 *  - warn():   something may be modelled imperfectly; keep running.
 *  - inform(): status output with no connotation of a problem.
 */

#ifndef PM_SIM_LOGGING_HH
#define PM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

#include "sim/types.hh"

namespace pm {

/** Print a formatted bug message with location and abort(). */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a formatted user-error message and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a formatted warning to stderr. */
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a formatted status message to stderr. */
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Print "assertion failed: <cond>", the optional formatted message,
 * and the location, then abort(). The default-argument/varargs combo
 * lets pm_assert() forward an empty __VA_ARGS__ while the printf
 * attribute still checks call sites that do pass a format string.
 */
[[noreturn]] void assertFailImpl(const char *file, int line,
                                 const char *cond,
                                 const char *fmt = nullptr, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Enable/disable inform() output on the calling thread's current
 * sim::Context (benches silence it; Systems built afterwards inherit
 * the setting).
 */
void setInformEnabled(bool enabled);

/*
 * Panic forensics — the tick prefix on every panic()/pm_assert failure
 * and the structured machine dump that follows it — come from the
 * health monitor of the calling thread's current sim::Context
 * (sim/context.hh); bind a simulation's context with Context::Scope.
 *
 * fatal() — a user error — prints the tick but writes no dump: a bad
 * command-line flag does not warrant a machine-state dump.
 */

#define pm_panic(...) ::pm::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define pm_fatal(...) ::pm::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define pm_warn(...) ::pm::warnImpl(__VA_ARGS__)
#define pm_inform(...) ::pm::informImpl(__VA_ARGS__)

/**
 * panic() unless the given invariant holds. An optional printf-style
 * message after the condition is printed alongside the stringified
 * condition: pm_assert(n < cap, "fifo %s overflow", name).
 */
#define pm_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond))                                                        \
            ::pm::assertFailImpl(__FILE__, __LINE__,                        \
                                 #cond __VA_OPT__(, ) __VA_ARGS__);         \
    } while (0)

} // namespace pm

#endif // PM_SIM_LOGGING_HH
