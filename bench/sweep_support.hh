/**
 * @file
 * Shared plumbing for thread-parallel benches: every figure/ablation
 * bench runs its measurement points through pm::sim::sweep so that
 * `<bench> --jobs N` fans fully isolated Systems out over N worker
 * threads with byte-identical output to the sequential run.
 *
 * The benches format each point's output into a string (or collect
 * raw numbers) inside the point callable and print only after the
 * sweep joins — stdout stays strictly in work-list order no matter
 * which worker finished first.
 */

#ifndef PM_SWEEP_SUPPORT_HH
#define PM_SWEEP_SUPPORT_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/parse.hh"
#include "sim/sweep.hh"

namespace pm::benchsup {

/** Report a bad bench argument with the usage line and exit 2. */
[[noreturn]] inline void
usageError(const char *prog, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\nusage: %s [--jobs N]\n", prog,
                 why.c_str(), prog);
    // pmlint: abort-ok(usage error before any simulation exists)
    std::exit(2);
}

/**
 * Harness options for a bench: quiet workers and `--jobs N` /
 * `--jobs=N` from argv (default 1). Strict: any other argument, a
 * missing value, or a value that is not an unsigned number is a usage
 * error (exit 2), so a typo or a stale flag never silently runs the
 * default bench.
 */
inline sim::sweep::Options
options(int argc, char **argv, std::uint64_t seed = 0)
{
    sim::sweep::Options opt;
    opt.jobs = 1;
    opt.seed = seed;
    opt.inform = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--jobs" && i + 1 < argc)
            value = argv[++i];
        else if (arg.rfind("--jobs=", 0) == 0)
            value = arg.substr(7);
        else if (arg == "--jobs")
            usageError(argv[0], "--jobs expects a value");
        else
            usageError(argv[0], "unknown argument '" + arg + "'");
        if (!sim::parse::u32(value.c_str(), opt.jobs))
            usageError(argv[0], "--jobs expects an unsigned number, "
                                "got '" + value + "'");
    }
    return opt;
}

inline void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** printf-append into a std::string (points render off-thread). */
inline void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Print a string-row report in work-list order. If any point failed,
 * its row is withheld, the lowest-index failure (message + forensic
 * dump) goes to stderr, and the nonzero exit propagates the failure
 * to the caller/CI.
 */
inline int
emitRows(const sim::sweep::Report<std::string> &report)
{
    std::size_t nextFail = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        if (nextFail < report.failures.size() &&
            report.failures[nextFail].index == i) {
            ++nextFail;
            continue;
        }
        std::fputs(report.results[i].c_str(), stdout);
    }
    if (!report.ok()) {
        const auto &f = report.firstFailure();
        std::fprintf(stderr, "sweep point %zu failed:\n%s\n%s",
                     f.index, f.message.c_str(), f.dump.c_str());
        return 1;
    }
    return 0;
}

/**
 * For benches that post-process numeric results: bail out on the
 * first failure (stderr + nonzero) before the caller touches any
 * result slot.
 */
template <typename R>
inline int
checkFailures(const sim::sweep::Report<R> &report)
{
    if (report.ok())
        return 0;
    const auto &f = report.firstFailure();
    std::fprintf(stderr, "sweep point %zu failed:\n%s\n%s", f.index,
                 f.message.c_str(), f.dump.c_str());
    return 1;
}

} // namespace pm::benchsup

#endif // PM_SWEEP_SUPPORT_HH
