#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/context.hh"
#include "sim/health.hh"

namespace pm {

namespace {

/**
 * Format the "panic: file:line: [tick N] message" header line. The
 * tick prefix resolves through the calling thread's current
 * sim::Context, so concurrent simulations each stamp their own time.
 */
std::string
formatHeader(const char *kind, const char *file, int line,
             const sim::Context &ctx)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: %s:%d: ", kind, file, line);
    std::string head(buf);
    if (const sim::health::Monitor *monitor = ctx.monitor()) {
        std::snprintf(buf, sizeof(buf), "[tick %llu] ",
                      (unsigned long long)monitor->now());
        head += buf;
    }
    return head;
}

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

/**
 * Terminal path shared by panicImpl and assertFailImpl: capture the
 * forensic dump from the current context's health monitor, then
 * either throw (PanicTrap active on this thread — the sweep harness
 * catches it and keeps sibling points running) or print everything
 * and abort.
 */
[[noreturn]] void
finishPanic(sim::Context &ctx, std::string message)
{
    std::ostringstream dump;
    if (sim::health::Monitor *monitor = ctx.monitor())
        monitor->panicDump(dump);
    if (sim::PanicTrap::active())
        throw sim::PanicError(std::move(message), dump.str());
    std::fputs(message.c_str(), stderr);
    std::fputc('\n', stderr);
    std::fputs(dump.str().c_str(), stderr);
    std::abort();
}

} // namespace

void
setInformEnabled(bool enabled)
{
    sim::Context::current().setInformEnabled(enabled);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    sim::Context &ctx = sim::Context::current();
    std::string msg = formatHeader("panic", file, line, ctx);
    va_list args;
    va_start(args, fmt);
    msg += vformat(fmt, args);
    va_end(args);
    finishPanic(ctx, std::move(msg));
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    const std::string head =
        formatHeader("fatal", file, line, sim::Context::current());
    std::fputs(head.c_str(), stderr);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
assertFailImpl(const char *file, int line, const char *cond,
               const char *fmt, ...)
{
    sim::Context &ctx = sim::Context::current();
    std::string msg = formatHeader("panic", file, line, ctx);
    msg += "assertion failed: ";
    msg += cond;
    if (fmt) {
        msg += ": ";
        va_list args;
        va_start(args, fmt);
        msg += vformat(fmt, args);
        va_end(args);
    }
    finishPanic(ctx, std::move(msg));
}

void
warnImpl(const char *fmt, ...)
{
    std::fprintf(stderr, "warn: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

void
informImpl(const char *fmt, ...)
{
    if (!sim::Context::current().informEnabled())
        return;
    std::fprintf(stderr, "info: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

} // namespace pm
