#include "sim/context.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace pm::sim {

namespace {

/**
 * The only thread-local state in the simulator: which Context the
 * calling thread is currently simulating under, and whether panics on
 * this thread are trapped. Everything else ambient lives inside a
 * Context instance. These are per-thread by construction, so the
 * no-static-mutable rule's hazard (cross-simulation sharing) cannot
 * arise; annotated rather than exempted so the reasons stay in view.
 */
// pmlint: static-ok(per-thread current-context binding, no cross-thread sharing)
thread_local Context *tlsCurrent = nullptr;
// pmlint: static-ok(per-thread panic-trap nesting depth)
thread_local unsigned tlsTrapDepth = 0;

} // namespace

Context::Context() : _owner(std::this_thread::get_id()) {}

Context::~Context() = default;

void
Context::assertOwner(const char *what) const
{
    if (std::this_thread::get_id() != _owner) {
        // Cannot pm_panic here: panic resolution itself reads the
        // current context, and the whole point is that this context
        // belongs to another thread. Print and die directly.
        std::fprintf(stderr,
                     "panic: sim::Context is single-writer: %s from a "
                     "thread that does not own the context\n",
                     what);
        // pmlint: abort-ok(cross-thread misuse; no context to dump from)
        std::abort();
    }
}

void
Context::pushPanicHook(PanicTickFn tick, PanicDumpFn dump, void *ctx)
{
    assertOwner("pushPanicHook");
    _hooks.push_back(Hook{tick, dump, ctx});
}

void
Context::popPanicHook(void *ctx)
{
    assertOwner("popPanicHook");
    for (auto it = _hooks.rbegin(); it != _hooks.rend(); ++it) {
        if (it->ctx == ctx) {
            _hooks.erase(std::next(it).base());
            return;
        }
    }
}

Tick
Context::currentTick(Tick fallback) const
{
    for (auto it = _hooks.rbegin(); it != _hooks.rend(); ++it)
        if (it->tick)
            return it->tick(it->ctx);
    return fallback;
}

bool
Context::tickKnown() const
{
    for (const Hook &h : _hooks)
        if (h.tick)
            return true;
    return false;
}

void
Context::runDumpHooks(std::ostream &os)
{
    if (_dumping)
        return;
    _dumping = true;
    // Snapshot: a hook that panics under a PanicTrap unwinds through
    // this loop; the flag must reset so the context stays usable for
    // the thread's next (independent) simulation point.
    for (auto it = _hooks.rbegin(); it != _hooks.rend(); ++it) {
        if (!it->dump)
            continue;
        try {
            it->dump(it->ctx, os);
        } catch (...) {
            // The machine state a dump hook walks is, by definition,
            // suspect; a hook that dies must not mask the original
            // panic nor stop later hooks.
        }
    }
    _dumping = false;
}

void
Context::setInformEnabled(bool enabled)
{
    assertOwner("setInformEnabled");
    _inform = enabled;
}

Context &
Context::current()
{
    if (tlsCurrent)
        return *tlsCurrent;
    // pmlint: static-ok(per-thread default context; the isolation boundary itself)
    thread_local Context defaultContext;
    return defaultContext;
}

Context::Scope::Scope(Context &ctx) : _prev(tlsCurrent)
{
    // Binding is deliberately NOT owner-asserted: it only swaps this
    // thread's current() pointer, mutating nothing inside the context,
    // so any thread driving a System (a sweep worker, say) can bind
    // its context and have a panic resolve that System's tick and
    // forensic hooks. All context *mutations* (hooks, inform gate)
    // stay owner-asserted.
    tlsCurrent = &ctx;
}

Context::Scope::~Scope()
{
    tlsCurrent = _prev;
}

PanicTrap::PanicTrap()
{
    ++tlsTrapDepth;
}

PanicTrap::~PanicTrap()
{
    --tlsTrapDepth;
}

bool
PanicTrap::active()
{
    return tlsTrapDepth > 0;
}

} // namespace pm::sim
