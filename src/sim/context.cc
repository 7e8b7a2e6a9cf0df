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

Context::Context(health::Monitor *monitor)
    : _monitor(monitor),
      _owner(std::this_thread::get_id())
{
}

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
    // machine dump. All context *mutations* (the inform gate) stay
    // owner-asserted.
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
