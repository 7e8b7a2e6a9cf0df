/**
 * @file
 * Per-simulation ambient state: the sim::Context.
 *
 * Everything pm_panic()/pm_assert() needs beyond its format string —
 * the tick supplier that prefixes the message, the forensic dump hooks
 * that snapshot the machine, the inform() gate — used to live in
 * process-global mutable state inside sim/logging.cc. That made a
 * simulation a property of the *process*: two Systems in one process
 * shared (and corrupted) each other's panic forensics, and running
 * sweeps of independent Systems on a thread pool was unsound by
 * construction.
 *
 * A Context scopes all of that to one owner:
 *
 *  - Each thread has a private default Context (the only thread-local
 *    state in the simulator; see context.cc), so unrelated threads are
 *    isolated without any setup.
 *  - Each msg::System owns its own Context and registers its health
 *    monitor there; simulation entry points (the msg probes, the
 *    collectives, earth::Runtime::run) bind it with Context::Scope so
 *    a panic mid-run resolves the *owning* System's tick and dump
 *    hooks, never a bystander's.
 *  - A Context is single-writer: it asserts that every mutation comes
 *    from the thread that created it. The sweep harness (sim/sweep.hh)
 *    relies on this to run N Systems on N threads with zero sharing.
 *
 * PanicTrap converts panics on the calling thread into PanicError
 * exceptions (message + captured dump) instead of abort(); the sweep
 * harness wraps every point in one so a failing point reports its own
 * forensics while sibling points keep running.
 */

#ifndef PM_SIM_CONTEXT_HH
#define PM_SIM_CONTEXT_HH

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/types.hh"

namespace pm::sim {

/** Supplies the current simulated tick for panic-message prefixes. */
using PanicTickFn = Tick (*)(void *ctx);

/**
 * Emits a structured machine snapshot into `os` on panic. Hooks that
 * persist state elsewhere (e.g. the health monitor's --dump-file) do
 * so themselves; `os` is what reaches stderr or a PanicError.
 */
using PanicDumpFn = void (*)(void *ctx, std::ostream &os);

/**
 * What a trapped panic throws instead of aborting: the one-line panic
 * message (location, tick, formatted text) plus the full forensic
 * dump the registered hooks produced.
 */
class PanicError : public std::runtime_error
{
  public:
    PanicError(std::string message, std::string dump)
        : std::runtime_error(message), _dump(std::move(dump)) {}

    /** The forensic dump text ("" when no hooks were registered). */
    const std::string &dump() const { return _dump; }

  private:
    std::string _dump;
};

/** Per-simulation ambient state; see the file comment. */
class Context
{
  public:
    Context();
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /**
     * Register a panic context: `tick` supplies the tick printed in
     * panic prefixes (the newest registration wins), `dump` runs on
     * panic (newest first). Single-writer: owner thread only.
     */
    void pushPanicHook(PanicTickFn tick, PanicDumpFn dump, void *ctx);

    /** Unregister the newest hook registered with `ctx`. */
    void popPanicHook(void *ctx);

    /** Number of registered hooks (tests). */
    std::size_t panicHooks() const { return _hooks.size(); }

    /** The newest registered tick, or `fallback` when none. */
    Tick currentTick(Tick fallback) const;

    /** True when a tick supplier is registered. */
    bool tickKnown() const;

    /**
     * Run every dump hook, newest first, into `os`. Re-entrant calls
     * (a dump hook that itself panics while walking suspect state) are
     * swallowed: the inner panic must not re-run the hooks.
     */
    void runDumpHooks(std::ostream &os);

    /** inform() gate; a fresh System inherits its creator's setting. */
    bool informEnabled() const { return _inform; }
    void setInformEnabled(bool enabled);

    /**
     * The calling thread's active context: the innermost live Scope,
     * or the thread's private default Context when none is bound.
     */
    static Context &current();

    /**
     * RAII binding of a context as the calling thread's current().
     * Binding is legal from any thread (it swaps a thread-local
     * pointer and mutates nothing in the context itself), so a sweep
     * worker may bind the context of a System another thread built.
     * Mutations remain single-writer.
     */
    class Scope
    {
      public:
        explicit Scope(Context &ctx);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Context *_prev;
    };

  private:
    struct Hook
    {
        PanicTickFn tick;
        PanicDumpFn dump;
        void *ctx;
    };

    /** Panic on mutation from any thread but the creating one. */
    void assertOwner(const char *what) const;

    std::vector<Hook> _hooks;
    bool _inform = true;
    bool _dumping = false; //!< Recursive-panic guard (per context).
    std::thread::id _owner; //!< Creating thread; sole legal writer.
};

/**
 * While alive, panics on the constructing thread throw PanicError
 * instead of aborting. Nests. pm_fatal (user error) still exits.
 */
class PanicTrap
{
  public:
    PanicTrap();
    ~PanicTrap();

    PanicTrap(const PanicTrap &) = delete;
    PanicTrap &operator=(const PanicTrap &) = delete;

    /** True when any PanicTrap is live on the calling thread. */
    static bool active();
};

} // namespace pm::sim

#endif // PM_SIM_CONTEXT_HH
