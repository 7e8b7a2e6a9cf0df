/**
 * @file
 * Per-simulation ambient state: the sim::Context.
 *
 * Everything pm_panic()/pm_assert() needs beyond its format string —
 * the tick that prefixes the message, the forensic dump that
 * snapshots the machine, the inform() gate — used to live in
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
 *  - Each msg::System owns its own Context, which holds that System's
 *    health monitor; simulation entry points (System::drain, the msg
 *    probes, the collectives, earth::Runtime::run) bind it with
 *    Context::Scope so a panic mid-run resolves the *owning* System's
 *    tick and machine dump, never a bystander's.
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

#include <stdexcept>
#include <string>
#include <thread>

namespace pm::sim {

namespace health {
class Monitor;
}

/**
 * What a trapped panic throws instead of aborting: the one-line panic
 * message (location, tick, formatted text) plus the full forensic
 * dump the context's health monitor produced.
 */
class PanicError : public std::runtime_error
{
  public:
    PanicError(std::string message, std::string dump)
        : std::runtime_error(message), _dump(std::move(dump)) {}

    /** The forensic dump text ("" when the context has no monitor). */
    const std::string &dump() const { return _dump; }

  private:
    std::string _dump;
};

/** Per-simulation ambient state; see the file comment. */
class Context
{
  public:
    /**
     * @param monitor The owning System's health monitor, which stamps
     *        a panic with its tick and writes the machine dump; null
     *        (a thread's default context) for neither.
     */
    explicit Context(health::Monitor *monitor = nullptr);

    /**
     * Out of line, so not trivial: a thread's default Context then
     * registers its destructor when the thread first uses it, and that
     * registration's small allocation opens the thread's malloc arena.
     * Without it the sweep worker's arena lays out differently and
     * trims differently: a two-pass perfbench `node_kernels` run takes
     * six times the page faults (ROADMAP item 1, heap trimming).
     */
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    health::Monitor *monitor() const { return _monitor; }

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
    /** Panic on mutation from any thread but the creating one. */
    void assertOwner(const char *what) const;

    health::Monitor *_monitor;
    bool _inform = true;
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
