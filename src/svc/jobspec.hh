/**
 * @file
 * The simulation-job specification shared by pmsim and pmsimd.
 *
 * A JobSpec is everything one `pmsim comm`-style measurement needs,
 * fully resolved: machine, topology, fault model, health settings,
 * the operation, and an optional sweep axis. It exists so the same
 * flags mean the same job everywhere:
 *
 *  - pmsim parses its argv into a JobSpec (and keeps its exit-2
 *    usage-error behaviour on top of the error return);
 *  - pmsimd parses the argv array of a submitted JSON frame into a
 *    JobSpec and *rejects* a malformed job with a diagnostic frame —
 *    parse() returns errors, it never pm_fatals, because a bad job
 *    must never take the daemon down;
 *  - the content-addressed result cache keys on canonical() — the
 *    spec rendered into a fixed field order with every default made
 *    explicit — so `--bytes 8` and no flag at all hash identically,
 *    and byte-identical determinism (DESIGN.md §10/§11) makes a
 *    cached row indistinguishable from a fresh run.
 */

#ifndef PM_SVC_JOBSPEC_HH
#define PM_SVC_JOBSPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/policy.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"

namespace pm::svc {

/** FNV-1a 64-bit over `bytes` (the cache's content-address hash). */
inline std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One comm-measurement job; see the file comment. */
struct JobSpec
{
    std::string machine = "powermanna";
    unsigned clusters = 1;
    unsigned nodes = 8;
    unsigned uplinks = 4; //!< Applied only when clusters > 1.
    unsigned fifo = 32;

    // Memory-hierarchy policies (DESIGN.md §14). parse() resolves
    // nodeCpus to the machine's default processor count, so canonical()
    // always renders an explicit value and `--node-cpus 2` on
    // powermanna hashes identically to no flag at all.
    mem::CoherenceKind coherence = mem::CoherenceKind::Mesi;
    mem::ReplacementKind replacement = mem::ReplacementKind::Lru;
    mem::TransportKind transport = mem::TransportKind::Snoop;
    unsigned nodeCpus = 0; //!< Resolved by parse(); never 0 after it.

    double ber = 0.0;
    double drop = 0.0;
    std::uint64_t faultSeed = 1;
    bool haveLinkDown = false;
    sim::FaultWindow linkDown{};

    bool watchdog = false;
    double watchdogUs = 0.0;
    double watchdogDeadlineUs = 0.0;
    std::string dumpFile;

    unsigned src = 0;
    unsigned dst = 1;
    unsigned bytes = 8;
    unsigned count = 32;
    std::string op = "latency";
    std::uint64_t soakSeed = 12345;
    bool stats = false;

    /**
     * Strict mode: a soak whose reliable-delivery contract fails
     * (corruption, exhausted retry budget, undelivered messages)
     * pm_panics with the machine's forensic dump instead of printing
     * a row that merely mentions the failure. This is how a
     * fault-injection config becomes a deterministic *panicking job*
     * for the service's isolation guarantees.
     */
    bool strict = false;

    /** Sweep axis; empty values = single-point job. */
    bool haveSweep = false;
    sim::parse::AxisSpec sweep;

    /** Sweep worker threads (pmsim --jobs; 0 = hw concurrency). */
    unsigned jobs = 1;

    /**
     * Parse argv-style tokens ("--key", "value", "--key=value",
     * "--flag") into `out`. Strict: unknown keys, non-numeric values,
     * out-of-range topology, bad sweep specs, and inconsistent flag
     * combinations are all errors. Never exits: on failure, `err`
     * holds a one-line diagnostic and `out` is unspecified.
     *
     * `--deadline-us D` folds into the watchdog configuration (scan
     * interval D/8, stall deadline D) so a service-imposed deadline
     * and a user-requested watchdog are one mechanism.
     */
    [[nodiscard]] static bool parse(const std::vector<std::string> &tokens,
                                    JobSpec &out, std::string &err);

    /** Points this job expands to (>= 1; 1 when not sweeping). */
    std::size_t
    numPoints() const
    {
        return haveSweep ? sweep.values.size() : 1;
    }

    /**
     * The fully-resolved single-point spec of point `i`: the sweep
     * axis applied and the sweep cleared. Identity for non-sweeps.
     */
    JobSpec pointSpec(std::size_t i) const;

    /**
     * Override one axis on this (sweep-less) spec. `axis` must be a
     * parse()-validated sweep axis name. Lets a caller expanding a
     * large sweep keep one sweep-less base copy instead of paying
     * pointSpec()'s copy of the whole value list per point.
     */
    void applyAxisValue(const std::string &axis, double v);

    /** Row label for point `i`: "bytes=4096" ("" for non-sweeps). */
    std::string pointLabel(std::size_t i) const;

    /**
     * Canonical form: every semantic field in a fixed order with
     * defaults resolved. Excludes presentation/scheduling fields
     * (dumpFile, jobs) and the sweep (hash points, not jobs). Only
     * valid on single-point specs (pointSpec output).
     */
    std::string canonical() const;

    /** Content-address of this (single-point) spec. */
    std::uint64_t
    cacheKey() const
    {
        return fnv1a64(canonical());
    }
};

/**
 * Run one fully-resolved measurement point on a System of its own and
 * return the report text. Requires a parse()-validated, single-point
 * spec (numPoints() == 1). Thread-compatible with concurrent points
 * by construction: no shared mutable state, no stdout. Panics (a
 * watchdog deadline trip, a strict-mode delivery failure, any
 * simulator invariant violation) propagate to the caller — run it
 * under a sim::PanicTrap to turn them into structured errors.
 */
std::string runPoint(const JobSpec &spec);

} // namespace pm::svc

#endif // PM_SVC_JOBSPEC_HH
