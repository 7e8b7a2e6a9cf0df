/**
 * @file
 * pmsim's flag parser and the communication-measurement job it builds.
 *
 * Every pmsim subcommand reads its argv the same way: tokenize()
 * splits it against the subcommand's known-key set, and Fields reads
 * the values strictly. An unknown flag or a malformed value is a
 * usage error on every subcommand, never a silent default.
 *
 * A JobSpec is everything one `pmsim comm` measurement needs, fully
 * resolved: machine, topology, fault model, health settings, the
 * operation, and an optional sweep axis. JobSpec::parse() returns
 * errors instead of exiting, and rejects every job the machine could
 * not build, so a sweep it accepts never dies part-way through.
 */

#ifndef PM_CLI_JOBSPEC_HH
#define PM_CLI_JOBSPEC_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mem/policy.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"

namespace pm::cli {

/** Flag values by key ("" for a bare `--flag`). */
using FlagMap = std::map<std::string, std::string>;

/**
 * Split argv-style tokens ("--key", "value", "--key=value", "--flag")
 * into `out`. Positional arguments and keys missing from `known` are
 * errors; on failure `err` holds a one-line diagnostic.
 */
[[nodiscard]] bool tokenize(const std::vector<std::string> &tokens,
                            const std::set<std::string> &known,
                            FlagMap &out, std::string &err);

/**
 * Strict typed lookups into a FlagMap. An absent key leaves `out`
 * untouched (the caller's default); a malformed value returns false
 * with `err` naming the flag.
 */
struct Fields
{
    const FlagMap &kv;
    std::string &err;

    bool has(const std::string &k) const { return kv.count(k) > 0; }

    std::string
    str(const std::string &k, const std::string &dflt) const
    {
        const auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    bool
    num(const std::string &k, unsigned &out) const
    {
        return get(k, out, sim::parse::u32, "an unsigned number");
    }

    bool
    u64(const std::string &k, std::uint64_t &out) const
    {
        return get(k, out, sim::parse::u64, "an unsigned number");
    }

    bool
    dbl(const std::string &k, double &out) const
    {
        return get(k, out, sim::parse::f64, "a number");
    }

    /** `--machine` (default powermanna), checked against Table 1. */
    bool machine(std::string &out) const;

  private:
    template <typename T>
    bool
    get(const std::string &k, T &out, bool (*parse)(const char *, T &),
        const char *what) const
    {
        const auto it = kv.find(k);
        if (it == kv.end() || parse(it->second.c_str(), out))
            return true;
        err = "--" + k + " expects " + what + ", got '" + it->second +
              "'";
        return false;
    }
};

/** One comm-measurement job; see the file comment. */
struct JobSpec
{
    std::string machine = "powermanna";
    unsigned clusters = 1;
    unsigned nodes = 8;
    unsigned uplinks = 4; //!< Applied only when clusters > 1.
    unsigned fifo = 32;

    // Memory-hierarchy policies (DESIGN.md §14).
    mem::CoherenceKind coherence = mem::CoherenceKind::Mesi;
    mem::TransportKind transport = mem::TransportKind::Snoop;
    unsigned nodeCpus = 0; //!< 0 = the machine's own processor count.

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

    /** Sweep axis; empty values = single-point job. */
    bool haveSweep = false;
    sim::parse::AxisSpec sweep;

    /** Sweep worker threads (pmsim --jobs; 0 = hw concurrency). */
    unsigned jobs = 1;

    /**
     * Parse `pmsim comm` tokens into `out`. Strict: unknown keys,
     * non-numeric values, topologies the fabric cannot build, messages
     * the driver cannot send, bad sweep specs and inconsistent flag
     * combinations are all errors, checked at every sweep point. Never
     * exits: on failure, `err` holds a one-line diagnostic and `out` is
     * unspecified.
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
     * Override one axis on this (sweep-less) spec. `axis` must be a
     * parse()-validated sweep axis name and `v` one of its values.
     */
    void applyAxisValue(const std::string &axis, double v);

    /** Row label for point `i`: "bytes=4096" ("" for non-sweeps). */
    std::string pointLabel(std::size_t i) const;
};

/**
 * Run one fully-resolved measurement point on a System of its own and
 * return the report text. Requires a parse()-validated, single-point
 * spec (numPoints() == 1). Thread-compatible with concurrent points
 * by construction: no shared mutable state, no stdout. Panics (a
 * watchdog deadline trip, any simulator invariant violation)
 * propagate to the caller — run it under a sim::PanicTrap (as
 * sim::sweep does) to turn them into structured errors.
 */
std::string runPoint(const JobSpec &spec);

} // namespace pm::cli

#endif // PM_CLI_JOBSPEC_HH
