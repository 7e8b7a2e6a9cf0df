/**
 * @file
 * A parametric set-associative cache speaking MESI or MSI.
 *
 * Caches form private two-level hierarchies per processor (L1 -> L2);
 * the L2 talks to the node bus (BusTarget), which reaches every other
 * processor's L2 by snooping or through its directory. The code relies
 * on three invariants of a hierarchy (DESIGN.md §14):
 *
 *  - Two levels, one line size: the upper-level constructor rejects a
 *    lower level with other lines, with a level of its own below or
 *    with an upper level already, so a line address names the same
 *    line in both levels and an L2 has at most one L1.
 *  - Inclusion: a line the L2 does not hold is not in its L1. A snoop
 *    that misses the L2 ends there; one that hits it reaches the L1.
 *  - A Modified L1 line is Modified in its L2: every store that makes
 *    an L1 line Modified makes its L2 line Modified too. The L2 alone
 *    therefore answers snoops, and an evicted dirty L1 line needs no
 *    further bookkeeping below.
 *
 * The model tracks line *state*, not data contents: the quantities the
 * paper measures (hit rates, line-length effects, snoop serialization,
 * intervention transfers) are functions of state and timing only.
 *
 * The two protocols differ in one decision (DESIGN.md §14): MSI never
 * grants Exclusive, so a clean fill that no peer shares is granted E
 * under MESI and S under MSI. Every other decision (store hit, snoop
 * reaction) reads only the line's state, and an MSI line is never E.
 *
 * Residency is one packed valid bit per line, and nothing else: a
 * line slot ({tag, state}) is allocated uninitialized and read only
 * while its bit is set, and a set bit always goes with a valid MESI
 * state. Building the line storage therefore writes lines/64 words,
 * not every line, and invalidateAll() clears those words. Each set
 * owns a power-of-two run of slots (and bits), so a set's valid bits
 * are one shifted word and no lookup divides; this caps associativity
 * at 64.
 *
 * Replacement is true LRU: every fill and every hit writes a fresh
 * clock value into the slot's stamp, and a full set evicts its
 * smallest stamp. Stamps are uninitialized too, since a full set's
 * ways were all stamped by their fills. A direct-mapped cache (assoc
 * 1) has one possible victim per set and keeps no stamps.
 */

#ifndef PM_MEM_CACHE_HH
#define PM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/policy.hh"
#include "mem/req.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::mem {

/** Interface the last-level (per-CPU) cache uses to reach the node bus. */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** Perform a coherent bus transaction; see BusReq / BusResult. */
    virtual BusResult request(const BusReq &req, Tick now) = 0;
};

/** Outcome of a snoop delivered to a cache hierarchy. */
struct SnoopResult
{
    bool present = false; //!< The line remains (or was) valid here.
    bool dirtySupplied = false; //!< This hierarchy owned Modified data.
};

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineSize = 64;
    Cycles hitCycles = 1; //!< Lookup + hit-return latency, in clk cycles.
    double clockMhz = 180.0;
    CoherenceKind coherence = CoherenceKind::Mesi;
};

/**
 * One cache level. Construct with either a lower-level Cache (for L1)
 * or a BusTarget (for the last private level).
 */
class Cache
{
  public:
    /** Last-private-level constructor (talks to the bus). */
    Cache(const CacheParams &params, BusTarget *bus);

    /** Upper-level constructor (talks to a lower cache). */
    Cache(const CacheParams &params, Cache *below);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Configuration access. */
    const CacheParams &params() const { return _p; }
    std::uint32_t lineSize() const { return _p.lineSize; }
    std::uint32_t numSets() const { return _numSets; }

    /**
     * Perform a timed access.
     * @param req The processor request (any byte address).
     * @param now Time the request leaves the processor.
     * @return Completion time and the coherence state now held.
     */
    AccessResult access(const MemReq &req, Tick now);

    /**
     * Deliver a snoop from the bus (or from the cache below). A line
     * this level holds is snooped in the level above too; the answer
     * is this level's own, which covers the level above.
     * @param lineAddr Line-aligned address.
     * @param exclusive Requester wants exclusive ownership: invalidate.
     */
    SnoopResult snoop(Addr lineAddr, bool exclusive);

    /** Current state of the line containing `addr` (Invalid if absent). */
    MesiState lineState(Addr addr) const;

    /** Invalidate one line functionally (back-invalidation). */
    void invalidateLine(Addr lineAddr);

    /** Invalidate the entire cache (between experiment phases). */
    void invalidateAll();

    /** Statistics group for this cache. */
    sim::StatGroup &stats() { return _stats; }

    // Exposed counters (read by tests and benches).
    sim::Scalar hits{"hits", "demand hits"};
    sim::Scalar misses{"misses", "demand misses"};
    sim::Scalar evictions{"evictions", "victim lines replaced"};
    sim::Scalar writebacks{"writebacks", "dirty victims written back"};
    sim::Scalar upgrades{"upgrades", "S->M ownership upgrades"};
    sim::Scalar snoopInvalidations{"snoop_invalidations",
                                   "lines killed by remote stores"};
    sim::Scalar snoopDowngrades{"snoop_downgrades",
                                "M/E lines demoted to S by remote loads"};
    sim::Scalar interventions{"interventions",
                              "dirty lines supplied cache-to-cache"};

  private:
    /** A line slot; meaningful only while its valid bit is set. */
    struct Line
    {
        Addr tag;
        MesiState state;
    };

    CacheParams _p;
    sim::ClockDomain _clk;
    Tick _hitLatency;
    std::uint32_t _numSets;
    std::uint32_t _lineShift; // log2(lineSize): no divide per lookup
    std::uint32_t _wayShift; // a set owns 1 << _wayShift >= assoc slots
    std::uint64_t _wayMask; // one bit per way
    Cache *_below = nullptr;
    BusTarget *_bus = nullptr;
    Cache *_upper = nullptr;
    std::unique_ptr<Line[]> _lines; // slot (set << _wayShift) + way
    std::vector<std::uint64_t> _valid; // bit i: slot i holds a line
    std::unique_ptr<std::uint64_t[]> _stamps; // LRU; null if direct-mapped
    std::uint64_t _clock = 0; // last stamp written
    sim::StatGroup _stats;

    /** Geometry and storage shared by both public ctors. */
    explicit Cache(const CacheParams &params);

    void registerStats();

    Addr lineAlign(Addr a) const { return a & ~Addr(_p.lineSize - 1); }
    std::uint32_t setIndex(Addr lineAddr) const;

    /** Valid bits of `set`'s ways, way w in bit w. */
    std::uint64_t
    setBits(std::uint32_t set) const
    {
        const std::size_t first = std::size_t(set) << _wayShift;
        return (_valid[first / 64] >> (first % 64)) & _wayMask;
    }

    void
    setValid(std::size_t slot)
    {
        _valid[slot / 64] |= std::uint64_t(1) << (slot % 64);
    }

    /** Drop `line`: clear its slot's valid bit. */
    void clearValid(const Line *line);

    Line *findLine(Addr lineAddr);
    const Line *findLine(Addr lineAddr) const;

    /**
     * Way to fill for a miss in `set`: way 0 if direct-mapped, else
     * the lowest-index free way if the set has one, else the least
     * recently used way.
     */
    std::uint32_t victimWay(std::uint32_t set);

    /** Mark `line` most recently used (a fill or a demand hit). */
    void
    touch(const Line *line)
    {
        if (_stamps)
            _stamps[static_cast<std::size_t>(line - _lines.get())] =
                ++_clock;
    }

    /** State of a clean fill no peer shares: E, or S under MSI. */
    MesiState
    cleanGrant() const
    {
        return _p.coherence == CoherenceKind::Mesi ? MesiState::Exclusive
                                                   : MesiState::Shared;
    }

    /** Fetch a missing line; returns completion time and new state. */
    AccessResult fill(Addr lineAddr, bool exclusive, int srcCpu, Tick t);

    /** Obtain write permission for a line currently Shared here. */
    Tick upgradeLine(Addr lineAddr, int srcCpu, Tick t);

    /** Evict `line` (possibly dirty), leaving its slot free. */
    void evict(Line &line, int srcCpu, Tick t);
};

} // namespace pm::mem

#endif // PM_MEM_CACHE_HH
