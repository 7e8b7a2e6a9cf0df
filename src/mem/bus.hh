/**
 * @file
 * The node-level interconnect: coherence transport, data paths, DRAM.
 *
 * This one model covers all three machines in the paper's Table 1 by
 * parameterization:
 *
 *  - PowerMANNA: split transactions + point-to-point data paths. The
 *    ADSP multi-master bus switch provides independent port-to-port
 *    data connections, and the central dispatcher lets address and data
 *    phases of different masters overlap (MPC620 split/pipelined/tagged
 *    out-of-order bus). What still serializes — on every machine — is
 *    the snooped *address phase*: the paper identifies exactly this as
 *    the factor that would limit nodes beyond ~4 processors.
 *  - SUN ULTRA-I: split address phase, but one shared data bus.
 *  - Pentium II PC: non-split bus; a master holds the bus from address
 *    phase through data completion (circuit-switched), so a second
 *    processor's transaction waits out the whole service time.
 *
 * How a transaction finds the peer copies is BusParams::transport
 * (DESIGN.md §14): the broadcast snoop phase above, or a sparse
 * directory whose banked lookups replace the serialized broadcast with
 * targeted invalidations to the tracked sharers.
 *
 * Each transaction is applied functionally first, then timed, matching
 * the cache model: probe() snoops the peers (or the tracked sharers)
 * and updates the sharer map; on a split-transaction bus, resolve()
 * then charges the address phase (or one directory bank) and returns
 * the tick at which ownership is settled.
 */

#ifndef PM_MEM_BUS_HH
#define PM_MEM_BUS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/policy.hh"
#include "mem/req.hh"
#include "mem/resource.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace pm::mem {

/** Static configuration of a node bus / bus switch. */
struct BusParams
{
    std::string name = "bus";
    double clockMhz = 60.0; //!< Board/bus clock.
    Cycles addrCycles = 2; //!< Serialized address/snoop-phase occupancy.
    Cycles snoopCycles = 2; //!< Address-phase end to snoop response.
    std::uint32_t dataWidthBytes = 16; //!< Data path width (128-bit PM).
    std::uint32_t lineBytes = 64; //!< Coherence/transfer granule.
    bool splitTransactions = true; //!< Address phase releases early.
    bool pointToPointData = true; //!< ADSP switch vs one shared data bus.
    Cycles c2cExtraCycles = 2; //!< Intervention (cache-to-cache) overhead.
    TransportKind transport = TransportKind::Snoop;
    Cycles dirLookupCycles = 2; //!< One banked directory lookup.
    unsigned dirBanks = 4; //!< Directory interleave factor.
};

/** Static configuration of the node memory. */
struct DramParams
{
    std::string name = "dram";
    unsigned banks = 4; //!< Interleaved banks.
    Tick latency = 60 * kTicksPerNs; //!< Bank access (first data) latency.
    double perBankMBps = 160.0; //!< Transfer bandwidth of one bank.
    Tick recovery = 20 * kTicksPerNs; //!< Bank busy beyond the transfer.

    /**
     * Bank occupancy for one access of `bytes` bytes. The banks are
     * pipelined ("interleaved and pipelined node memory"): the access
     * latency overlaps with other banks' work and costs response time,
     * not bank throughput; only the data transfer plus a short
     * precharge/recovery occupies the bank.
     */
    Tick
    occupancy(std::uint32_t bytes) const
    {
        const double perByte = 1e6 / perBankMBps; // ps per byte
        return recovery + static_cast<Tick>(perByte * bytes + 0.5);
    }

    /** Aggregate streaming bandwidth in MB/s (reporting only). */
    double aggregateMBps() const { return perBankMBps * banks; }
};

/**
 * The node bus: arbitrates coherent transactions from the per-CPU
 * last-level caches, reaches the peers by snooping or through its
 * directory, and times data delivery from DRAM, from an owning cache
 * (intervention), or to DRAM (writeback). Also times PIO transfers
 * between a CPU and the node's I/O port (where the communication link
 * interfaces live).
 */
class NodeBus : public BusTarget
{
  public:
    NodeBus(const BusParams &bp, const DramParams &dp, unsigned numCpus);

    NodeBus(const NodeBus &) = delete;
    NodeBus &operator=(const NodeBus &) = delete;

    /** Attach CPU `cpu`'s last-level cache for snooping. */
    void attachCache(unsigned cpu, Cache *l2);

    /** Number of CPU ports. */
    unsigned numCpus() const { return static_cast<unsigned>(_caches.size()); }

    const BusParams &params() const { return _bp; }

    /**
     * BusTarget: perform one coherent transaction. `now` must not be
     * below the time floor.
     */
    BusResult request(const BusReq &req, Tick now) override;

    /**
     * Time one uncached single-beat PIO transfer (CPU <-> I/O port),
     * e.g. a 64-bit store into a link-interface FIFO. Uses an address
     * phase (single-beat transfers arbitrate like any master) plus one
     * data-path beat between the CPU port and the I/O port. `now` must
     * not be below the time floor.
     * @return Completion time.
     */
    Tick pioBeat(int srcCpu, Tick now);

    /**
     * Reset all resource calendars and the time floor (between
     * experiment runs).
     */
    void resetTiming();

    /**
     * Forget the directory's sharer vectors. Must accompany
     * invalidating the attached caches — Node::reset() does both;
     * no-op under snooping.
     */
    void resetCoherence();

    /**
     * Inform the bus that no future request can arrive before `floor`
     * (cpu::runJobs' minimum processor time, or the message layer's
     * msg::System::timeFloor); calendar intervals that end at or
     * before it are pruned. The floor never goes down: a lower value
     * is ignored. It is checked, not trusted: request() and pioBeat()
     * panic on an arrival below it, which would otherwise land in a
     * gap whose busy intervals were pruned.
     */
    void setTimeFloor(Tick floor);

    /** Live intervals over all calendars (tests and reporting). */
    std::size_t intervals() const;

    /**
     * Sharer bit-vector the directory tracks for the line holding
     * `lineAddr` (always 0 under snooping, which tracks nothing).
     */
    std::uint64_t directorySharers(Addr lineAddr) const;

    sim::StatGroup &stats() { return _stats; }

    sim::Scalar transactions{"transactions", "bus transactions"};
    sim::Scalar c2cTransfers{"c2c_transfers", "intervention data supplies"};
    sim::Scalar dramReads{"dram_reads", "lines read from node memory"};
    sim::Scalar dramWrites{"dram_writes", "lines written to node memory"};
    sim::Scalar pioBeats{"pio_beats", "uncached single-beat transfers"};
    sim::Scalar snoopProbes{"snoop_probes",
                            "peer cache hierarchies probed"};
    sim::Scalar dirLookups{"dir_lookups", "sparse-directory lookups"};
    sim::Scalar targetedInvals{"targeted_invals",
                               "directory-targeted invalidations"};
    sim::Scalar addrBusyTicks{"addr_busy_ticks",
                              "ticks the serialized address phase was held"};
    sim::Scalar dirBusyTicks{"dir_busy_ticks",
                             "tick-sum of directory bank occupancy"};
    sim::Distribution addrWait{"addr_wait",
                               "ticks spent waiting for the address phase"};

  private:
    /** What the functional probe of the peers found / did. */
    struct ProbeOutcome
    {
        bool sharedByOthers = false; //!< A peer still holds the line.
        bool dirtyOwner = false; //!< A peer owned Modified data.
        int owner = -1; //!< CPU index of the dirty owner, if any.
        unsigned probes = 0; //!< Peer hierarchies actually snooped.
    };

    BusParams _bp;
    DramParams _dp;
    sim::ClockDomain _clk;
    Tick _addrTicks;
    Tick _snoopTicks;
    Tick _dirLookupTicks; //!< One banked directory lookup.
    Tick _lineDataTicks; //!< Data-phase beats for one full line.
    Tick _beatTicks; //!< One data beat.
    Tick _floor = 0; //!< No request arrives before this tick.

    Resource _addrPhase; //!< Serialized snooped address phase.
    Resource _sharedData; //!< Used when !pointToPointData.
    std::vector<Resource> _cpuPorts; //!< Switch ports (pointToPointData).
    Resource _memPort;
    Resource _ioPort;
    BankedResource _dram;
    std::vector<Cache *> _caches;
    BankedResource _dirBanks; //!< No banks under snooping.
    std::map<Addr, std::uint64_t> _sharers; //!< lineAddr -> CPU bits.
    sim::StatGroup _stats;

    unsigned bankOf(Addr lineAddr) const
    {
        return static_cast<unsigned>((lineAddr / _bp.lineBytes) %
                                     _dp.banks);
    }

    /**
     * Functionally apply `req` to the peers: snoop every other CPU
     * (broadcast), or look up and probe the tracked sharers
     * (directory). Writebacks probe nobody; the directory drops the
     * writer's sharer bit.
     */
    ProbeOutcome probe(const BusReq &req);

    /**
     * Snoop CPU `cpu`'s hierarchy for `lineAddr` and fold the result
     * into `po`.
     */
    SnoopResult probePeer(unsigned cpu, Addr lineAddr, bool exclusive,
                          ProbeOutcome &po);

    /**
     * Charge the serialization of a split transaction issued at `now`
     * (the address phase, or one directory bank) and return the tick
     * at which ownership is settled: the snoop-response point.
     */
    Tick resolve(const BusReq &req, Tick now, const ProbeOutcome &po);

    /**
     * Reserve the data path between two switch ports (or the shared
     * data bus) for `ticks`, starting no earlier than `at`.
     * @return Actual transfer start time.
     */
    Tick acquirePath(Resource &a, Resource &b, Tick at, Tick ticks);
};

} // namespace pm::mem

#endif // PM_MEM_BUS_HH
