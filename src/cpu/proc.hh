/**
 * @file
 * The processor timing model.
 *
 * A Proc executes Workload kernels. The kernel issues abstract
 * operations (loads, stores, FP/integer ops, PIO beats); the Proc
 * advances its local clock for each one, pulling all memory timing from
 * the simulated cache hierarchy and node bus. Multiple Procs on one
 * node are interleaved by the Scheduler in near-global-time order, so
 * their accesses contend realistically on the shared bus resources.
 */

#ifndef PM_CPU_PROC_HH
#define PM_CPU_PROC_HH

#include <deque>

#include "cpu/tlb.hh"

#include "cpu/params.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::cpu {

/** One processor of an SMP node. */
class Proc
{
  public:
    /**
     * @param params Timing parameters.
     * @param cpuId Index of this processor within its node.
     * @param l1d The processor's L1 data cache.
     * @param bus The node bus, used for PIO beats.
     */
    Proc(const CpuParams &params, int cpuId, mem::Cache *l1d,
         mem::NodeBus *bus);

    Proc(const Proc &) = delete;
    Proc &operator=(const Proc &) = delete;

    const CpuParams &params() const { return _p; }
    mem::NodeBus *bus() const { return _bus; }

    /** Local simulated time of this processor. */
    Tick time() const { return _time; }

    /** Move local time forward to at least `t` (synchronization). */
    void advanceTo(Tick t) { if (t > _time) _time = t; }

    // ---- Operations issued by workloads. -----------------------------

    /** 8-byte load from `addr`. */
    void load(Addr addr);

    /** 8-byte store to `addr`. */
    void store(Addr addr);

    /**
     * Sequential loads of `bytes` starting at `addr` (one 8-byte load
     * per word; within-line words are modelled as pipelined hits).
     */
    void loadSeq(Addr addr, std::uint64_t bytes);

    /** Sequential stores, as loadSeq. */
    void storeSeq(Addr addr, std::uint64_t bytes);

    /** `n` pipelined floating-point operations. */
    void flops(std::uint64_t n);

    /** `n` integer ALU operations. */
    void intops(std::uint64_t n);

    /** `n` generic instructions (loop control, address arithmetic). */
    void instr(std::uint64_t n);

    /** Stall for `n` core cycles. */
    void stallCycles(Cycles n) { _time += _clk.cycles(n); }

    /** One uncached single-beat PIO transfer (CPU <-> I/O port). */
    void pioBeat();

    /**
     * Drain all outstanding misses; local time advances to the last
     * completion. Call at timing-measurement boundaries.
     */
    void drain();

    /** Reset local time and outstanding-miss state; keeps the TLB. */
    void resetTime();

    /** Drop all TLB translations (cold start). */
    void flushTlb() { _dtlb.flush(); }

    // ---- Statistics. --------------------------------------------------

    sim::StatGroup &stats() { return _stats; }
    sim::Scalar loads{"loads", "load operations issued"};
    sim::Scalar stores{"stores", "store operations issued"};
    sim::Scalar fpOps{"fp_ops", "floating point operations"};
    sim::Scalar intOps{"int_ops", "integer operations"};
    sim::Scalar missStalls{"miss_stall_ticks",
                           "ticks stalled waiting for misses"};
    sim::Scalar tlbMisses{"tlb_misses", "data-TLB table walks"};
    // Per-policy attribution of bus-level traffic: how much of this
    // core's demand stream crossed the node bus as fills vs as
    // ownership upgrades. MSI inflates busUpgrades on private
    // read-modify-write data; MESI's silent E->M keeps them local.
    sim::Scalar busFills{"bus_fills",
                         "demand accesses filled across the node bus"};
    sim::Scalar busUpgrades{"bus_upgrades",
                            "demand stores that crossed the bus for "
                            "ownership"};

  private:
    /** Synthetic page-table region used for table-walk PTE reads. */
    static constexpr Addr kPageTableBase = 0x70'0000'0000ull;

    CpuParams _p;
    int _cpuId;
    sim::ClockDomain _clk;
    mem::Cache *_l1d;
    mem::NodeBus *_bus;
    Tick _time = 0;
    Tick _issueTick; //!< Ticks per generic instruction slot.
    Tick _fpTick; //!< Ticks per sustained FP op.
    Tick _intTick; //!< Ticks per sustained integer op.
    std::deque<Tick> _outstanding; //!< Completion times of in-flight misses.
    Tlb _dtlb;
    sim::StatGroup _stats;

    void memAccess(Addr addr, bool write);

    /** loadSeq (write false) or storeSeq (write true). */
    void accessSeq(Addr addr, std::uint64_t bytes, bool write);
};

} // namespace pm::cpu

#endif // PM_CPU_PROC_HH
