/**
 * @file
 * Request/response types exchanged between levels of the simulated
 * memory hierarchy and the node bus.
 */

#ifndef PM_MEM_REQ_HH
#define PM_MEM_REQ_HH

#include <cstdint>

#include "sim/types.hh"

namespace pm::mem {

/** MESI cache-line states (the MPC620 implements full MESI). */
enum class MesiState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** A processor-originated memory access. */
struct MemReq
{
    Addr addr = 0; //!< Byte address.
    bool write = false; //!< Store (needs ownership) vs load.
    int srcCpu = 0; //!< Index of the issuing processor within its node.
};

/** Result of a cache access: completion time and granted line state. */
struct AccessResult
{
    Tick done = 0; //!< Time at which the data (or permission) arrives.
    MesiState granted = MesiState::Invalid; //!< State now held.
    bool hit = false; //!< Hit at the level that was asked.
    /**
     * The request crossed the node bus (DRAM / intervention / upgrade).
     * The processor model distinguishes near misses (filled from a
     * lower private cache: short, pipelined stall) from bus-level
     * misses, where the "no load pipelining" blocking of the MPC620
     * bites.
     */
    bool fromBus = false;
};

/** Bus transaction types (the MPC620 address-bus command set, reduced). */
enum class TxType : std::uint8_t {
    ReadShared, //!< Load miss: read a line, tolerate other sharers.
    ReadExclusive, //!< Store miss: read with intent to modify.
    Upgrade, //!< Store to a Shared line: kill other copies, no data.
    Writeback, //!< Evicted Modified line heading to memory.
};

/** A transaction presented to the node bus by a last-level cache. */
struct BusReq
{
    Addr lineAddr = 0; //!< Line-aligned address.
    TxType type = TxType::ReadShared;
    int srcCpu = 0; //!< Requesting processor / bus master index.
};

/** Bus-level completion information. */
struct BusResult
{
    Tick done = 0; //!< Data (or invalidation ack) delivery time.
    bool sharedByOthers = false; //!< Another cache holds the line.
    bool cacheToCache = false; //!< Data supplied by intervention.
};

} // namespace pm::mem

#endif // PM_MEM_REQ_HH
