/**
 * @file
 * The single-board node computer: N processors, their private L1/L2
 * hierarchies, the ADSP bus switch + dispatcher (mem::NodeBus), and the
 * interleaved node memory.
 */

#ifndef PM_NODE_NODE_HH
#define PM_NODE_NODE_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/params.hh"
#include "cpu/proc.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"

namespace pm::node {

/** Full static configuration of one node. */
struct NodeParams
{
    std::string name = "node";
    unsigned numCpus = 2;
    cpu::CpuParams cpu;
    mem::CacheParams l1;
    mem::CacheParams l2;
    mem::BusParams bus;
    mem::DramParams dram;

    // Node-wide memory-hierarchy policies (DESIGN.md §14). The ctor
    // copies these into every cache's CacheParams and the bus's
    // BusParams, so one knob configures the whole node consistently.
    mem::CoherenceKind coherence = mem::CoherenceKind::Mesi;
    mem::TransportKind transport = mem::TransportKind::Snoop;
};

/** One SMP node: processors, caches, bus switch, memory. */
class Node
{
  public:
    explicit Node(const NodeParams &params);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    const NodeParams &params() const { return _p; }
    unsigned numCpus() const { return _p.numCpus; }

    cpu::Proc &proc(unsigned i) { return *_procs.at(i); }
    mem::Cache &l1(unsigned i) { return *_l1s.at(i); }
    mem::Cache &l2(unsigned i) { return *_l2s.at(i); }
    mem::NodeBus &bus() { return *_bus; }

    /**
     * Cold-start the node: invalidate all caches, clear resource
     * calendars, and rewind processor clocks to zero. Used between
     * independent experiment runs on one Node object.
     */
    void reset();

    /**
     * Rewind clocks and resource calendars but keep cache and TLB
     * contents: measurement begins in the warmed steady state.
     */
    void resetTimingOnly();

    sim::StatGroup &stats() { return _stats; }

  private:
    NodeParams _p;
    std::unique_ptr<mem::NodeBus> _bus;
    std::vector<std::unique_ptr<mem::Cache>> _l2s;
    std::vector<std::unique_ptr<mem::Cache>> _l1s;
    std::vector<std::unique_ptr<cpu::Proc>> _procs;
    sim::StatGroup _stats;
};

} // namespace pm::node

#endif // PM_NODE_NODE_HH
