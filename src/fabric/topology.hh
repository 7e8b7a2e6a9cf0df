/**
 * @file
 * PowerMANNA interconnect topologies (Section 3, Figure 5).
 *
 * A *cluster* is up to 8 nodes on one backplane crossbar (per network;
 * the network is duplicated, so a Figure 5a cluster has two crossbars).
 * Larger machines connect clusters through a second level of 16x16
 * crossbars reached over asynchronous transceivers: each cluster
 * crossbar dedicates `uplinksPerCluster` ports to second-level
 * crossbars, and second-level crossbar u connects all clusters on its
 * port c = cluster index. Any route then crosses at most three
 * crossbars — source cluster, second level, destination cluster — the
 * property the paper states for its 256-processor configuration.
 */

#ifndef PM_FABRIC_TOPOLOGY_HH
#define PM_FABRIC_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/crossbar.hh"
#include "net/transceiver.hh"
#include "ni/linkinterface.hh"
#include "sim/event.hh"

namespace pm::fabric {

/** Static configuration of a PowerMANNA fabric. */
struct FabricParams
{
    unsigned clusters = 1; //!< Up to 16 (second-level crossbar ports).
    unsigned nodesPerCluster = 8; //!< Up to 8 (Figure 5a backplane).
    unsigned uplinksPerCluster = 4; //!< Second-level crossbars used.
    unsigned networks = 2; //!< Duplicated network (Section 2).
    net::CrossbarParams xbar;
    net::TransceiverParams xcvr;
    ni::LinkIfParams ni; //!< `link` times the node -> crossbar hop.

    /**
     * Optional fault injection; propagated into every link direction
     * (node links, crossbar outputs, transceivers). Must outlive the
     * Fabric and be fully configured before it is built.
     */
    sim::FaultModel *fault = nullptr;
};

/**
 * The whole communication system: link interfaces, crossbars,
 * transceivers, wired per FabricParams; plus route computation.
 */
class Fabric
{
  public:
    Fabric(const FabricParams &params, sim::EventQueue &queue);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    const FabricParams &params() const { return _p; }
    unsigned numNodes() const { return _p.clusters * _p.nodesPerCluster; }
    unsigned clusterOf(unsigned node) const
    {
        return node / _p.nodesPerCluster;
    }
    unsigned localIndex(unsigned node) const
    {
        return node % _p.nodesPerCluster;
    }

    /** Link interface of `node` on duplicated network `net`. */
    ni::LinkInterface &ni(unsigned node, unsigned net = 0);

    /** Cluster crossbar `c` of network `net` (tests/stats). */
    net::Crossbar &clusterXbar(unsigned c, unsigned net = 0);

    /** Second-level crossbar `u` of network `net` (tests/stats). */
    net::Crossbar &levelTwoXbar(unsigned u, unsigned net = 0);

    /**
     * Route-command bytes for a connection src -> dst: one byte per
     * crossbar crossed, so its size is the path length. `spread`
     * selects among the equivalent second-level crossbars for
     * inter-cluster routes.
     */
    std::vector<std::uint8_t> route(unsigned src, unsigned dst,
                                    unsigned spread = 0) const;

    /**
     * Reset the whole fabric between experiment runs: link interfaces,
     * crossbars, transceivers, and every link direction. Buffered and
     * in-flight symbols are dropped and all circuits torn down, so a
     * run that ends with protocol traffic still moving (trailing ACKs,
     * abandoned retransmits) cannot pollute the next one.
     */
    void reset();

    /**
     * Register every fabric component with the health monitor, in
     * forEachElement() order.
     */
    void registerHealth(sim::health::Monitor &monitor);

    /**
     * True when nothing is moving anywhere in the fabric: no buffered
     * symbols, no open circuits, no in-flight wire deliveries, and all
     * NI send sides drained. NI *receive* FIFOs may hold unconsumed
     * words — those were already delivered and counted. Endpoint
     * quiescence does not imply this: a duplicate retransmit can still
     * be mid-fabric after both ends have gone quiet.
     */
    [[nodiscard]] bool wireQuiet() const;

  private:
    struct Network
    {
        std::vector<std::unique_ptr<net::Crossbar>> clusterXbars;
        std::vector<std::unique_ptr<net::Crossbar>> l2Xbars;
        std::vector<std::unique_ptr<net::Transceiver>> xcvrs;
        std::vector<std::unique_ptr<ni::LinkInterface>> nis; // per node
    };

    FabricParams _p;
    sim::EventQueue &_queue;
    std::vector<Network> _nets;

    void build();
    void buildNetwork(unsigned n);

    /**
     * Call `fn` on every element in one fixed order — per network: the
     * NIs, the cluster crossbars, the second-level crossbars, then the
     * transceivers — until a call returns false; true when none did.
     * Elements come out as const as `self`.
     */
    template <typename Self, typename Fn>
    static bool forEachElement(Self &self, Fn &&fn);
};

} // namespace pm::fabric

#endif // PM_FABRIC_TOPOLOGY_HH
