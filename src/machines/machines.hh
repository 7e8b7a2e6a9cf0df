/**
 * @file
 * The three test systems of the paper's Table 1, expressed as node
 * configurations, plus the communication-system parameters of
 * PowerMANNA (Section 3) and of the Myrinet comparators (Section 5.2).
 *
 * | System          | SUN ULTRA-I   | PowerMANNA | PC cluster    |
 * | Processor       | UltraSPARC-I  | PPC620     | Pentium II    |
 * | Clock           | 168 MHz       | 180 MHz    | 180/266 MHz   |
 * | Bus clock       | 84 MHz        | 60 MHz     | 60/66 MHz     |
 * | Processors      | 2             | 2          | 2             |
 * | L1              | 16/16 KB      | 32/32 KB   | 16/16 KB      |
 * | L2              | 512 KB        | 2 MB       | 512 KB        |
 * | Cache line      | 32 B          | 64 B       | 32 B          |
 */

#ifndef PM_MACHINES_MACHINES_HH
#define PM_MACHINES_MACHINES_HH

#include <string>
#include <vector>

#include "fabric/topology.hh"
#include "mem/policy.hh"
#include "node/node.hh"

namespace pm::machines {

/** The PowerMANNA dual-MPC620 node (180 MHz CPU, 60 MHz board). */
node::NodeParams powerManna();

/** PowerMANNA variant with `n` processors (the design-study ablation). */
node::NodeParams powerMannaN(unsigned n);

/**
 * One point of the coherence ablation (bench/ablation_coherence): a
 * PowerMANNA node with `n` processors and the given coherence protocol
 * and transport. The name encodes the point, e.g.
 * "powermanna4_dir_msi". Replacement is true LRU in every cache.
 */
node::NodeParams powerMannaAblation(unsigned n,
                                    mem::CoherenceKind coherence,
                                    mem::TransportKind transport);

/** The two-way SUN ULTRA-I (168 MHz UltraSPARC-I, Solaris in paper). */
node::NodeParams sunUltra1();

/** The two-way Pentium II PC node clocked down to 180/60 MHz. */
node::NodeParams pentiumPc180();

/** The two-way Pentium II PC node at its native 266/66 MHz. */
node::NodeParams pentiumPc266();

/** All four node configurations used in Section 5.1. */
std::vector<node::NodeParams> allNodeConfigs();

/**
 * The PowerMANNA fabric at a given size: `clusters` Figure-5a
 * backplanes of `nodesPerCluster` nodes each, joined through the
 * second crossbar level when clusters > 1 (Section 2's parameters are
 * the FabricParams defaults).
 */
fabric::FabricParams powerMannaFabric(unsigned clusters,
                                   unsigned nodesPerCluster);

/**
 * Look a machine up by its CLI name: powermanna, sun, pc180, or
 * pc266. pm_fatal on anything else (user error, not a bug).
 */
node::NodeParams byName(const std::string &name);

/**
 * True when `name` is a valid byName() argument. Callers that must
 * report errors instead of exiting (pmsim's cli::Fields::machine)
 * check this first.
 */
bool isKnown(const std::string &name);

/** One-line description used by the Table 1 bench. */
std::string describe(const node::NodeParams &p);

} // namespace pm::machines

#endif // PM_MACHINES_MACHINES_HH
