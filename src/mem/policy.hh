/**
 * @file
 * Policy knobs for the memory hierarchy.
 *
 * Two orthogonal axes parameterize `mem::Cache` and `mem::NodeBus`
 * (DESIGN.md §14):
 *
 *  - CoherenceKind: which protocol the caches speak (full MESI as the
 *    MPC620 implements it, or plain MSI without the Exclusive state).
 *  - TransportKind: how coherence traffic reaches the peers (the
 *    paper's serialized broadcast snoop phase, or a sparse directory
 *    that sends targeted invalidations to actual sharers only).
 *
 * The enums travel through node::NodeParams, machines:: and pmsim's
 * cli::JobSpec; the parse helpers return false on unknown names so
 * callers can report diagnostics instead of exiting.
 */

#ifndef PM_MEM_POLICY_HH
#define PM_MEM_POLICY_HH

#include <cstdint>
#include <string>

namespace pm::mem {

/** Coherence protocol spoken by every cache in a node. */
enum class CoherenceKind : std::uint8_t {
    Mesi, //!< Full MESI (silent E->M upgrade on private stores).
    Msi, //!< No Exclusive state: every store to a clean line upgrades.
};

/** How coherence requests reach the other caches of the node. */
enum class TransportKind : std::uint8_t {
    Snoop, //!< Broadcast over the serialized snooped address phase.
    Directory, //!< Sparse directory; targeted invalidations.
};

/** CLI/report names: "mesi" / "msi". */
const char *coherenceName(CoherenceKind k);
/** CLI/report names: "snoop" / "dir". */
const char *transportName(TransportKind k);

/** Parse a CLI name; false (out untouched) on anything unknown. */
bool parseCoherence(const std::string &s, CoherenceKind &out);
bool parseTransport(const std::string &s, TransportKind &out);

} // namespace pm::mem

#endif // PM_MEM_POLICY_HH
