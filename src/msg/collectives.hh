/**
 * @file
 * Collective operations over the user-level transport — the kernel of
 * the MPI layer Section 4 describes ("interprocess communication is
 * supported by both the PVM and MPI message-passing libraries", with
 * an optimized user-level implementation).
 *
 * All collectives use binomial / dissemination algorithms whose round
 * structure exploits exactly what PowerMANNA is good at (Figures 9/10):
 * many small messages with microsecond start-ups. Each participating
 * node runs its own per-round state machine on its own driver; rounds
 * are not globally synchronized, so the simulated timing includes real
 * skew, contention and pipelining.
 */

#ifndef PM_MSG_COLLECTIVES_HH
#define PM_MSG_COLLECTIVES_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "msg/driver.hh"
#include "msg/system.hh"

namespace pm::msg {

/**
 * A group of nodes communicating collectively (one driver per node,
 * processor 0, network 0).
 */
class Communicator
{
  public:
    /**
     * @param sys The machine.
     * @param nodes Participating node ids (rank = index in this list).
     */
    Communicator(System &sys, std::vector<unsigned> nodes);

    Communicator(const Communicator &) = delete;
    Communicator &operator=(const Communicator &) = delete;

    unsigned size() const { return static_cast<unsigned>(_nodes.size()); }

    /** The driver endpoint of `rank` (for mixing with point-to-point). */
    PmComm &endpoint(unsigned rank) { return *_comms.at(rank); }

    /**
     * Dissemination barrier across all ranks. Runs the event queue
     * until every rank has completed all rounds.
     * @return Simulated duration of the barrier (max over ranks).
     */
    Tick barrier();

    /**
     * Binomial-tree broadcast of `words` from `root` to all ranks.
     * @return Simulated duration.
     */
    Tick broadcast(unsigned root, const std::vector<std::uint64_t> &words);

    /**
     * Binomial-tree elementwise-sum reduction to `root`.
     * @param contributions One vector per rank (all equal length).
     * @param[out] result Root's reduced vector.
     * @return Simulated duration.
     */
    Tick reduceSum(unsigned root,
                   const std::vector<std::vector<std::uint64_t>> &contributions,
                   std::vector<std::uint64_t> &result);

    /**
     * Allreduce (reduce to rank 0, then broadcast).
     * @return Simulated duration.
     */
    Tick allReduceSum(
        const std::vector<std::vector<std::uint64_t>> &contributions,
        std::vector<std::uint64_t> &result);

  private:
    System &_sys;
    std::vector<unsigned> _nodes;
    std::vector<std::unique_ptr<PmComm>> _comms;

    /** log2 rounds, rounded up. */
    unsigned rounds() const;
};

} // namespace pm::msg

#endif // PM_MSG_COLLECTIVES_HH
