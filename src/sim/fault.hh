/**
 * @file
 * Deterministic, seeded fault injection for the communication fabric.
 *
 * The paper's NI ASIC carries a CRC-32 per message precisely because
 * the byte-parallel links and the ≤30 m inter-cabinet transceiver
 * cables are the machine's weakest electrical points. This model lets
 * experiments exercise that weakness: every link direction (a
 * net::LinkTx) owns a FaultSite, and each data word passing the site
 * may be corrupted (per-bit error rate), dropped whole, or stalled by
 * a scheduled link-down window.
 *
 * Determinism: each site draws from its own SplitMix64 stream seeded
 * by `seed ^ hash(site name)`, so the fault pattern a given link sees
 * depends only on the seed, the site's configuration, and the sequence
 * of words it carries — never on event interleaving with other links.
 * Two runs with the same seed and traffic are bit-for-bit identical.
 *
 * Configuration must be complete (defaults + overrides) before the
 * Fabric is built: sites snapshot their config when first created.
 */

#ifndef PM_SIM_FAULT_HH
#define PM_SIM_FAULT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pm::sim {

/** One scheduled link-down interval [from, to) in ticks. */
struct FaultWindow
{
    Tick from = 0;
    Tick to = 0;
};

/** Fault behaviour of one site (one link direction). */
struct FaultConfig
{
    double ber = 0.0; //!< Per-bit flip probability on data words.
    double drop = 0.0; //!< Whole-word drop probability.
    std::vector<FaultWindow> down; //!< Scheduled link-down windows.

    /** True when this config can perturb traffic at all. */
    bool
    active() const
    {
        return ber > 0.0 || drop > 0.0 || !down.empty();
    }
};

class FaultModel;

/**
 * Per-link-direction fault state: a private RNG stream plus the
 * snapshot of the config that applied when the site was created.
 */
class FaultSite
{
  public:
    const std::string &name() const { return _name; }
    const FaultConfig &config() const { return _cfg; }

    /**
     * Pass one 64-bit data word through the site.
     * @param word Corrupted in place when a bit error strikes.
     * @param now The word's send tick, which stamps its trace line.
     * @return true when the word is dropped entirely.
     */
    bool filterWord(std::uint64_t &word, Tick now);

    /**
     * First tick >= `now` at which the channel is up. Returns `now`
     * itself outside every down window.
     */
    Tick upAt(Tick now);

  private:
    friend class FaultModel;
    FaultSite(FaultModel &model, std::string name, FaultConfig cfg,
              std::uint64_t seed);

    FaultModel &_model;
    std::string _name;
    FaultConfig _cfg;
    SplitMix64 _rng;
    double _pAnyFlip = 0.0; //!< P(>= 1 of 64 bits flips) from ber.
    Tick _lastBlockEnd = 0; //!< Dedup for the downtime accounting.
};

/**
 * The fault injector: owns all sites, their seeds, and the aggregate
 * "fault" statistics group.
 */
class FaultModel
{
  public:
    explicit FaultModel(std::uint64_t seed = 1);

    FaultModel(const FaultModel &) = delete;
    FaultModel &operator=(const FaultModel &) = delete;

    std::uint64_t seed() const { return _seed; }

    /** Config applied to sites with no matching override. */
    FaultConfig defaults;

    /**
     * Override the config of sites whose name matches `pattern`: an
     * exact name, or a prefix when the pattern ends in '*'. Later
     * overrides win. Must be called before the matching sites are
     * created (i.e. before the Fabric is built).
     */
    void configure(std::string pattern, FaultConfig cfg);

    /**
     * The fault site for `name`, created on first use with the then-
     * current defaults/overrides. The pointer stays valid for the
     * model's lifetime.
     */
    FaultSite *site(const std::string &name);

    /** True when any default or override can perturb traffic. */
    bool anyConfigured() const;

    sim::StatGroup &stats() { return _stats; }
    sim::Scalar wordsCorrupted{"words_corrupted",
                               "data words hit by bit errors"};
    sim::Scalar bitsFlipped{"bits_flipped", "total bits flipped"};
    sim::Scalar wordsDropped{"words_dropped",
                             "data words dropped on the wire"};
    sim::Scalar downStalls{"down_stalls",
                           "sends blocked by a link-down window"};
    sim::Scalar linkDowntime{"link_downtime",
                             "ticks senders spent blocked by down links"};

  private:
    std::uint64_t _seed;
    std::vector<std::pair<std::string, FaultConfig>> _overrides;
    std::map<std::string, std::unique_ptr<FaultSite>> _sites;
    sim::StatGroup _stats{"fault"};
};

} // namespace pm::sim

#endif // PM_SIM_FAULT_HH
