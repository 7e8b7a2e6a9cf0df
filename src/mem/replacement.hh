/**
 * @file
 * Victim-selection policy for set-associative caches.
 *
 * The policy owns its per-set state (stamps for LRU, RRPV counters for
 * SRRIP) so `Cache::Line` stays protocol-only; the cache reports hits
 * (`touch`) and fills (`insert`) and asks for a victim way when a set
 * is full. Invalid ways are the cache's business: it fills the lowest-
 * index invalid way first and only consults the policy on a full set.
 * Only multi-way caches hold a policy: a direct-mapped set's one way
 * is always the victim, so `Cache` builds none at assoc 1 and the
 * replacement kind has no effect there.
 *
 * Determinism contract: `victimWay` breaks every tie toward the lowest
 * way index, so replacement is deterministic by construction (not by
 * accident of scan order) even right after reset when all state is
 * equal.
 */

#ifndef PM_MEM_REPLACEMENT_HH
#define PM_MEM_REPLACEMENT_HH

#include <cstdint>
#include <memory>

#include "mem/policy.hh"

namespace pm::mem {

/** Per-cache victim-selection state; see makeReplacement(). */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    virtual ReplacementKind kind() const = 0;

    /** Size the per-set state; called once by the owning Cache ctor. */
    virtual void attach(std::uint32_t sets, std::uint32_t assoc) = 0;

    /** A demand access hit (set, way). */
    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

    /** A fill installed a new line at (set, way). */
    virtual void insert(std::uint32_t set, std::uint32_t way) = 0;

    /**
     * Pick the victim way of a full set. Ties break to the lowest way
     * index. May mutate policy state (SRRIP ages the set).
     */
    virtual std::uint32_t victimWay(std::uint32_t set) = 0;
};

/** Construct a fresh (cold) policy instance of `kind`. */
std::unique_ptr<ReplacementPolicy> makeReplacement(ReplacementKind kind);

} // namespace pm::mem

#endif // PM_MEM_REPLACEMENT_HH
