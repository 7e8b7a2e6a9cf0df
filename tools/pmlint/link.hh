/**
 * @file
 * Pass 2: merge every TuIndex and produce the final diagnostic list.
 *
 * The link stage owns the cross-TU rules — dangling-capture, layering
 * (including fatal include cycles) and stale-annotation — and is the single place suppression annotations
 * are applied: per-file findings arrive raw, each `<name>-ok(reason)`
 * annotation silences matching findings on its own or the following
 * line, and a well-formed annotation that silences nothing is itself
 * reported (stale-annotation), so escape hatches cannot rot.
 */

#ifndef PM_PMLINT_LINK_HH
#define PM_PMLINT_LINK_HH

#include <vector>

#include "model.hh"
#include "rules.hh"

namespace pmlint {

/** Link all indexed TUs; returns the sorted, suppressed finding set. */
std::vector<Diagnostic> link(const std::vector<TuIndex> &tus);

} // namespace pmlint

#endif // PM_PMLINT_LINK_HH
