/**
 * @file
 * Pass 1: index one scanned translation unit into a TuIndex.
 *
 * Runs the per-file rules (rules.hh) for the raw finding list, then a
 * lightweight token walk — not a grammar — extracting the facts the
 * link stage cross-references: by-reference lambda captures at call
 * sites and EventFn-taking function names.
 */

#ifndef PM_PMLINT_PARSE_HH
#define PM_PMLINT_PARSE_HH

#include "lexer.hh"
#include "model.hh"

namespace pmlint {

/** Build the full pass-1 index for one file. */
TuIndex indexFile(const SourceFile &file);

} // namespace pmlint

#endif // PM_PMLINT_PARSE_HH
