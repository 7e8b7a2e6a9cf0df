/**
 * @file
 * The pass-1 project model: everything pmlint's link stage needs to
 * know about one translation unit.
 *
 * One TuIndex per file, a pure function of that file's bytes, held in
 * memory for one run. The link stage (link.hh) merges all TuIndexes
 * and enforces the cross-TU rules — dangling-capture, layering,
 * stale-annotation — then applies suppression annotations to the
 * combined finding set.
 */

#ifndef PM_PMLINT_MODEL_HH
#define PM_PMLINT_MODEL_HH

#include <string>
#include <vector>

#include "lexer.hh"
#include "rules.hh"

namespace pmlint {

/** A quoted #include ("net/fifo.hh") — the layering rule's edges. */
struct IncludeEdge
{
    int line;
    int col;
    std::string path; //!< As written, '/'-separated, no quotes.
};

/**
 * A lambda with a by-reference capture passed as a call argument.
 * Only by-ref lambdas are indexed: the dangling-capture rule fires
 * when `callee` resolves to an EventFn sink at link time.
 */
struct LambdaSite
{
    int line;
    int col;
    std::string callee; //!< Innermost enclosing call's name.
    std::string captures; //!< The offending entries, comma-joined.
};

/**
 * A function that captures one of its own parameters into a lambda
 * passed to `callee`. When `callee` stores an EventFn, the function
 * stores what its caller passed: it is a sink too (LinkTx::ready
 * hands `wake` to the stop-signal waiter list this way).
 */
struct Forward
{
    std::string function;
    std::string callee;
};

/** The complete pass-1 result for one translation unit. */
struct TuIndex
{
    std::string relPath; //!< Root-relative, '/'-separated.
    std::vector<Diagnostic> findings; //!< Raw per-file rule findings.
    std::vector<Annotation> annotations;
    std::vector<IncludeEdge> includes;
    std::vector<LambdaSite> lambdas;
    std::vector<std::string> sinks; //!< Functions taking an EventFn.
    std::vector<Forward> forwards;
};

} // namespace pmlint

#endif // PM_PMLINT_MODEL_HH
