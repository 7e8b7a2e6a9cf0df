#include "link.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace pmlint {

namespace {

using Diags = std::vector<Diagnostic>;

/** Top-level directory of a '/'-separated path ("" when none). */
std::string
topDir(const std::string &path)
{
    const std::size_t slash = path.find('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

// ---- dangling-capture --------------------------------------------------

/** EventFn sinks every tree has, even when sim/ is not being linted. */
const std::set<std::string> &
builtinSinks()
{
    static const std::set<std::string> k = {"schedule", "scheduleIn"};
    return k;
}

void
checkDanglingCapture(const std::vector<TuIndex> &tus, Diags &out)
{
    std::set<std::string> sinks = builtinSinks();
    for (const TuIndex &tu : tus)
        sinks.insert(tu.sinks.begin(), tu.sinks.end());
    // A forward into a sink makes a sink, which may complete another
    // forward: repeat until no function is added.
    for (bool grew = true; grew;) {
        grew = false;
        for (const TuIndex &tu : tus)
            for (const Forward &f : tu.forwards)
                if (sinks.count(f.callee) &&
                    sinks.insert(f.function).second)
                    grew = true;
    }
    for (const TuIndex &tu : tus) {
        for (const LambdaSite &l : tu.lambdas) {
            if (!sinks.count(l.callee))
                continue;
            out.push_back(
                {tu.relPath, l.line, l.col, "dangling-capture",
                 "by-reference capture [" + l.captures +
                     "] escapes into EventFn sink '" + l.callee +
                     "': the referent's frame may be gone when the "
                     "event fires; capture by value, or annotate "
                     "'// pmlint: capture-ok(<reason>)' if the queue "
                     "provably drains before the frame unwinds"});
        }
    }
}

// ---- layering ----------------------------------------------------------

/**
 * Allowed include edges between src/ layers, transitively closed
 * (DESIGN.md §8): sim is the base; net stacks on sim; ni on net;
 * fabric assembles ni+net; the node side stacks mem -> cpu -> node;
 * msg bridges both stacks; machines/earth sit on msg; cli (pmsim's
 * flag parser) sits on machines. A directory missing from this table
 * (tests, bench, tools fixtures) is unlayered.
 */
const std::map<std::string, std::set<std::string>> &
layerDeps()
{
    static const std::map<std::string, std::set<std::string>> k = {
        {"sim", {}},
        {"net", {"sim"}},
        {"ni", {"sim", "net"}},
        {"fabric", {"sim", "net", "ni"}},
        {"mem", {"sim"}},
        {"cpu", {"sim", "mem"}},
        {"node", {"sim", "mem", "cpu"}},
        {"baseline", {"sim", "mem", "cpu", "node"}},
        {"workloads", {"sim", "mem", "cpu", "node"}},
        {"msg", {"sim", "net", "ni", "fabric", "mem", "cpu", "node"}},
        {"machines",
         {"sim", "net", "ni", "fabric", "mem", "cpu", "node", "msg"}},
        {"earth",
         {"sim", "net", "ni", "fabric", "mem", "cpu", "node", "msg"}},
        {"cli",
         {"sim", "net", "ni", "fabric", "mem", "cpu", "node", "msg",
          "machines"}},
    };
    return k;
}

void
checkLayering(const std::vector<TuIndex> &tus, Diags &out)
{
    const auto &deps = layerDeps();
    for (const TuIndex &tu : tus) {
        const std::string from = topDir(tu.relPath);
        auto fromIt = deps.find(from);
        if (fromIt == deps.end())
            continue;
        for (const IncludeEdge &inc : tu.includes) {
            const std::string to = topDir(inc.path);
            if (to == from || deps.find(to) == deps.end())
                continue;
            if (fromIt->second.count(to))
                continue;
            out.push_back(
                {tu.relPath, inc.line, inc.col, "layering",
                 "layer '" + from + "' may not include \"" + inc.path +
                     "\" (layer '" + to +
                     "'): the DESIGN.md layer order is sim <- net <- ni "
                     "<- fabric and sim <- mem <- cpu <- node, joined "
                     "by msg below machines/earth; invert the "
                     "dependency or annotate "
                     "'// pmlint: layer-ok(<reason>)'"});
        }
    }
}

/** File-level include cycles (never suppressible: emitted post-link). */
void
checkIncludeCycles(const std::vector<TuIndex> &tus, Diags &out)
{
    std::map<std::string, const TuIndex *> byPath;
    for (const TuIndex &tu : tus)
        byPath.emplace(tu.relPath, &tu);
    // Colors: 0 white, 1 on the current DFS path, 2 done. One finding
    // per distinct back edge, reported at the offending #include.
    std::map<std::string, int> color;
    std::vector<std::string> stack;

    struct Frame
    {
        const TuIndex *tu;
        std::size_t next;
    };

    for (const TuIndex &root : tus) {
        if (color[root.relPath] != 0)
            continue;
        std::vector<Frame> frames{{&root, 0}};
        color[root.relPath] = 1;
        stack.push_back(root.relPath);
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.next >= f.tu->includes.size()) {
                color[f.tu->relPath] = 2;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const IncludeEdge &inc = f.tu->includes[f.next++];
            auto target = byPath.find(inc.path);
            if (target == byPath.end())
                continue;
            const int c = color[inc.path];
            if (c == 1) {
                // Back edge: reconstruct the cycle for the message.
                std::string cyc;
                bool in = false;
                for (const std::string &s : stack) {
                    if (s == inc.path)
                        in = true;
                    if (in)
                        cyc += s + " -> ";
                }
                cyc += inc.path;
                out.push_back(
                    {f.tu->relPath, inc.line, inc.col, "layering",
                     "include cycle (fatal, not suppressible): " + cyc});
                continue;
            }
            if (c == 2)
                continue;
            color[inc.path] = 1;
            stack.push_back(inc.path);
            frames.push_back({target->second, 0});
        }
    }
}

// ---- suppression + stale-annotation ------------------------------------

void
applySuppression(const std::vector<TuIndex> &tus, Diags &diags,
                 Diags &stale)
{
    // Per file: line -> (rule silenced, used flag).
    struct Slot
    {
        const Annotation *a;
        std::string rule;
        bool used = false;
    };
    std::map<std::string, std::vector<Slot>> byFile;
    for (const TuIndex &tu : tus) {
        for (const Annotation &a : tu.annotations) {
            if (!a.wellFormed)
                continue; // already a raw 'annotation' finding
            byFile[tu.relPath].push_back(
                {&a, annotationRules().at(a.name), false});
        }
    }
    Diags kept;
    kept.reserve(diags.size());
    for (Diagnostic &d : diags) {
        bool suppressed = false;
        auto it = byFile.find(d.relPath);
        if (it != byFile.end()) {
            for (Slot &s : it->second) {
                if (s.rule != d.rule)
                    continue;
                if (s.a->line != d.line && s.a->line != d.line - 1)
                    continue;
                s.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            kept.push_back(std::move(d));
    }
    diags.swap(kept);
    for (const auto &[file, slots] : byFile) {
        for (const Slot &s : slots) {
            if (s.used)
                continue;
            stale.push_back(
                {file, s.a->line, s.a->col, "stale-annotation",
                 "annotation '" + s.a->name + "' suppresses nothing: no '" +
                     s.rule +
                     "' finding on this or the next line; delete it"});
        }
    }
}

} // namespace

std::vector<Diagnostic>
link(const std::vector<TuIndex> &tus)
{
    Diags diags;
    for (const TuIndex &tu : tus)
        diags.insert(diags.end(), tu.findings.begin(), tu.findings.end());
    checkDanglingCapture(tus, diags);
    checkLayering(tus, diags);

    Diags unsuppressible;
    applySuppression(tus, diags, unsuppressible);
    checkIncludeCycles(tus, unsuppressible);
    diags.insert(diags.end(), unsuppressible.begin(),
                 unsuppressible.end());
    std::sort(diags.begin(), diags.end());
    return diags;
}

} // namespace pmlint
