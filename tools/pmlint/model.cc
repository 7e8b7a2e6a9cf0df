#include "model.hh"

#include <cstdlib>
#include <sstream>

namespace pmlint {

namespace {

constexpr const char *kMagic = "pmlint-index";
constexpr int kVersion = 3;

/**
 * Split one space-separated field off `line` starting at `pos`;
 * advances pos past the trailing space. Returns "" at end of line.
 */
std::string
field(const std::string &line, std::size_t &pos)
{
    while (pos < line.size() && line[pos] == ' ')
        ++pos;
    std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ')
        ++pos;
    return line.substr(start, pos - start);
}

/** Rest of the line after the fixed fields (messages, reasons). */
std::string
rest(const std::string &line, std::size_t &pos)
{
    if (pos < line.size() && line[pos] == ' ')
        ++pos;
    return line.substr(pos);
}

bool
toInt(const std::string &s, int &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    out = static_cast<int>(v);
    return true;
}

} // namespace

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
serialize(const TuIndex &tu)
{
    std::ostringstream out;
    out << kMagic << ' ' << kVersion << ' ' << std::hex << tu.contentHash
        << std::dec << '\n';
    out << "P " << tu.relPath << '\n';
    for (const Diagnostic &d : tu.findings)
        out << "D " << d.line << ' ' << d.col << ' ' << d.rule << ' '
            << d.message << '\n';
    for (const Annotation &a : tu.annotations)
        out << "A " << a.line << ' ' << a.col << ' '
            << (a.wellFormed ? 1 : 0) << ' ' << a.name << ' ' << a.reason
            << '\n';
    for (const IncludeEdge &i : tu.includes)
        out << "I " << i.line << ' ' << i.col << ' ' << i.path << '\n';
    for (const LambdaSite &l : tu.lambdas)
        out << "L " << l.line << ' ' << l.col << ' ' << l.callee << ' '
            << l.captures << '\n';
    for (const std::string &s : tu.sinks)
        out << "S " << s << '\n';
    return out.str();
}

bool
deserialize(const std::string &text, TuIndex &tu)
{
    tu = TuIndex{};
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return false;
    {
        std::size_t pos = 0;
        if (field(line, pos) != kMagic)
            return false;
        int version = 0;
        if (!toInt(field(line, pos), version) || version != kVersion)
            return false;
        const std::string hash = field(line, pos);
        char *end = nullptr;
        tu.contentHash = std::strtoull(hash.c_str(), &end, 16);
        if (end == nullptr || *end != '\0')
            return false;
    }
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::size_t pos = 0;
        const std::string tag = field(line, pos);
        if (tag == "P") {
            tu.relPath = rest(line, pos);
        } else if (tag == "D") {
            Diagnostic d;
            if (!toInt(field(line, pos), d.line) ||
                !toInt(field(line, pos), d.col))
                return false;
            d.rule = field(line, pos);
            d.message = rest(line, pos);
            d.relPath = tu.relPath;
            tu.findings.push_back(std::move(d));
        } else if (tag == "A") {
            Annotation a;
            int wf = 0;
            if (!toInt(field(line, pos), a.line) ||
                !toInt(field(line, pos), a.col) ||
                !toInt(field(line, pos), wf))
                return false;
            a.wellFormed = wf != 0;
            a.name = field(line, pos);
            a.reason = rest(line, pos);
            tu.annotations.push_back(std::move(a));
        } else if (tag == "I") {
            IncludeEdge i;
            if (!toInt(field(line, pos), i.line) ||
                !toInt(field(line, pos), i.col))
                return false;
            i.path = rest(line, pos);
            tu.includes.push_back(std::move(i));
        } else if (tag == "L") {
            LambdaSite l;
            if (!toInt(field(line, pos), l.line) ||
                !toInt(field(line, pos), l.col))
                return false;
            l.callee = field(line, pos);
            l.captures = rest(line, pos);
            tu.lambdas.push_back(std::move(l));
        } else if (tag == "S") {
            tu.sinks.push_back(rest(line, pos));
        } else {
            return false; // unknown record: treat as corrupt
        }
    }
    return !tu.relPath.empty();
}

} // namespace pmlint
