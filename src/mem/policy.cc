#include "mem/policy.hh"

namespace pm::mem {

const char *
coherenceName(CoherenceKind k)
{
    return k == CoherenceKind::Mesi ? "mesi" : "msi";
}

const char *
transportName(TransportKind k)
{
    return k == TransportKind::Snoop ? "snoop" : "dir";
}

bool
parseCoherence(const std::string &s, CoherenceKind &out)
{
    if (s == "mesi") {
        out = CoherenceKind::Mesi;
        return true;
    }
    if (s == "msi") {
        out = CoherenceKind::Msi;
        return true;
    }
    return false;
}

bool
parseTransport(const std::string &s, TransportKind &out)
{
    if (s == "snoop") {
        out = TransportKind::Snoop;
        return true;
    }
    if (s == "dir") {
        out = TransportKind::Directory;
        return true;
    }
    return false;
}

} // namespace pm::mem
