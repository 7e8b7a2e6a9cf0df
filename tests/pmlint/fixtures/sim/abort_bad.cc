// pmlint fixture: R3d no-raw-abort violations — terminating the
// process directly skips the panic path's tick print and the
// System's forensic dump. Never compiled; scanned by the golden test.
#include <cstdlib>

namespace pm {

void
die()
{
    std::abort(); // line 11: raw abort
}

void
bail()
{
    exit(2); // line 17: raw exit
}

} // namespace pm
