#include "sim/health.hh"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace pm::sim::health {

namespace {

/** vsnprintf into a std::string; findings are short diagnostics. */
std::string
vformat(const char *fmt, va_list args)
{
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    return std::string(buf);
}

} // namespace

void
Check::report(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    if (!_text.empty())
        _text += "; ";
    _text += _component;
    _text += ": ";
    _text += msg;
    ++_findings;
}

void
Auditor::check(bool ok, const char *fmt, ...)
{
    ++_checks;
    if (ok)
        return;
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    if (!_text.empty())
        _text += "; ";
    _text += _component;
    _text += ": ";
    _text += msg;
    ++_failures;
}

void
EventRing::dump(std::ostream &os, const char *indent) const
{
    // Oldest-first: once full, _head marks the oldest entry.
    const std::size_t n = _entries.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Entry &e = _entries[(_head + i) % n];
        os << indent << "[tick " << e.tick << "] " << e.what << " a=" << e.a
           << " b=" << e.b << "\n";
    }
}

Monitor::Monitor(EventQueue &queue) : _queue(queue)
{
    _stats.add(&_scans);
    _stats.add(&_auditsRun);
    _stats.add(&_auditChecks);
}

Monitor::~Monitor()
{
    disableWatchdog();
}

void
Monitor::add(Reporter *reporter)
{
    _reporters.push_back(reporter);
}

void
Monitor::remove(Reporter *reporter)
{
    for (auto it = _reporters.begin(); it != _reporters.end(); ++it) {
        if (*it == reporter) {
            _reporters.erase(it);
            return;
        }
    }
}

void
Monitor::enableWatchdog(Tick interval, Tick deadline)
{
    if (interval == 0)
        pm_fatal("health watchdog interval must be > 0");
    disableWatchdog();
    _interval = interval;
    _deadline = deadline ? deadline : 10 * interval;
    _scanEvent = _queue.scheduleIn(_interval, [this] { scan(); });
}

void
Monitor::disableWatchdog()
{
    if (_queue.scheduled(_scanEvent))
        (void)_queue.cancel(_scanEvent);
    _scanEvent = EventHandle{};
    _interval = 0;
}

void
Monitor::scan()
{
    Check check(_queue.now(), _deadline);
    for (Reporter *r : _reporters) {
        check.setComponent(r->healthName());
        r->checkHealth(check);
    }
    ++_scans;
    if (check.findings()) {
        // The trip message itself names every stalled component: the
        // one-line diagnosis survives even if the panic dump cannot
        // walk the (by definition suspect) machine state.
        pm_panic("health watchdog tripped: %u stalled component(s): %s",
                 check.findings(), check.text().c_str());
    }
    _scanEvent = _queue.scheduleIn(_interval, [this] { scan(); });
}

void
Monitor::runAudit(Auditor::Point point, const char *where)
{
    Auditor audit(point);
    for (Reporter *r : _reporters) {
        audit.setComponent(r->healthName());
        r->audit(audit);
    }
    // Event-slab census: a heap/slab disagreement means the kernel
    // lost track of a live event — catch it at the phase boundary,
    // not as an unexplained hang three runs later.
    const std::size_t live = _queue.liveRecords();
    const std::size_t pending = _queue.pending();
    audit.setComponent("event-queue");
    audit.check(live == pending,
                "slab live records %zu != pending %zu", live, pending);
    ++_auditsRun;
    _auditChecks += static_cast<double>(audit.checks());
    if (audit.failures()) {
        pm_panic("health audit failed at %s: %u of %u checks: %s", where,
                 audit.failures(), audit.checks(), audit.text().c_str());
    }
}

void
Monitor::dump(std::ostream &os) const
{
    os << "=== health dump [tick " << _queue.now() << "] ===\n";
    os << "event queue: pending=" << _queue.pending()
       << " executed=" << _queue.executed()
       << " cancelled=" << _queue.cancelledTotal()
       << " slab=" << _queue.slabSize() << "\n";
    for (const Reporter *r : _reporters) {
        os << "-- " << r->healthName() << " --\n";
        r->dumpState(os);
    }
    os << "=== end health dump ===\n";
}

void
Monitor::panicDump(std::ostream &os)
{
    if (_dumping)
        return;
    _dumping = true;
    try {
        std::ostringstream ss;
        dump(ss);
        const std::string text = ss.str();
        os << text;
        if (!_dumpFile.empty()) {
            std::ofstream out(_dumpFile, std::ios::app);
            if (out)
                out << text;
        }
    } catch (...) {
        // A reporter that dies walking the (by definition suspect)
        // machine state must not mask the original panic; the flag
        // still resets so the next independent point can dump.
    }
    _dumping = false;
}

} // namespace pm::sim::health
