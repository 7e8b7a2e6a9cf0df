#include "svc/jobspec.hh"

#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "sim/context.hh"
#include "sim/logging.hh"

namespace pm::svc {

namespace {

/** printf-append into a std::string (rows render off-thread). */
void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Check that `us` microseconds converts, the way runPoint() converts
 * it, to a whole number of ticks in [1, kTickNever). On failure `err`
 * starts with `what` and says which bound was missed.
 */
bool
checkTicks(const char *what, double us, std::string &err)
{
    const double t = us * static_cast<double>(kTicksPerUs);
    if (t >= 1.0 && t < static_cast<double>(kTickNever))
        return true;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s of %g us %s", what, us,
                  t < 1.0 ? "rounds to 0 ticks (1 tick = 1 ps)"
                          : "overflows the 64-bit tick clock");
    err = buf;
    return false;
}

const std::set<std::string> &
knownKeys()
{
    static const std::set<std::string> k = {
        "machine", "clusters", "nodes", "uplinks", "fifo",
        "coherence", "replacement", "transport", "node-cpus",
        "fault-ber", "fault-drop", "fault-seed", "fault-link-down",
        "watchdog", "watchdog-deadline", "dump-file",
        "src", "dst", "bytes", "count", "op", "seed", "stats",
        "strict", "sweep", "jobs", "deadline-us",
    };
    return k;
}

const std::set<std::string> &
knownOps()
{
    static const std::set<std::string> k = {"latency", "gap", "unibw",
                                            "bibw", "soak"};
    return k;
}

const std::set<std::string> &
knownAxes()
{
    static const std::set<std::string> k = {"bytes", "count", "nodes",
                                            "clusters", "fifo", "ber"};
    return k;
}

/** Tokens -> key/value map with pmsim's argv conventions. */
bool
tokenize(const std::vector<std::string> &tokens,
         std::map<std::string, std::string> &kv, std::string &err)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        std::string key = tokens[i];
        if (key.rfind("--", 0) != 0) {
            err = "unexpected argument '" + key + "' (flags are --key)";
            return false;
        }
        key = key.substr(2);
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            kv[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < tokens.size() &&
                   tokens[i + 1].rfind("--", 0) != 0) {
            kv[key] = tokens[++i];
        } else {
            kv[key] = "";
        }
    }
    return true;
}

/** Strict numeric lookups; a false return leaves `err` set. */
struct Fields
{
    const std::map<std::string, std::string> &kv;
    std::string &err;

    bool has(const std::string &k) const { return kv.count(k) > 0; }

    std::string
    str(const std::string &k, const std::string &dflt) const
    {
        const auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    bool
    num(const std::string &k, unsigned &out) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            return true;
        if (!sim::parse::u32(it->second.c_str(), out)) {
            err = "--" + k + " expects an unsigned number, got '" +
                  it->second + "'";
            return false;
        }
        return true;
    }

    bool
    u64(const std::string &k, std::uint64_t &out) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            return true;
        if (!sim::parse::u64(it->second.c_str(), out)) {
            err = "--" + k + " expects an unsigned number, got '" +
                  it->second + "'";
            return false;
        }
        return true;
    }

    bool
    dbl(const std::string &k, double &out) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            return true;
        if (!sim::parse::f64(it->second.c_str(), out)) {
            err = "--" + k + " expects a number, got '" + it->second +
                  "'";
            return false;
        }
        return true;
    }
};

/** Topology/range checks on a (base or fully-resolved) spec. */
bool
validatePoint(const JobSpec &s, std::string &err)
{
    if (s.clusters < 1 || s.nodes < 1) {
        err = "needs at least 1 cluster and 1 node per cluster";
        return false;
    }
    if (s.clusters > 1 && s.uplinks < 1) {
        err = "needs at least 1 uplink when clusters > 1";
        return false;
    }
    if (s.fifo < 1) {
        err = "needs an NI FIFO of at least 1 word";
        return false;
    }
    if (s.bytes < 1 || s.count < 1) {
        err = "needs --bytes >= 1 and --count >= 1";
        return false;
    }
    const unsigned numNodes = s.clusters * s.nodes;
    if (s.src >= numNodes || s.dst >= numNodes) {
        err.clear();
        appendf(err, "--src/--dst must be < %u (clusters * nodes)",
                numNodes);
        return false;
    }
    if (s.src == s.dst) {
        err = "--src and --dst must differ";
        return false;
    }
    if (s.ber < 0.0 || s.ber > 1.0 || s.drop < 0.0 || s.drop > 1.0) {
        err = "--fault-ber/--fault-drop must be in [0, 1]";
        return false;
    }
    return true;
}

} // namespace

bool
JobSpec::parse(const std::vector<std::string> &tokens, JobSpec &out,
               std::string &err)
{
    out = JobSpec{};
    if (tokens.size() > 64) {
        err = "too many arguments (max 64 tokens per job)";
        return false;
    }
    std::map<std::string, std::string> kv;
    if (!tokenize(tokens, kv, err))
        return false;
    for (const auto &[key, value] : kv) {
        (void)value;
        if (knownKeys().count(key) == 0) {
            err = "unknown flag '--" + key + "'";
            return false;
        }
    }
    const Fields f{kv, err};

    out.machine = f.str("machine", out.machine);
    if (!machines::isKnown(out.machine)) {
        err = "unknown machine '" + out.machine +
              "' (powermanna|sun|pc180|pc266)";
        return false;
    }

    const std::string coh =
        f.str("coherence", mem::coherenceName(out.coherence));
    if (!mem::parseCoherence(coh, out.coherence)) {
        err = "--coherence expects msi or mesi, got '" + coh + "'";
        return false;
    }
    const std::string repl =
        f.str("replacement", mem::replacementName(out.replacement));
    if (!mem::parseReplacement(repl, out.replacement)) {
        err = "--replacement expects lru or srrip, got '" + repl + "'";
        return false;
    }
    const std::string tr =
        f.str("transport", mem::transportName(out.transport));
    if (!mem::parseTransport(tr, out.transport)) {
        err = "--transport expects snoop or dir, got '" + tr + "'";
        return false;
    }
    if (out.transport == mem::TransportKind::Directory &&
        !machines::byName(out.machine).bus.splitTransactions) {
        err = "--transport dir needs a split-transaction machine "
              "(powermanna|sun); '" +
              out.machine + "' holds its bus circuit-switched";
        return false;
    }
    // Resolve the node's processor count so canonical() is explicit.
    out.nodeCpus = machines::byName(out.machine).numCpus;
    if (f.has("node-cpus")) {
        if (!f.num("node-cpus", out.nodeCpus))
            return false;
        if (out.nodeCpus < 1 || out.nodeCpus > 8) {
            err = "--node-cpus must be in 1..8 (the paper's node "
                  "design-study range)";
            return false;
        }
    }
    if (!f.num("clusters", out.clusters) || !f.num("nodes", out.nodes) ||
        !f.num("uplinks", out.uplinks) || !f.num("fifo", out.fifo) ||
        !f.num("src", out.src) || !f.num("dst", out.dst) ||
        !f.num("bytes", out.bytes) || !f.num("count", out.count) ||
        !f.num("jobs", out.jobs) ||
        !f.u64("fault-seed", out.faultSeed) ||
        !f.u64("seed", out.soakSeed) || !f.dbl("fault-ber", out.ber) ||
        !f.dbl("fault-drop", out.drop))
        return false;

    if (f.has("fault-link-down")) {
        const std::string w = f.str("fault-link-down", "");
        const auto colon = w.find(':');
        double from = 0.0;
        double to = 0.0;
        if (colon == std::string::npos ||
            !sim::parse::f64(w.substr(0, colon).c_str(), from) ||
            !sim::parse::f64(w.substr(colon + 1).c_str(), to)) {
            err = "--fault-link-down expects FROM:TO (microseconds), "
                  "got '" +
                  w + "'";
            return false;
        }
        if (from < 0.0 || to <= from) {
            err = "--fault-link-down window is empty or negative";
            return false;
        }
        out.haveLinkDown = true;
        out.linkDown.from = static_cast<Tick>(from * kTicksPerUs);
        out.linkDown.to = static_cast<Tick>(to * kTicksPerUs);
    }

    if (f.has("watchdog")) {
        out.watchdog = true;
        if (!f.dbl("watchdog", out.watchdogUs))
            return false;
        if (out.watchdogUs <= 0.0) {
            err = "--watchdog expects a scan interval in microseconds";
            return false;
        }
        if (!f.dbl("watchdog-deadline", out.watchdogDeadlineUs))
            return false;
        if (out.watchdogDeadlineUs < 0.0) {
            err = "--watchdog-deadline must be >= 0";
            return false;
        }
    } else if (f.has("watchdog-deadline")) {
        err = "--watchdog-deadline requires --watchdog";
        return false;
    }

    if (f.has("deadline-us")) {
        if (out.watchdog) {
            err = "use either --deadline-us or "
                  "--watchdog/--watchdog-deadline, not both";
            return false;
        }
        double deadline = 0.0;
        if (!f.dbl("deadline-us", deadline))
            return false;
        if (deadline <= 0.0) {
            err = "--deadline-us expects a positive deadline in "
                  "microseconds";
            return false;
        }
        // One mechanism: the deadline is a watchdog with a scan
        // granularity fine enough to trip within ~1/8 of overshoot.
        out.watchdog = true;
        out.watchdogUs = deadline / 8.0;
        out.watchdogDeadlineUs = deadline;
    }

    // runPoint() converts both times to whole ticks, and the monitor
    // pm_fatals on a zero scan interval: reject here what would round
    // to zero or overflow a Tick. A zero deadline means the monitor's
    // default, 10x the interval.
    if (out.watchdog) {
        const bool folded = f.has("deadline-us");
        const double deadlineUs = out.watchdogDeadlineUs > 0.0
                                      ? out.watchdogDeadlineUs
                                      : 10.0 * out.watchdogUs;
        if (!checkTicks(folded ? "--deadline-us: the watchdog scan "
                                 "interval (deadline / 8)"
                               : "--watchdog: the scan interval",
                        out.watchdogUs, err) ||
            !checkTicks(folded ? "--deadline-us: the deadline"
                               : "--watchdog: the stall deadline",
                        deadlineUs, err))
            return false;
    }

    out.dumpFile = f.str("dump-file", "");

    out.op = f.str("op", out.op);
    if (knownOps().count(out.op) == 0) {
        err = "unknown op '" + out.op +
              "' (latency|gap|unibw|bibw|soak)";
        return false;
    }
    out.stats = f.has("stats");
    out.strict = f.has("strict");
    if (out.strict && out.op != "soak") {
        err = "--strict applies only to --op soak";
        return false;
    }

    if (f.has("sweep")) {
        if (!sim::parse::axisSpec(f.str("sweep", ""), out.sweep, err)) {
            err = "--sweep: " + err;
            return false;
        }
        if (knownAxes().count(out.sweep.axis) == 0) {
            err = "unknown sweep axis '" + out.sweep.axis +
                  "' (bytes|count|nodes|clusters|fifo|ber)";
            return false;
        }
        out.haveSweep = true;
    }

    // Range checks on the base spec and (cheaply, without expanding
    // pointSpec copies) every sweep point: a job the parser accepts
    // must never pm_fatal mid-run.
    if (!validatePoint(out, err))
        return false;
    if (out.haveSweep) {
        for (std::size_t i = 0; i < out.sweep.values.size(); ++i) {
            const double v = out.sweep.values[i];
            if (out.sweep.axis == "ber") {
                if (v < 0.0 || v > 1.0) {
                    err = "--sweep: ber values must be in [0, 1]";
                    return false;
                }
                continue;
            }
            if (v < 1.0) {
                err = "--sweep: " + out.sweep.axis +
                      " values must be >= 1";
                return false;
            }
            // Only the topology axes can invalidate src/dst/uplinks.
            const unsigned clusters =
                out.sweep.axis == "clusters" ? static_cast<unsigned>(v)
                                             : out.clusters;
            const unsigned nodes = out.sweep.axis == "nodes"
                                       ? static_cast<unsigned>(v)
                                       : out.nodes;
            if (clusters > 1 && out.uplinks < 1) {
                err = "--sweep point " + out.pointLabel(i) +
                      ": needs at least 1 uplink when clusters > 1";
                return false;
            }
            if (out.src >= clusters * nodes ||
                out.dst >= clusters * nodes) {
                err = "--sweep point " + out.pointLabel(i) +
                      ": --src/--dst out of range for the swept "
                      "topology";
                return false;
            }
        }
    }
    return true;
}

void
JobSpec::applyAxisValue(const std::string &axis, double v)
{
    if (axis == "bytes")
        bytes = static_cast<unsigned>(v);
    else if (axis == "count")
        count = static_cast<unsigned>(v);
    else if (axis == "nodes")
        nodes = static_cast<unsigned>(v);
    else if (axis == "clusters")
        clusters = static_cast<unsigned>(v);
    else if (axis == "fifo")
        fifo = static_cast<unsigned>(v);
    else if (axis == "ber")
        ber = v;
    else
        pm_panic("unvalidated sweep axis '%s'", axis.c_str());
}

JobSpec
JobSpec::pointSpec(std::size_t i) const
{
    JobSpec pt = *this;
    if (haveSweep) {
        pt.applyAxisValue(sweep.axis, sweep.values.at(i));
        pt.haveSweep = false;
        pt.sweep = sim::parse::AxisSpec{};
    }
    return pt;
}

std::string
JobSpec::pointLabel(std::size_t i) const
{
    if (!haveSweep)
        return "";
    char buf[64];
    const double v = sweep.values.at(i);
    if (sweep.axis == "ber")
        std::snprintf(buf, sizeof(buf), "%s=%g", sweep.axis.c_str(), v);
    else
        std::snprintf(buf, sizeof(buf), "%s=%u", sweep.axis.c_str(),
                      static_cast<unsigned>(v));
    return buf;
}

std::string
JobSpec::canonical() const
{
    pm_assert(!haveSweep,
              "canonical() is defined on single-point specs only");
    std::string out;
    appendf(out, "machine=%s\n", machine.c_str());
    appendf(out, "coherence=%s\nreplacement=%s\ntransport=%s\n"
                 "node-cpus=%u\n",
            mem::coherenceName(coherence),
            mem::replacementName(replacement),
            mem::transportName(transport), nodeCpus);
    appendf(out, "clusters=%u\nnodes=%u\nuplinks=%u\nfifo=%u\n",
            clusters, nodes, uplinks, fifo);
    appendf(out, "ber=%.17g\ndrop=%.17g\nfault-seed=%llu\n", ber, drop,
            static_cast<unsigned long long>(faultSeed));
    if (haveLinkDown)
        appendf(out, "link-down=%llu:%llu\n",
                static_cast<unsigned long long>(linkDown.from),
                static_cast<unsigned long long>(linkDown.to));
    else
        out += "link-down=none\n";
    appendf(out, "watchdog=%d:%.17g:%.17g\n", watchdog ? 1 : 0,
            watchdogUs, watchdogDeadlineUs);
    appendf(out, "src=%u\ndst=%u\nbytes=%u\ncount=%u\n", src, dst,
            bytes, count);
    appendf(out, "op=%s\nsoak-seed=%llu\nstats=%d\nstrict=%d\n",
            op.c_str(), static_cast<unsigned long long>(soakSeed),
            stats ? 1 : 0, strict ? 1 : 0);
    return out;
}

std::string
runPoint(const JobSpec &spec)
{
    pm_assert(spec.numPoints() == 1,
              "runPoint() takes a single-point spec (use pointSpec)");
    msg::SystemParams sp;
    sp.node = machines::byName(spec.machine);
    sp.node.coherence = spec.coherence;
    sp.node.replacement = spec.replacement;
    sp.node.transport = spec.transport;
    if (spec.nodeCpus != 0)
        sp.node.numCpus = spec.nodeCpus;
    sp.fabric.clusters = spec.clusters;
    sp.fabric.nodesPerCluster = spec.nodes;
    sp.fabric.uplinksPerCluster = spec.clusters > 1 ? spec.uplinks : 0;
    sp.fabric.ni.fifoWords = spec.fifo;

    // Fault injection: configured before the System so the fabric's
    // links snapshot the config as they are built. The model must
    // outlive the System.
    sim::FaultModel fault(spec.faultSeed);
    fault.defaults.ber = spec.ber;
    fault.defaults.drop = spec.drop;
    if (spec.haveLinkDown)
        fault.defaults.down.push_back(spec.linkDown);
    if (fault.anyConfigured())
        sp.fabric.fault = &fault;

    msg::System sys(sp);
    // Bind this machine's ambient context for the whole point: any
    // panic below — including the strict-mode one raised here, after
    // the probes' own Scope has unwound — resolves this System's
    // forensic dump hooks, never a bystander's.
    sim::Context::Scope scope(sys.context());

    // Health: the watchdog is opt-in (zero events when off); the
    // quiescent-machine auditors are always on.
    if (spec.watchdog)
        sys.health().enableWatchdog(
            static_cast<Tick>(spec.watchdogUs * kTicksPerUs),
            static_cast<Tick>(spec.watchdogDeadlineUs * kTicksPerUs));
    if (!spec.dumpFile.empty())
        sys.health().setDumpFile(spec.dumpFile);

    std::string out;
    if (spec.op == "latency") {
        appendf(out, "one-way latency %u B: %.2f us\n", spec.bytes,
                msg::measureOneWayLatencyUs(sys, spec.src, spec.dst,
                                            spec.bytes));
    } else if (spec.op == "gap") {
        appendf(out, "gap %u B: %.2f us/message\n", spec.bytes,
                msg::measureGapUs(sys, spec.src, spec.dst, spec.bytes,
                                  spec.count));
    } else if (spec.op == "unibw") {
        appendf(out, "unidirectional %u B: %.1f MB/s\n", spec.bytes,
                msg::measureUnidirectionalMBps(sys, spec.src, spec.dst,
                                               spec.bytes, spec.count));
    } else if (spec.op == "bibw") {
        appendf(out, "bidirectional %u B: %.1f MB/s total\n",
                spec.bytes,
                msg::measureBidirectionalMBps(sys, spec.src, spec.dst,
                                              spec.bytes, spec.count));
    } else if (spec.op == "soak") {
        std::ostringstream driverStats;
        const auto r = msg::runDeliverySoak(
            sys, spec.src, spec.dst, spec.bytes, spec.count,
            spec.soakSeed,
            /*window=*/16, spec.stats ? &driverStats : nullptr);
        if (spec.strict &&
            (!r.intact || r.delivered != spec.count || r.senderDead ||
             r.receiverDead)) {
            pm_panic("strict soak failed: delivered %u/%u%s%s%s",
                     r.delivered, spec.count,
                     r.intact ? "" : ", payload corrupted",
                     r.senderDead ? ", sender gave up" : "",
                     r.receiverDead ? ", receiver gave up" : "");
        }
        appendf(out, "soak %u x %u B: delivered %u/%u %s in %.1f us\n",
                spec.count, spec.bytes, r.delivered, spec.count,
                r.intact ? "intact" : "CORRUPTED", r.elapsedUs);
        appendf(out,
                "  retransmits          %.0f\n"
                "  crc_drops            %.0f\n"
                "  duplicate_discards   %.0f\n"
                "  out_of_order_discards %.0f\n"
                "  timeouts             %.0f\n"
                "  acks_sent            %.0f\n"
                "  nacks_sent           %.0f\n"
                "  delivery_failures    %.0f\n"
                "  receiver_failures    %.0f\n",
                r.retransmits, r.crcDrops, r.duplicateDiscards,
                r.outOfOrderDiscards, r.timeouts, r.acksSent,
                r.nacksSent, r.deliveryFailures, r.receiverFailures);
        if (r.senderDead || r.receiverDead)
            appendf(out, "  peer death: %s%s%s\n",
                    r.senderDead ? "sender gave up" : "",
                    r.senderDead && r.receiverDead ? ", " : "",
                    r.receiverDead ? "receiver gave up" : "");
        out += driverStats.str();
    } else {
        pm_panic("unvalidated op '%s'", spec.op.c_str());
    }
    if (spec.stats) {
        std::ostringstream os;
        fault.stats().dump(os);
        sys.health().stats().dump(os);
        out += os.str();
    }
    return out;
}

} // namespace pm::svc
