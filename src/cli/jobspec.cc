#include "cli/jobspec.hh"

#include <cstdarg>
#include <cstdio>
#include <limits>
#include <sstream>

#include "machines/machines.hh"
#include "msg/probes.hh"
#include "sim/context.hh"
#include "sim/logging.hh"

namespace pm::cli {

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
        "coherence", "transport", "node-cpus",
        "fault-ber", "fault-drop", "fault-seed", "fault-link-down",
        "watchdog", "watchdog-deadline", "dump-file",
        "src", "dst", "bytes", "count", "op", "seed", "stats",
        "sweep", "jobs",
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

/**
 * Range checks on one sweep-less point: everything the fabric, the
 * driver and the probes would otherwise pm_fatal on mid-run.
 */
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
    // runPoint() builds the fabric with the default crossbars.
    const unsigned ports = fabric::FabricParams{}.xbar.ports;
    if (s.clusters > ports) {
        err.clear();
        appendf(err,
                "--clusters %u exceeds the %u ports of a second-level "
                "crossbar",
                s.clusters, ports);
        return false;
    }
    const unsigned uplinks = s.clusters > 1 ? s.uplinks : 0;
    if (s.nodes > ports || uplinks > ports - s.nodes) {
        err.clear();
        appendf(err,
                "--nodes %u + %u uplinks exceed the %u ports of a "
                "cluster crossbar",
                s.nodes, uplinks, ports);
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
    if (s.bytes > msg::kMaxPayloadWords * sizeof(std::uint64_t)) {
        err.clear();
        appendf(err,
                "--bytes %u exceeds the driver's %u-word message "
                "payload",
                s.bytes, msg::kMaxPayloadWords);
        return false;
    }
    // gap/unibw/bibw post every message before the first ACK; a soak
    // keeps a window in flight and latency ignores --count.
    const bool streams =
        s.op == "gap" || s.op == "unibw" || s.op == "bibw";
    if (streams && s.count > msg::kMaxUnacked) {
        err.clear();
        appendf(err,
                "--count %u exceeds the driver's %u unacknowledged "
                "messages per destination (--op %s)",
                s.count, msg::kMaxUnacked, s.op.c_str());
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
tokenize(const std::vector<std::string> &tokens,
         const std::set<std::string> &known, FlagMap &out,
         std::string &err)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        std::string key = tokens[i];
        if (key.rfind("--", 0) != 0) {
            err = "unexpected argument '" + key + "' (flags are --key)";
            return false;
        }
        key = key.substr(2);
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < tokens.size() &&
                   tokens[i + 1].rfind("--", 0) != 0) {
            value = tokens[++i];
        }
        if (known.count(key) == 0) {
            err = "unknown flag '--" + key + "'";
            return false;
        }
        out[key] = value;
    }
    return true;
}

bool
Fields::machine(std::string &out) const
{
    out = str("machine", "powermanna");
    if (machines::isKnown(out))
        return true;
    err = "unknown machine '" + out + "' (powermanna|sun|pc180|pc266)";
    return false;
}

bool
JobSpec::parse(const std::vector<std::string> &tokens, JobSpec &out,
               std::string &err)
{
    out = JobSpec{};
    FlagMap kv;
    if (!tokenize(tokens, knownKeys(), kv, err))
        return false;
    const Fields f{kv, err};

    if (!f.machine(out.machine))
        return false;

    const std::string coh =
        f.str("coherence", mem::coherenceName(out.coherence));
    if (!mem::parseCoherence(coh, out.coherence)) {
        err = "--coherence expects msi or mesi, got '" + coh + "'";
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
        // A window may start at tick 0; any other end must convert to
        // a whole tick the FaultModel can hold.
        if ((from > 0.0 &&
             !checkTicks("--fault-link-down: the window start", from,
                         err)) ||
            !checkTicks("--fault-link-down: the window end", to, err))
            return false;
        out.haveLinkDown = true;
        out.linkDown.from = static_cast<Tick>(from * kTicksPerUs);
        out.linkDown.to = static_cast<Tick>(to * kTicksPerUs);
        if (out.linkDown.to <= out.linkDown.from) {
            err = "--fault-link-down window is shorter than 1 tick "
                  "(1 ps)";
            return false;
        }
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
        // runPoint() converts both times to whole ticks, and the
        // monitor pm_fatals on a zero scan interval: reject here what
        // would round to zero or overflow a Tick. A zero deadline means
        // the monitor's default, 10x the interval.
        const double deadlineUs = out.watchdogDeadlineUs > 0.0
                                      ? out.watchdogDeadlineUs
                                      : 10.0 * out.watchdogUs;
        if (!checkTicks("--watchdog: the scan interval", out.watchdogUs,
                        err) ||
            !checkTicks("--watchdog: the stall deadline", deadlineUs,
                        err))
            return false;
    } else if (f.has("watchdog-deadline")) {
        err = "--watchdog-deadline requires --watchdog";
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

    // Range checks on the job, or on every point of a sweep: a job the
    // parser accepts must never pm_fatal mid-run.
    if (!out.haveSweep)
        return validatePoint(out, err);
    JobSpec pt = out;
    pt.haveSweep = false;
    pt.sweep = sim::parse::AxisSpec{};
    for (std::size_t i = 0; i < out.sweep.values.size(); ++i) {
        const double v = out.sweep.values[i];
        // Every axis but ber is cast to unsigned.
        if (out.sweep.axis != "ber" &&
            !(v >= 1.0 && v <= std::numeric_limits<unsigned>::max())) {
            err.clear();
            appendf(err, "--sweep point %s=%g: must be in [1, %u]",
                    out.sweep.axis.c_str(), v,
                    std::numeric_limits<unsigned>::max());
            return false;
        }
        pt.applyAxisValue(out.sweep.axis, v);
        if (!validatePoint(pt, err)) {
            err = "--sweep point " + out.pointLabel(i) + ": " + err;
            return false;
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
runPoint(const JobSpec &spec)
{
    pm_assert(spec.numPoints() == 1,
              "runPoint() takes a single-point spec (see applyAxisValue)");
    msg::SystemParams sp;
    sp.node = machines::byName(spec.machine);
    sp.node.coherence = spec.coherence;
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
    // panic below resolves this System's forensic dump, never a
    // bystander's.
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

} // namespace pm::cli
