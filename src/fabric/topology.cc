#include "fabric/topology.hh"

#include <type_traits>

#include "sim/logging.hh"

namespace pm::fabric {

Fabric::Fabric(const FabricParams &params, sim::EventQueue &queue)
    : _p(params),
      _queue(queue)
{
    build();
}

void
Fabric::build()
{
    if (_p.clusters == 0 || _p.nodesPerCluster == 0 || _p.networks == 0)
        pm_fatal("fabric: empty topology");
    if (_p.nodesPerCluster + _p.uplinksPerCluster > _p.xbar.ports)
        pm_fatal("fabric: %u nodes + %u uplinks exceed the %u-port "
                 "crossbar",
                 _p.nodesPerCluster, _p.uplinksPerCluster, _p.xbar.ports);
    if (_p.clusters > 1 && _p.uplinksPerCluster == 0)
        pm_fatal("fabric: multiple clusters need uplinks");
    if (_p.clusters > _p.xbar.ports)
        pm_fatal("fabric: %u clusters exceed second-level crossbar ports",
                 _p.clusters);

    _nets.resize(_p.networks);
    for (unsigned n = 0; n < _p.networks; ++n)
        buildNetwork(n);
}

void
Fabric::buildNetwork(unsigned n)
{
    Network &net = _nets[n];
    const std::string tag = ".net" + std::to_string(n);

    // Cluster crossbars and node link interfaces.
    for (unsigned c = 0; c < _p.clusters; ++c) {
        net::CrossbarParams xp = _p.xbar;
        xp.name = "xbar.c" + std::to_string(c) + tag;
        xp.link.fault = _p.fault;
        net.clusterXbars.push_back(std::make_unique<net::Crossbar>(xp, _queue));
    }
    for (unsigned node = 0; node < numNodes(); ++node) {
        ni::LinkIfParams np = _p.ni;
        np.name = "ni.n" + std::to_string(node) + tag;
        np.link.fault = _p.fault;
        net.nis.push_back(std::make_unique<ni::LinkInterface>(np, _queue));

        net::Crossbar &xb = *net.clusterXbars[clusterOf(node)];
        const unsigned local = localIndex(node);
        net.nis.back()->connectOutput(xb.inputPort(local));
        xb.connectOutput(local, net.nis.back()->rxPort());
    }

    if (_p.clusters == 1)
        return;

    // Second-level crossbars, reached over asynchronous transceivers.
    for (unsigned u = 0; u < _p.uplinksPerCluster; ++u) {
        net::CrossbarParams xp = _p.xbar;
        xp.name = "xbar.l2u" + std::to_string(u) + tag;
        xp.link.fault = _p.fault;
        net.l2Xbars.push_back(std::make_unique<net::Crossbar>(xp, _queue));
    }
    for (unsigned c = 0; c < _p.clusters; ++c) {
        net::Crossbar &cx = *net.clusterXbars[c];
        for (unsigned u = 0; u < _p.uplinksPerCluster; ++u) {
            net::Crossbar &l2 = *net.l2Xbars[u];
            const unsigned upPort = _p.nodesPerCluster + u;

            net::TransceiverParams tp = _p.xcvr;
            tp.link.fault = _p.fault;
            tp.name = "xcvr.up.c" + std::to_string(c) + ".u" +
                      std::to_string(u) + tag;
            net.xcvrs.push_back(std::make_unique<net::Transceiver>(tp, _queue));
            net::Transceiver &up = *net.xcvrs.back();
            cx.connectOutput(upPort, up.inputPort());
            up.connectOutput(l2.inputPort(c));

            tp.name = "xcvr.down.c" + std::to_string(c) + ".u" +
                      std::to_string(u) + tag;
            net.xcvrs.push_back(std::make_unique<net::Transceiver>(tp, _queue));
            net::Transceiver &down = *net.xcvrs.back();
            l2.connectOutput(c, down.inputPort());
            down.connectOutput(cx.inputPort(upPort));
        }
    }
}

ni::LinkInterface &
Fabric::ni(unsigned node, unsigned net)
{
    if (net >= _p.networks || node >= numNodes())
        pm_fatal("fabric: ni(%u, %u) out of range", node, net);
    return *_nets[net].nis[node];
}

net::Crossbar &
Fabric::clusterXbar(unsigned c, unsigned net)
{
    if (net >= _p.networks || c >= _p.clusters)
        pm_fatal("fabric: clusterXbar(%u, %u) out of range", c, net);
    return *_nets[net].clusterXbars[c];
}

net::Crossbar &
Fabric::levelTwoXbar(unsigned u, unsigned net)
{
    if (net >= _p.networks || u >= _p.uplinksPerCluster ||
        _p.clusters == 1)
        pm_fatal("fabric: levelTwoXbar(%u, %u) out of range", u, net);
    return *_nets[net].l2Xbars[u];
}

std::vector<std::uint8_t>
Fabric::route(unsigned src, unsigned dst, unsigned spread) const
{
    if (src >= numNodes() || dst >= numNodes())
        pm_fatal("fabric: route %u -> %u out of range", src, dst);
    if (src == dst)
        pm_fatal("fabric: route to self (the node would deadlock on its "
                 "own full-duplex link)");
    const unsigned sc = clusterOf(src);
    const unsigned dc = clusterOf(dst);
    if (sc == dc) {
        // One crossbar: route straight to the destination node port.
        return {static_cast<std::uint8_t>(localIndex(dst))};
    }
    // Three crossbars: uplink u, destination cluster, destination node.
    const unsigned u = spread % _p.uplinksPerCluster;
    return {static_cast<std::uint8_t>(_p.nodesPerCluster + u),
            static_cast<std::uint8_t>(dc),
            static_cast<std::uint8_t>(localIndex(dst))};
}

namespace {

/** `e` with the constness of `Self`, which unique_ptr's `*` drops. */
template <typename Self, typename T>
std::conditional_t<std::is_const_v<Self>, const T, T> &
likeSelf(T &e)
{
    return e;
}

} // namespace

template <typename Self, typename Fn>
bool
Fabric::forEachElement(Self &self, Fn &&fn)
{
    const auto all = [&](const auto &elements) {
        for (const auto &e : elements)
            if (!fn(likeSelf<Self>(*e)))
                return false;
        return true;
    };
    for (const Network &net : self._nets)
        if (!all(net.nis) || !all(net.clusterXbars) || !all(net.l2Xbars) ||
            !all(net.xcvrs))
            return false;
    return true;
}

void
Fabric::registerHealth(sim::health::Monitor &monitor)
{
    forEachElement(*this, [&](auto &e) {
        monitor.add(&e);
        return true;
    });
}

bool
Fabric::wireQuiet() const
{
    return forEachElement(*this,
                          [](const auto &e) { return e.wireQuiet(); });
}

void
Fabric::reset()
{
    forEachElement(*this, [](auto &e) {
        e.reset();
        return true;
    });
}

} // namespace pm::fabric
