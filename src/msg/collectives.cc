#include "msg/collectives.hh"

#include <algorithm>
#include <functional>

#include "sim/context.hh"
#include "sim/logging.hh"

namespace pm::msg {

Communicator::Communicator(System &sys, std::vector<unsigned> nodes)
    : _sys(sys),
      _nodes(std::move(nodes))
{
    if (_nodes.size() < 2)
        pm_fatal("communicator: need at least two ranks");
    for (unsigned n : _nodes)
        _comms.push_back(std::make_unique<PmComm>(sys, n));
}

unsigned
Communicator::rounds() const
{
    unsigned r = 0;
    while ((1u << r) < size())
        ++r;
    return r;
}

namespace {

/**
 * Start time for an operation: the latest participant clock. Called
 * only on a drained machine (construction or post-drain).
 */
Tick
opStart(System &sys, std::vector<std::unique_ptr<PmComm>> &comms)
{
    Tick t = sys.queue().now();
    for (auto &c : comms)
        t = std::max(t, c->proc().time());
    return t;
}

/**
 * A rank's completion stamp, taken *inside* its completing callback:
 * the executing event's tick joined with the rank's processor clock.
 */
Tick
finishStamp(PmComm &comm)
{
    return std::max(comm.now(), comm.proc().time());
}

/**
 * End a collective: step the machine until every rank has finished,
 * take the latest finish stamp, then drain the trailing ACK
 * handshakes and run the residual timers dry, so the next operation
 * starts from a quiet, audited machine at the clock they leave.
 * @return Duration from `start` to the latest finish.
 */
template <typename RankState>
Tick
finish(System &sys, const std::vector<RankState> &st, Tick start)
{
    // Bind the owning System's context so a stall's panic carries
    // *its* tick and forensics, not a bystander simulation's.
    sim::Context::Scope scope(sys.context());
    const auto done = [&] {
        for (const RankState &s : st)
            if (!s.finished)
                return false;
        return true;
    };
    while (!done() && sys.queue().step()) {
    }
    if (!done())
        pm_panic("collective stalled: event queue drained before "
                 "completion");
    Tick end = start;
    for (const RankState &s : st)
        end = std::max(end, s.finishTick);
    if (!sys.drain("collective"))
        pm_panic("collective drain stalled: an endpoint gave up on a "
                 "peer");
    sys.runDry();
    return end - start;
}

} // namespace

Tick
Communicator::barrier()
{
    const unsigned p = size();
    const unsigned R = rounds();
    const Tick start = opStart(_sys, _comms);

    // Rank r's progress; finish() scans the finished flags between
    // events.
    struct RankState
    {
        unsigned round = 0; //!< Next round to start.
        bool sendDone = true;
        std::vector<bool> tokenSeen; //!< Arrived round tokens.
        bool finished = false;
        Tick finishTick = 0;
    };
    std::vector<RankState> st(p);
    for (auto &s : st)
        s.tokenSeen.assign(R, false);

    // Every rank receives exactly one token per round, but arrival
    // order can cross rounds under skew; tokens carry their round.
    std::function<void(unsigned)> advance = [&](unsigned r) {
        RankState &s = st[r];
        while (!s.finished && s.sendDone &&
               (s.round == 0 || s.tokenSeen[s.round - 1])) {
            if (s.round == R) {
                s.finished = true;
                s.finishTick = finishStamp(*_comms[r]);
                break;
            }
            const unsigned k = s.round++;
            const unsigned peer = (r + (1u << k)) % p;
            s.sendDone = false;
            _comms[r]->postSend(_nodes[peer], {k},
                                [&, r] {
                                    st[r].sendDone = true;
                                    advance(r);
                                });
        }
    };

    for (unsigned r = 0; r < p; ++r) {
        for (unsigned k = 0; k < R; ++k) {
            _comms[r]->postRecv(
                [&, r](std::vector<std::uint64_t> w, bool ok) {
                    if (!ok || w.size() != 1 || w[0] >= R)
                        pm_panic("barrier token corrupted");
                    st[r].tokenSeen[w[0]] = true;
                    advance(r);
                });
        }
    }
    for (unsigned r = 0; r < p; ++r)
        advance(r);

    return finish(_sys, st, start);
}

Tick
Communicator::broadcast(unsigned root,
                        const std::vector<std::uint64_t> &words)
{
    const unsigned p = size();
    const unsigned R = rounds();
    if (root >= p)
        pm_fatal("broadcast: bad root %u", root);
    const Tick start = opStart(_sys, _comms);

    // Rank r finishes once it holds the payload and its last subtree
    // send has completed.
    struct RankState
    {
        bool have = false;
        unsigned sendsLeft = 0;
        bool finished = false;
        Tick finishTick = 0;
    };
    std::vector<RankState> st(p);

    // Virtual ranks relative to the root.
    auto vrel = [&](unsigned r) { return (r + p - root) % p; };
    auto real = [&](unsigned v) { return (v + root) % p; };

    auto finishIfIdle = [&](unsigned r) {
        RankState &s = st[r];
        if (!s.finished && s.have && s.sendsLeft == 0) {
            s.finished = true;
            s.finishTick = finishStamp(*_comms[r]);
        }
    };

    std::function<void(unsigned)> sendPhase = [&](unsigned v) {
        // Once rank v holds the data it feeds all its subtree peers.
        const unsigned r = real(v);
        unsigned firstK = 0;
        while (v >= (1u << firstK))
            ++firstK;
        for (unsigned k = firstK; k < R; ++k) {
            const unsigned peerV = v + (1u << k);
            if (peerV >= p)
                continue;
            ++st[r].sendsLeft;
            _comms[r]->postSend(_nodes[real(peerV)], words, [&, r] {
                if (--st[r].sendsLeft == 0)
                    finishIfIdle(r);
            });
        }
        finishIfIdle(r);
    };

    for (unsigned r = 0; r < p; ++r) {
        const unsigned v = vrel(r);
        if (v == 0)
            continue;
        _comms[r]->postRecv(
            [&, r, v](std::vector<std::uint64_t> got, bool ok) {
                if (!ok || got != words)
                    pm_panic("broadcast payload corrupted");
                st[r].have = true;
                sendPhase(v);
            });
    }
    st[root].have = true;
    sendPhase(0);

    return finish(_sys, st, start);
}

Tick
Communicator::reduceSum(
    unsigned root,
    const std::vector<std::vector<std::uint64_t>> &contributions,
    std::vector<std::uint64_t> &result)
{
    const unsigned p = size();
    const unsigned R = rounds();
    if (contributions.size() != p)
        pm_fatal("reduceSum: need one contribution per rank");
    const std::size_t len = contributions[0].size();
    for (const auto &c : contributions)
        if (c.size() != len)
            pm_fatal("reduceSum: contributions differ in length");
    const Tick start = opStart(_sys, _comms);

    // Indexed by *virtual* rank: entry v is real rank real(v)'s
    // accumulator. The root's result is copied out after the run.
    struct RankState
    {
        std::vector<std::uint64_t> acc;
        unsigned round = 0;
        unsigned pendingRecvs = 0;
        bool sent = false;
        bool finished = false;
        Tick finishTick = 0;
    };
    std::vector<RankState> st(p);

    auto vrel = [&](unsigned r) { return (r + p - root) % p; };
    auto real = [&](unsigned v) { return (v + root) % p; };
    for (unsigned r = 0; r < p; ++r)
        st[vrel(r)].acc = contributions[r];

    // Rank v (virtual) receives from v + 2^k for every k with
    // v % 2^(k+1) == 0 and v + 2^k < p, then (if v != 0) sends its
    // accumulation to v - 2^k at its first set bit.
    std::function<void(unsigned)> advance = [&](unsigned v) {
        RankState &s = st[v];
        if (s.sent || s.pendingRecvs > 0)
            return;
        while (s.round < R) {
            const unsigned k = s.round;
            if (v & (1u << k)) {
                // Our turn to send up the tree.
                s.sent = true;
                _comms[real(v)]->postSend(
                    _nodes[real(v - (1u << k))], s.acc, [&, v] {
                        st[v].finished = true;
                        st[v].finishTick =
                            finishStamp(*_comms[real(v)]);
                    });
                return;
            }
            if (v + (1u << k) < p) {
                // Wait for the child of this round.
                ++s.pendingRecvs;
                ++s.round;
                return; // resume when the recv completes
            }
            ++s.round;
        }
        if (v == 0) {
            s.finished = true;
            s.finishTick = finishStamp(*_comms[real(v)]);
        }
    };

    for (unsigned r = 0; r < p; ++r) {
        const unsigned v = vrel(r);
        // Pre-post one receive per expected child: rank v absorbs
        // children only for rounds below its own send round (its
        // lowest set bit); a stale extra receive would leak into the
        // next collective and mis-match its traffic.
        unsigned expected = 0;
        for (unsigned k = 0; k < R; ++k) {
            if (v & (1u << k))
                break; // v sends at round k and is done
            expected += v + (1u << k) < p;
        }
        for (unsigned i = 0; i < expected; ++i) {
            _comms[r]->postRecv(
                [&, v](std::vector<std::uint64_t> got, bool ok) {
                    RankState &s = st[v];
                    if (!ok || got.size() != s.acc.size())
                        pm_panic("reduce payload corrupted");
                    for (std::size_t w = 0; w < got.size(); ++w)
                        s.acc[w] += got[w];
                    // The combine costs real ALU work.
                    _comms[real(v)]->proc().intops(got.size());
                    --s.pendingRecvs;
                    advance(v);
                });
        }
    }
    for (unsigned v = 0; v < p; ++v)
        advance(v);

    const Tick elapsed = finish(_sys, st, start);
    result = st[0].acc;
    return elapsed;
}

Tick
Communicator::allReduceSum(
    const std::vector<std::vector<std::uint64_t>> &contributions,
    std::vector<std::uint64_t> &result)
{
    const Tick t1 = reduceSum(0, contributions, result);
    const Tick t2 = broadcast(0, result);
    return t1 + t2;
}

} // namespace pm::msg
