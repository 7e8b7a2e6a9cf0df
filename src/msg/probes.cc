#include "msg/probes.hh"

#include <memory>

#include "sim/context.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace pm::msg {

std::vector<std::uint64_t>
makePayload(std::uint64_t bytes, std::uint64_t seed)
{
    const std::uint64_t words = (bytes + 7) / 8;
    sim::SplitMix64 rng(seed);
    std::vector<std::uint64_t> payload(words);
    for (auto &w : payload)
        w = rng.next();
    return payload;
}

double
measureOneWayLatencyUs(System &sys, unsigned a, unsigned b,
                       std::uint64_t bytes, unsigned iters)
{
    sim::Context::Scope scope(sys.context());
    sys.resetForRun();
    PmComm commA(sys, a);
    PmComm commB(sys, b);
    const auto payload = makePayload(bytes, /*seed=*/bytes + 1);

    // One warmup round trip, then `iters` timed ones. Timestamps are
    // read *inside* A's completion callbacks, so A's clock alone
    // defines the measured interval.
    unsigned remaining = iters + 1;
    Tick started = 0;
    Tick finished = 0;
    bool failedA = false;
    bool failedB = false;

    std::function<void()> fireA = [&] {
        commA.postSend(b, payload);
        commA.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            if (!crcOk || got != payload)
                failedA = true;
            if (remaining == iters + 1)
                started = commA.now(); // warmup done
            if (--remaining > 0)
                fireA();
            else
                finished = commA.now();
        });
    };
    // B echoes everything back.
    std::function<void()> armB = [&] {
        commB.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            if (!crcOk)
                failedB = true;
            commB.postSend(a, std::move(got));
            armB();
        });
    };

    armB();
    fireA();
    while (remaining > 0 && sys.queue().step()) {
    }
    if (failedA || failedB || remaining != 0)
        pm_panic("ping-pong corrupted a payload or stalled (%u left)",
                 remaining);

    const Tick total = finished - started;
    sys.drain("probe drain");
    return ticksToUs(total) / (2.0 * iters);
}

namespace {

/** Stream `count` messages a -> b; return total transfer ticks. */
Tick
streamOneWay(System &sys, unsigned a, unsigned b, std::uint64_t bytes,
             unsigned count)
{
    sim::Context::Scope scope(sys.context());
    sys.resetForRun();
    PmComm commA(sys, a);
    PmComm commB(sys, b);
    const auto payload = makePayload(bytes, bytes + 17);

    // Start on the machine clock; finish on the receiver's clock, read
    // inside its last completion callback.
    const Tick started = sys.queue().now();
    Tick finished = started;
    unsigned received = 0;
    bool failed = false;
    for (unsigned i = 0; i < count; ++i) {
        commA.postSend(b, payload);
        commB.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            if (!crcOk || got != payload)
                failed = true;
            if (++received == count)
                finished = commB.now();
        });
    }
    while (received < count && sys.queue().step()) {
    }
    if (failed || received != count)
        pm_panic("one-way stream lost or corrupted messages (%u/%u)",
                 received, count);
    const Tick total = finished - started;
    sys.drain("probe drain");
    return total;
}

} // namespace

double
measureGapUs(System &sys, unsigned a, unsigned b, std::uint64_t bytes,
             unsigned count)
{
    const Tick total = streamOneWay(sys, a, b, bytes, count);
    return ticksToUs(total) / count;
}

double
measureUnidirectionalMBps(System &sys, unsigned a, unsigned b,
                          std::uint64_t bytes, unsigned count)
{
    const Tick total = streamOneWay(sys, a, b, bytes, count);
    const double us = ticksToUs(total);
    return us > 0.0 ? (double(bytes) * count) / us : 0.0; // B/us == MB/s
}

double
measureBidirectionalMBps(System &sys, unsigned a, unsigned b,
                         std::uint64_t bytes, unsigned count)
{
    sim::Context::Scope scope(sys.context());
    sys.resetForRun();
    PmComm commA(sys, a);
    PmComm commB(sys, b);
    const auto payloadA = makePayload(bytes, bytes + 29);
    const auto payloadB = makePayload(bytes, bytes + 31);

    // Per-endpoint counters and finish ticks; the later finisher
    // defines the interval.
    const Tick started = sys.queue().now();
    Tick finishedA = started;
    Tick finishedB = started;
    unsigned receivedA = 0;
    unsigned receivedB = 0;
    bool failedA = false;
    bool failedB = false;
    for (unsigned i = 0; i < count; ++i) {
        commA.postSend(b, payloadA);
        commB.postSend(a, payloadB);
        commA.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            if (!crcOk || got != payloadB)
                failedA = true;
            if (++receivedA == count)
                finishedA = commA.now();
        });
        commB.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            if (!crcOk || got != payloadA)
                failedB = true;
            if (++receivedB == count)
                finishedB = commB.now();
        });
    }
    while (receivedA + receivedB < 2 * count && sys.queue().step()) {
    }
    if (failedA || failedB || receivedA + receivedB != 2 * count)
        pm_panic("bidirectional stream lost or corrupted messages "
                 "(%u/%u)",
                 receivedA + receivedB, 2 * count);

    const Tick finished =
        finishedA > finishedB ? finishedA : finishedB;
    const double us = ticksToUs(finished - started);
    sys.drain("probe drain");
    return us > 0.0 ? (2.0 * double(bytes) * count) / us : 0.0;
}

SoakResult
runDeliverySoak(System &sys, unsigned a, unsigned b,
                std::uint64_t bytes, unsigned count,
                std::uint64_t seed, unsigned window,
                std::ostream *statsOut)
{
    sim::Context::Scope scope(sys.context());
    sys.resetForRun();
    PmComm commA(sys, a);
    PmComm commB(sys, b);
    // Every other node runs an idle driver too: a corrupted header can
    // misdirect a NACK or re-ACK at any plausible node id, and on the
    // real machine the driver there drains and ignores it. With no
    // consumer the stray words pile up in that node's NI until flow
    // control backs the fabric up — and park words the quiescent
    // conservation audit can no longer find. Idle drivers schedule no
    // events; the NI's receive-activity wake-up revives them only when
    // traffic actually arrives.
    std::vector<std::unique_ptr<PmComm>> bystanders;
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        if (n != a && n != b)
            bystanders.push_back(std::make_unique<PmComm>(sys, n));

    SoakResult res;
    commA.onDeliveryFailure([&](unsigned, std::uint64_t, unsigned) {
        res.senderDead = true;
    });
    // The receiver's send path carries the ACK/NACK stream; if *it*
    // exhausts a retry budget the sender can never learn its messages
    // landed. Count it — swallowing these silently turned a dead
    // reverse channel into an unexplained stall.
    commB.onDeliveryFailure([&](unsigned, std::uint64_t, unsigned) {
        res.receiverFailures += 1.0;
        res.receiverDead = true;
    });

    // Keep at most `window` sends posted at once: go-back-N with an
    // unbounded window retransmits everything behind one loss.
    unsigned posted = 0;
    std::function<void()> postNext = [&] {
        if (posted >= count || res.senderDead)
            return;
        const unsigned i = posted++;
        commA.postSend(b, makePayload(bytes, seed + i),
                       [&] { postNext(); });
    };

    std::function<void()> armRecv = [&] {
        commB.postRecv([&](std::vector<std::uint64_t> got, bool crcOk) {
            const unsigned i = res.delivered++;
            if (!crcOk || got != makePayload(bytes, seed + i))
                res.intact = false;
            if (res.delivered < count)
                armRecv();
        });
    };

    const Tick started = sys.queue().now();
    armRecv();
    for (unsigned i = 0; i < window && i < count; ++i)
        postNext();
    while (res.delivered < count && !res.senderDead &&
           !res.receiverDead && sys.queue().step()) {
    }
    // Let in-flight ACKs and timers drain so the counters are final,
    // then run the stragglers: the elapsed stamp below runs to the
    // last of them. With a dead peer the machine never goes quiet, so
    // skip both and report what happened instead.
    if (!res.senderDead && !res.receiverDead && sys.drain("soak drain"))
        sys.runDry();
    res.elapsedUs = ticksToUs(sys.queue().now() - started);
    if (res.delivered != count)
        res.intact = false;

    const auto sum = [&](const sim::Scalar PmComm::*m) {
        return (commA.*m).value() + (commB.*m).value();
    };
    res.retransmits = sum(&PmComm::retransmits);
    res.crcDrops = sum(&PmComm::crcDrops);
    res.duplicateDiscards = sum(&PmComm::duplicateDiscards);
    res.outOfOrderDiscards = sum(&PmComm::outOfOrderDiscards);
    res.timeouts = sum(&PmComm::timeouts);
    res.acksSent = sum(&PmComm::acksSent);
    res.nacksSent = sum(&PmComm::nacksSent);
    res.deliveryFailures = sum(&PmComm::deliveryFailures);
    if (statsOut != nullptr) {
        commA.stats().dump(*statsOut);
        commB.stats().dump(*statsOut);
    }
    return res;
}

} // namespace pm::msg
