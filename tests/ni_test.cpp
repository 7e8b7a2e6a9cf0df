/**
 * @file
 * Unit tests for the link interface and CRC: FIFO status registers,
 * the send pump with hardware CRC insertion, the receive side's CRC
 * strip-and-check, corruption detection, dataless messages, flow
 * control, and the transceiver relay.
 */

#include <gtest/gtest.h>

#include <memory>

#include "net/fifo.hh"
#include "net/transceiver.hh"
#include "ni/crc32.hh"
#include "ni/linkinterface.hh"
#include "sim/event.hh"

namespace {

using namespace pm;
using namespace pm::net;
using pm::ni::Crc32;
using pm::ni::LinkIfParams;
using pm::ni::LinkInterface;

TEST(Crc32, KnownVectors)
{
    // CRC-32 of "123456789" (ASCII) is 0xCBF43926.
    std::uint32_t crc = 0xffffffffu;
    for (char c : std::string("123456789"))
        crc = Crc32::updateByte(crc, static_cast<std::uint8_t>(c));
    EXPECT_EQ(crc ^ 0xffffffffu, 0xCBF43926u);
}

TEST(Crc32, WordUpdateMatchesByteUpdate)
{
    Crc32 wordWise;
    wordWise.update(0x0807060504030201ull);
    std::uint32_t crc = 0xffffffffu;
    for (std::uint8_t b = 1; b <= 8; ++b)
        crc = Crc32::updateByte(crc, b);
    EXPECT_EQ(wordWise.value(), crc ^ 0xffffffffu);
}

TEST(Crc32, ResetRestarts)
{
    Crc32 a, b;
    a.update(123);
    a.reset();
    a.update(456);
    b.update(456);
    EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32, DifferentDataDifferentSum)
{
    Crc32 a, b;
    a.update(1);
    b.update(2);
    EXPECT_NE(a.value(), b.value());
}

/** Two link interfaces wired back to back (no crossbar). */
struct Pair
{
    sim::EventQueue queue;
    std::unique_ptr<LinkInterface> a;
    std::unique_ptr<LinkInterface> b;

    explicit Pair(unsigned fifoWords = 32)
    {
        LinkIfParams pa;
        pa.name = "a";
        pa.fifoWords = fifoWords;
        LinkIfParams pb = pa;
        pb.name = "b";
        a = std::make_unique<LinkInterface>(pa, queue);
        b = std::make_unique<LinkInterface>(pb, queue);
        a->connectOutput(b->rxPort());
        b->connectOutput(a->rxPort());
    }
};

TEST(LinkInterface, StatusRegistersStartEmpty)
{
    Pair p;
    EXPECT_EQ(p.a->sendSpace(), 32u);
    EXPECT_EQ(p.a->recvAvailable(), 0u);
    EXPECT_EQ(p.a->messagesReceived(), 0u);
}

TEST(LinkInterface, WordsCrossTheLink)
{
    Pair p;
    p.a->pushSend(Symbol::makeData(0x1111), 0);
    p.a->pushSend(Symbol::makeData(0x2222), 0);
    p.a->pushSend(Symbol::makeClose(), 0);
    p.queue.run();
    // Both words visible (the CRC word was stripped).
    ASSERT_EQ(p.b->recvAvailable(), 2u);
    EXPECT_EQ(p.b->popRecv(), 0x1111u);
    EXPECT_EQ(p.b->popRecv(), 0x2222u);
    EXPECT_EQ(p.b->messagesReceived(), 1u);
    ASSERT_TRUE(p.b->frontMessageDrained());
    EXPECT_TRUE(p.b->consumeMessage().crcOk);
    EXPECT_EQ(p.b->crcErrors.value(), 0.0);
}

TEST(LinkInterface, LastWordWaitsForCrcConfirmation)
{
    Pair p;
    p.a->pushSend(Symbol::makeData(0xAA), 0);
    // No close yet: the single word stays staged (it might be the
    // CRC of a finished message).
    p.queue.run();
    EXPECT_EQ(p.b->recvAvailable(), 0u);
    p.a->pushSend(Symbol::makeClose(), p.queue.now());
    p.queue.run();
    EXPECT_EQ(p.b->recvAvailable(), 1u);
}

TEST(LinkInterface, CorruptionIsDetected)
{
    // Wire a raw fifo in the middle so the payload can be tampered
    // with between the interfaces.
    sim::EventQueue queue;
    LinkIfParams pa;
    pa.name = "a";
    LinkIfParams pb;
    pb.name = "b";
    LinkInterface a(pa, queue), b(pb, queue);
    InputFifo wire("wire", 64);
    a.connectOutput(&wire);

    a.pushSend(Symbol::makeData(0xBEEF), 0);
    a.pushSend(Symbol::makeClose(), 0);
    queue.run();
    // Forward manually, flipping a payload bit.
    bool first = true;
    while (!wire.empty()) {
        Symbol s = wire.pop();
        if (s.kind == SymKind::Data && first) {
            s.data ^= 1;
            first = false;
        }
        b.rxPort()->push(s);
    }
    EXPECT_EQ(b.messagesReceived(), 1u);
    ASSERT_TRUE(b.messageComplete());
    EXPECT_FALSE(b.frontMessage().crcOk);
    EXPECT_EQ(b.crcErrors.value(), 1.0);
}

TEST(LinkInterface, QueuedBehindMessageCannotMaskAnError)
{
    // A clean message completing right after a corrupted one must not
    // overwrite the bad verdict: each completed message carries its
    // own.
    sim::EventQueue queue;
    LinkIfParams pa;
    pa.name = "a";
    LinkIfParams pb;
    pb.name = "b";
    LinkInterface a(pa, queue), b(pb, queue);
    InputFifo wire("wire", 64);
    a.connectOutput(&wire);

    a.pushSend(Symbol::makeData(0xBAD), 0);
    a.pushSend(Symbol::makeClose(), 0);
    a.pushSend(Symbol::makeData(0x600D), 0);
    a.pushSend(Symbol::makeClose(), 0);
    queue.run();
    bool first = true;
    while (!wire.empty()) {
        Symbol s = wire.pop();
        if (s.kind == SymKind::Data && first) {
            s.data ^= 0x10; // corrupt only the first payload word
            first = false;
        }
        b.rxPort()->push(s);
    }
    EXPECT_EQ(b.messagesReceived(), 2u);
    ASSERT_EQ(b.recvAvailable(), 1u);
    EXPECT_EQ(b.popRecv(), 0xBADu ^ 0x10u);
    auto bad = b.consumeMessage();
    EXPECT_FALSE(bad.crcOk);
    EXPECT_EQ(bad.words, 1u);
    ASSERT_EQ(b.recvAvailable(), 1u);
    EXPECT_EQ(b.popRecv(), 0x600Du);
    auto good = b.consumeMessage();
    EXPECT_TRUE(good.crcOk);
    EXPECT_EQ(good.words, 1u);
}

TEST(LinkInterface, DatalessMessageHasNoCrc)
{
    Pair p;
    p.a->pushSend(Symbol::makeClose(), 0);
    p.queue.run();
    EXPECT_EQ(p.b->messagesReceived(), 1u);
    ASSERT_TRUE(p.b->frontMessageDrained());
    const auto info = p.b->consumeMessage();
    EXPECT_TRUE(info.crcOk);
    EXPECT_EQ(info.words, 0u);
    EXPECT_EQ(p.b->recvAvailable(), 0u);
}

TEST(LinkInterface, BackToBackMessagesKeepCrcBoundaries)
{
    Pair p;
    Tick t = 0;
    for (int m = 0; m < 3; ++m) {
        p.a->pushSend(Symbol::makeData(100 + m), t);
        p.a->pushSend(Symbol::makeData(200 + m), t);
        p.a->pushSend(Symbol::makeClose(), t);
    }
    p.queue.run();
    EXPECT_EQ(p.b->messagesReceived(), 3u);
    // The status register never spans a message boundary: each of the
    // three messages must be drained and consumed in turn.
    for (int m = 0; m < 3; ++m) {
        ASSERT_EQ(p.b->recvAvailable(), 2u);
        EXPECT_EQ(p.b->popRecv(), 100u + m);
        EXPECT_EQ(p.b->popRecv(), 200u + m);
        ASSERT_TRUE(p.b->frontMessageDrained());
        EXPECT_TRUE(p.b->consumeMessage().crcOk);
    }
    EXPECT_EQ(p.b->recvAvailable(), 0u);
}

TEST(LinkInterface, SendRespectsWordTimestamps)
{
    Pair p;
    const Tick late = 10 * kTicksPerUs;
    p.a->pushSend(Symbol::makeData(1), late); // CPU writes "late"
    p.a->pushSend(Symbol::makeClose(), late);
    p.queue.run();
    // Nothing can arrive before the CPU logically wrote the word.
    EXPECT_GE(p.queue.now(), late);
    EXPECT_EQ(p.b->recvAvailable(), 1u);
}

TEST(LinkInterface, SendFifoOverrunPanics)
{
    Pair p(4);
    for (int i = 0; i < 4; ++i)
        p.a->pushSend(Symbol::makeData(i), 1 * kTicksPerSec);
    EXPECT_EQ(p.a->sendSpace(), 0u);
    EXPECT_DEATH(p.a->pushSend(Symbol::makeData(9), 1 * kTicksPerSec),
                 "overran");
}

TEST(LinkInterface, EmptyRecvReadPanics)
{
    Pair p;
    EXPECT_DEATH((void)p.a->popRecv(), "read past the receive");
}

TEST(LinkInterface, ReceiveFifoBackpressuresTheWire)
{
    Pair p(4);
    // 8 words toward a 4-word receive FIFO: sender stalls, nothing is
    // lost, everything arrives once the reader drains.
    Tick t = 0;
    for (int i = 0; i < 8; ++i)
        if (p.a->sendSpace() > 0)
            p.a->pushSend(Symbol::makeData(i), t);
    p.queue.run();
    unsigned got = 0;
    std::vector<std::uint64_t> words;
    while (true) {
        while (p.b->recvAvailable() > 0) {
            words.push_back(p.b->popRecv());
            ++got;
        }
        if (!p.queue.step())
            break;
    }
    // 4 pushed originally (space limited): still staged-minus... at
    // least 3 payload words must get through intact and in order.
    ASSERT_GE(got, 3u);
    for (unsigned i = 0; i < got; ++i)
        EXPECT_EQ(words[i], i);
}

TEST(LinkInterface, ResetClearsAllState)
{
    Pair p;
    p.a->pushSend(Symbol::makeData(1), 0);
    p.a->pushSend(Symbol::makeClose(), 0);
    p.queue.run();
    p.b->reset();
    EXPECT_EQ(p.b->recvAvailable(), 0u);
    EXPECT_EQ(p.b->messagesReceived(), 0u);
    EXPECT_FALSE(p.b->messageComplete());
}

TEST(Transceiver, RelaysWithCableLatency)
{
    sim::EventQueue queue;
    TransceiverParams tp;
    tp.cableLatency = 150 * kTicksPerNs;
    Transceiver xcvr(tp, queue);
    InputFifo sink("sink", 64);
    xcvr.connectOutput(&sink);

    xcvr.inputPort()->push(Symbol::makeData(7));
    queue.run();
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.pop().data, 7u);
    // tx time (133 ns) + base link latency + 150 ns cable.
    EXPECT_GE(queue.now(), tp.link.txTime(8) + tp.cableLatency);
}

TEST(Transceiver, DeepBufferAbsorbsBursts)
{
    sim::EventQueue queue;
    TransceiverParams tp; // 2 KB = 256 words
    Transceiver xcvr(tp, queue);
    InputFifo sink("sink", 1024);
    xcvr.connectOutput(&sink);
    for (int i = 0; i < 200; ++i)
        xcvr.inputPort()->push(Symbol::makeData(i));
    queue.run();
    EXPECT_EQ(sink.size(), 200u);
}

} // namespace
