/**
 * @file
 * The reference kernel: a fixed piece of work, compiled with the
 * benchmark and independent of the simulator, timed after every point
 * to measure how fast the shared host runs at that moment.
 *
 * It imitates the simulator's inner loop: a binary-heap event queue
 * that dispatches each event through a function pointer to one of 1024
 * distinct handlers, which read and write a table. What slows the
 * simulator on a shared host is other work on the same core and caches,
 * not the clock (a loop that stays in registers runs at one speed
 * throughout), and the simulator's large code footprint and indirect
 * calls make it sensitive to both. A kernel without the handler
 * spread slows only about half as much as the simulator does.
 */

#include <algorithm>
#include <array>
#include <functional>
#include <utility>

#include "bench.hh"

namespace pmbench {

namespace {

constexpr std::size_t kTableWords = std::size_t(1) << 16; // 256 KB
constexpr std::size_t kPending = 4096;
constexpr unsigned kHandlers = 1024;
constexpr unsigned kSliceEvents = 20000;

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x7fb5'd329'728e'a185ull;
    x ^= x >> 27;
    return x;
}

/** Handler K: its own constants, so every handler is its own code. */
template <unsigned K>
[[gnu::noinline]] std::uint64_t
handler(std::uint64_t x, std::uint32_t *table)
{
    x ^= x >> (7 + K % 13);
    x *= 0x9e37'79b9'7f4a'7c15ull + 2 * K;
    std::uint32_t &slot = table[(x >> 20) % kTableWords];
    slot += static_cast<std::uint32_t>(x) ^ K;
    if (slot & (1u << (K % 32)))
        x += slot;
    else
        x -= K * 3;
    x ^= x << (K % 11 + 1);
    return x + slot;
}

using Handler = std::uint64_t (*)(std::uint64_t, std::uint32_t *);

template <std::size_t... K>
constexpr std::array<Handler, sizeof...(K)>
handlers(std::index_sequence<K...>)
{
    return {&handler<K>...};
}

constexpr auto kHandlerTable = handlers(std::make_index_sequence<kHandlers>{});

} // namespace

Reference::Reference() : _table(kTableWords)
{
    for (std::size_t i = 0; i < _table.size(); ++i)
        _table[i] = static_cast<std::uint32_t>(mix(i));
    for (std::size_t i = 0; i < kPending; ++i)
        _heap.push_back(mix(i + kTableWords) & 0xffff'ffff);
    std::make_heap(_heap.begin(), _heap.end(), std::greater<>());
}

double
Reference::slice()
{
    const std::int64_t t0 = cpuNs();
    for (unsigned n = 0; n < kSliceEvents; ++n) {
        std::pop_heap(_heap.begin(), _heap.end(), std::greater<>());
        const std::uint64_t when = _heap.back();
        _sum = kHandlerTable[(when ^ _sum) % kHandlers](_sum ^ when,
                                                        _table.data());
        _heap.back() = when + 1 + (_sum & 1023);
        std::push_heap(_heap.begin(), _heap.end(), std::greater<>());
    }
    return static_cast<double>(cpuNs() - t0);
}

} // namespace pmbench
