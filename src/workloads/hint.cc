#include "workloads/hint.hh"

#include <cmath>

#include "sim/logging.hh"

namespace pm::workloads {

Hint::Hint(const HintParams &params)
    : _p(params),
      _log2m(params.minLog2m)
{
    if (_p.minLog2m == 0 || _p.minLog2m > _p.maxLog2m ||
        _p.maxLog2m > kHintMaxLog2m)
        pm_fatal("Hint: bad size range [2^%u, 2^%u]", _p.minLog2m,
                 _p.maxLog2m);
    _m = 1ull << _p.minLog2m; // Only once the shift is known in range.
}

std::string
Hint::name() const
{
    return _p.type == HintType::Double ? "hint_double" : "hint_int";
}

double
Hint::qualityFor(std::uint64_t m)
{
    // f(x) = (1-x)/(1+x) is monotonically decreasing on [0,1], so with
    // m equal subintervals the upper sum takes f at the left edges and
    // the lower sum at the right edges. Quality is the reciprocal gap.
    // gap = (f(0) - f(1)) / m = 1/m exactly, but compute it numerically
    // the way HINT does, summing per subinterval.
    const double h = 1.0 / static_cast<double>(m);
    // Riemann end-point gap telescopes: sum_i (f(x_i) - f(x_{i+1})) * h.
    double gap = 0.0;
    if (m <= 4096) {
        for (std::uint64_t i = 0; i < m; ++i) {
            const double xl = h * static_cast<double>(i);
            const double xr = xl + h;
            const double fl = (1.0 - xl) / (1.0 + xl);
            const double fr = (1.0 - xr) / (1.0 + xr);
            gap += (fl - fr) * h;
        }
    } else {
        gap = h; // the telescoped closed form, exact for this f
    }
    return 1.0 / gap;
}

std::uint64_t
Hint::bitReverse(std::uint64_t v, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned b = 0; b < bits; ++b) {
        r = (r << 1) | (v & 1);
        v >>= 1;
    }
    return r;
}

void
Hint::charge(cpu::Proc &proc, std::uint64_t ops) const
{
    if (_p.type == HintType::Double)
        proc.flops(ops);
    else
        proc.intops(ops);
}

bool
Hint::step(cpu::Proc &proc)
{
    if (_phase == Phase::Done)
        return false;

    constexpr std::uint64_t kSlice = 4096;

    if (_index == 0 && _phase == Phase::Subdivide) {
        proc.drain();
        _sizeStart = proc.time();
    }

    const std::uint64_t end =
        (_index + kSlice < _m) ? _index + kSlice : _m;

    if (_phase == Phase::Subdivide) {
        // Subdivide pass: record i derives from record i/2 of the
        // previous refinement level; write the new record sequentially,
        // compute the function at both edges and the bound areas.
        for (std::uint64_t i = _index; i < end; ++i) {
            proc.load(_p.base + (i / 2) * kRecordBytes); // parent xl/xr
            proc.storeSeq(_p.base + i * kRecordBytes, kRecordBytes);
        }
        const std::uint64_t count = end - _index;
        charge(proc, count * 8); // 2 divides-ish + edges + areas
        proc.instr(count * 3);
        _index = end;
        if (_index == _m) {
            _phase = Phase::Collect;
            _index = 0;
        }
        return true;
    }

    // Collect pass: accumulate the two bounds walking the records in
    // bit-reversed order (scattered access).
    for (std::uint64_t i = _index; i < end; ++i) {
        const std::uint64_t j = bitReverse(i, _log2m);
        proc.load(_p.base + j * kRecordBytes);
        proc.load(_p.base + j * kRecordBytes + 16);
    }
    const std::uint64_t count = end - _index;
    charge(proc, count * 4); // two bound accumulations + compare
    proc.instr(count * 4); // bit manipulation + loop
    _index = end;

    if (_index == _m) {
        proc.drain();
        HintPoint pt;
        pt.subintervals = _m;
        pt.workingSetBytes = _m * kRecordBytes;
        pt.elapsed = proc.time() - _sizeStart;
        pt.quality = qualityFor(_m);
        _points.push_back(pt);

        if (_log2m == _p.maxLog2m) {
            _phase = Phase::Done;
            return false;
        }
        ++_log2m;
        _m <<= 1;
        _phase = Phase::Subdivide;
        _index = 0;
    }
    return true;
}

} // namespace pm::workloads
