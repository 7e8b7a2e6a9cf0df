/**
 * @file
 * The HINT benchmark (Gustafson & Snell, HICS'95) of Section 5.1 /
 * Figure 6.
 *
 * HINT approximates the integral of (1-x)/(1+x) over [0,1] by interval
 * subdivision: with m subintervals the gap between the upper and lower
 * bounds (counted in whole "squares", i.e. the hierarchical-integration
 * quality) shrinks as 1/m, so QUALITY(m) ~ m. The benchmark metric is
 * QUIPS = quality / elapsed-seconds, plotted against elapsed time as m
 * (and with it the working set) doubles: the curve's plateaus and drops
 * trace the memory hierarchy.
 *
 * Memory behaviour modelled after the original: each subinterval keeps
 * a record (32 bytes here: xl, xr and the two bound contributions); the
 * subdivide pass writes records sequentially while reading the parent
 * (i/2) record, and the bound-collection pass walks the records in
 * bit-reversed order — "accessed in more complex ways than just a
 * consecutive order", as the paper puts it. The ratio of operations to
 * storage is kept near one-to-one per HINT's design.
 *
 * DOUBLE and INT data types map to the machine's floating-point or
 * integer throughput, as in the paper's Figure 6a/6b.
 */

#ifndef PM_WORKLOADS_HINT_HH
#define PM_WORKLOADS_HINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/proc.hh"
#include "cpu/workload.hh"
#include "sim/types.hh"

namespace pm::workloads {

/** HINT arithmetic flavours (paper Figure 6a vs 6b). */
enum class HintType { Double, Int };

/**
 * Largest HINT size: 2^28 subintervals (an 8 GB working set). Sizes
 * run from 2^minLog2m to 2^maxLog2m with 1 <= minLog2m <= maxLog2m <=
 * kHintMaxLog2m; Hint rejects any other range.
 */
inline constexpr unsigned kHintMaxLog2m = 28;

/** Configuration of a HINT sweep. */
struct HintParams
{
    HintType type = HintType::Double;
    unsigned minLog2m = 8; //!< Smallest size: 2^8 subintervals (8 KB).
    unsigned maxLog2m = 20; //!< Largest size: 2^20 (32 MB working set).
    Addr base = 0x1000'0000;
};

/** One measured point of the QUIPS curve. */
struct HintPoint
{
    std::uint64_t subintervals = 0; //!< m.
    std::uint64_t workingSetBytes = 0; //!< 32 * m.
    Tick elapsed = 0; //!< Simulated time for this size.
    double quality = 0.0; //!< True numeric quality 1/(ub-lb).
    double quips() const
    {
        return elapsed ? quality / ticksToSec(elapsed) : 0.0;
    }
};

/**
 * Runs the full HINT sweep on one processor. step() executes one
 * bounded slice (4K subintervals) so SMP interleavings stay tight.
 * Results are collected per size in points().
 */
class Hint : public cpu::Workload
{
  public:
    explicit Hint(const HintParams &params);

    bool step(cpu::Proc &proc) override;
    std::string name() const override;

    /** Measured curve, one point per size, valid once step() is done. */
    const std::vector<HintPoint> &points() const { return _points; }

    /** Bytes of record storage per subinterval. */
    static constexpr std::uint64_t kRecordBytes = 32;

  private:
    enum class Phase { Subdivide, Collect, Done };

    HintParams _p;
    unsigned _log2m;
    std::uint64_t _m = 0; //!< 2^_log2m, set once the range is checked.
    Phase _phase = Phase::Subdivide;
    std::uint64_t _index = 0; //!< Progress within the current phase.
    Tick _sizeStart = 0;
    std::vector<HintPoint> _points;

    /** True numeric HINT quality for m equal subintervals. */
    static double qualityFor(std::uint64_t m);

    void charge(cpu::Proc &proc, std::uint64_t ops) const;
    void beginSize(cpu::Proc &proc);
    void finishSize(cpu::Proc &proc);

    static std::uint64_t bitReverse(std::uint64_t v, unsigned bits);
};

} // namespace pm::workloads

#endif // PM_WORKLOADS_HINT_HH
