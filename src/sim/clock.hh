/**
 * @file
 * Clock domains.
 *
 * PowerMANNA mixes clock domains: 180 MHz processors and L2 caches,
 * a 60 MHz node/board clock, and 60 MHz communication links. The SUN
 * and PC comparators use yet other frequencies. A ClockDomain converts
 * between cycles in a domain and global picosecond ticks.
 */

#ifndef PM_SIM_CLOCK_HH
#define PM_SIM_CLOCK_HH

#include "sim/logging.hh"
#include "sim/types.hh"

namespace pm::sim {

/**
 * A fixed-frequency clock domain.
 *
 * The period is rounded to an integer number of picoseconds; at 180 MHz
 * the rounding error is below 0.01%, negligible against the effects the
 * paper measures.
 */
class ClockDomain
{
  public:
    /** @param mhz Frequency in MHz; must be positive. */
    explicit ClockDomain(double mhz)
        : _mhz(mhz),
          _period(static_cast<Tick>(1e6 / mhz + 0.5))
    {
        if (mhz <= 0.0)
            pm_fatal("clock frequency must be positive (got %f MHz)", mhz);
    }

    /** Frequency in MHz as configured. */
    double mhz() const { return _mhz; }

    /** Clock period in ticks (picoseconds). */
    Tick period() const { return _period; }

    /** Duration of `n` cycles in ticks. */
    Tick cycles(Cycles n) const { return n * _period; }

  private:
    double _mhz;
    Tick _period;
};

} // namespace pm::sim

#endif // PM_SIM_CLOCK_HH
