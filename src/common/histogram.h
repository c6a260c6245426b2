/**
 * @file
 * Weighted histograms and empirical CDFs.
 *
 * The fleet model and HyperCompressBench validation both reason about
 * byte-weighted distributions (e.g. "% of uncompressed bytes handled by
 * calls of size <= X"), so samples carry weights.
 */

#ifndef CDPU_COMMON_HISTOGRAM_H_
#define CDPU_COMMON_HISTOGRAM_H_

#include <bit>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace cdpu
{

/** One (bin, cumulative fraction) point of an empirical CDF. */
struct CdfPoint
{
    double x = 0;
    double cumFraction = 0;
};

/**
 * Weighted histogram over double-valued samples with arbitrary bins.
 *
 * Bins are keyed by their numeric value (e.g. log2 of a call size), so two
 * histograms built over the same binning are directly comparable.
 */
class WeightedHistogram
{
  public:
    /** Adds @p weight mass to the bin keyed @p bin. */
    void add(double bin, double weight = 1.0);

    /** Total mass across all bins. */
    double totalWeight() const { return total_; }

    /** Mass in @p bin (0 when absent). */
    double weightAt(double bin) const;

    /** Fraction of the total mass in @p bin (0 when empty). */
    double fractionAt(double bin) const;

    /** Sorted bins with their mass fractions. */
    std::vector<CdfPoint> cdf() const;

    /** Smallest bin whose cumulative fraction reaches @p q in [0, 1]. */
    double quantile(double q) const;

    /**
     * Kolmogorov-Smirnov style distance: the maximum absolute difference
     * between the two CDFs evaluated over the union of their bins.
     */
    static double ksDistance(const WeightedHistogram &a,
                             const WeightedHistogram &b);

    const std::map<double, double> &bins() const { return bins_; }

  private:
    std::map<double, double> bins_;
    double total_ = 0;
};

/** floor(log2(v)), with floorLog2(0) == 0. Inline: FSE and zstdlite's
 *  offset binning call it once per symbol. */
inline unsigned
floorLog2(u64 v)
{
    return static_cast<unsigned>(std::bit_width(v | 1)) - 1;
}

/** ceil(log2(v)) with ceilLog2(0) == 0 and ceilLog2(1) == 0. */
inline unsigned
ceilLog2(u64 v)
{
    return v <= 1 ? 0 : static_cast<unsigned>(std::bit_width(v - 1));
}

} // namespace cdpu

#endif // CDPU_COMMON_HISTOGRAM_H_
