#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdpu
{

void
WeightedHistogram::add(double bin, double weight)
{
    bins_[bin] += weight;
    total_ += weight;
}

double
WeightedHistogram::weightAt(double bin) const
{
    auto it = bins_.find(bin);
    return it == bins_.end() ? 0.0 : it->second;
}

double
WeightedHistogram::fractionAt(double bin) const
{
    if (total_ <= 0)
        return 0.0;
    return weightAt(bin) / total_;
}

std::vector<CdfPoint>
WeightedHistogram::cdf() const
{
    std::vector<CdfPoint> points;
    points.reserve(bins_.size());
    double cum = 0;
    for (const auto &[bin, weight] : bins_) {
        cum += weight;
        points.push_back({bin, total_ > 0 ? cum / total_ : 0.0});
    }
    return points;
}

double
WeightedHistogram::quantile(double q) const
{
    const auto points = cdf();
    for (const auto &p : points) {
        if (p.cumFraction >= q)
            return p.x;
    }
    return points.empty() ? 0.0 : points.back().x;
}

double
WeightedHistogram::ksDistance(const WeightedHistogram &a,
                              const WeightedHistogram &b)
{
    // Evaluate both CDFs over the union of bin edges.
    std::vector<double> edges;
    for (const auto &[bin, weight] : a.bins_)
        edges.push_back(bin);
    for (const auto &[bin, weight] : b.bins_)
        edges.push_back(bin);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    auto cdf_at = [](const WeightedHistogram &h, double x) {
        if (h.total_ <= 0)
            return 0.0;
        double cum = 0;
        for (const auto &[bin, weight] : h.bins_) {
            if (bin > x)
                break;
            cum += weight;
        }
        return cum / h.total_;
    };

    double dmax = 0;
    for (double x : edges)
        dmax = std::max(dmax, std::abs(cdf_at(a, x) - cdf_at(b, x)));
    return dmax;
}

} // namespace cdpu
