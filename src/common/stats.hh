/**
 * @file
 * Descriptive statistics used throughout the evaluation.
 *
 * The paper reports box plots of prediction error (Figs 5 and 9),
 * geometric-mean throughput (Eq. 1), and tail latencies measured over
 * sliding windows. These helpers centralize those computations so the
 * benches and the runtime agree on definitions (e.g. the percentile
 * interpolation rule).
 */

#ifndef CUTTLESYS_COMMON_STATS_HH
#define CUTTLESYS_COMMON_STATS_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace cuttlesys {

/**
 * Five-number summary plus whisker-clipped outliers, matching the
 * matplotlib box plot convention the paper's figures use (whiskers at
 * 1.5 IQR, values beyond them reported as outliers).
 */
struct BoxPlot
{
    double p5 = 0.0;       //!< 5th percentile (paper quotes p5/p95)
    double q1 = 0.0;       //!< 25th percentile
    double median = 0.0;
    double q3 = 0.0;       //!< 75th percentile
    double p95 = 0.0;      //!< 95th percentile
    double whiskerLo = 0.0; //!< smallest value >= q1 - 1.5 IQR
    double whiskerHi = 0.0; //!< largest value <= q3 + 1.5 IQR
    std::vector<double> outliers; //!< values beyond the whiskers

    /** Render as a single printable row. */
    std::string toString() const;
};

/**
 * Linear-interpolated percentile of a sample, p in [0, 100].
 *
 * Uses the "linear" (R type-7) rule: rank = p/100 * (n-1).
 * @pre values is non-empty.
 */
double percentile(std::span<const double> values, double p);

/**
 * Same percentile, but selecting in caller-owned @p scratch instead
 * of a fresh vector — allocation-free once scratch has capacity.
 * Used by per-quantum paths (tail-latency windows) that must not
 * touch the heap in steady state. The two order statistics are found
 * by selection (nth_element, then the minimum above it), not a full
 * sort; they are the same elements a sort would place at those ranks,
 * so the result is bitwise that of sort-then-interpolate. NaN inputs
 * are out of contract (no order statistics exist).
 */
double percentile(std::span<const double> values, double p,
                  std::vector<double> &scratch);

/** Arithmetic mean. @pre values is non-empty. */
double mean(std::span<const double> values);

/** Sample standard deviation (n-1 denominator); 0 for n < 2. */
double stddev(std::span<const double> values);

/** Geometric mean. @pre values non-empty, all strictly positive. */
double geomean(std::span<const double> values);

/** Smallest element. @pre values non-empty. */
double minValue(std::span<const double> values);

/** Largest element. @pre values non-empty. */
double maxValue(std::span<const double> values);

/** Build the box-plot summary of a sample. @pre values non-empty. */
BoxPlot boxPlot(std::span<const double> values);

/**
 * Signed relative error of a prediction in percent:
 * 100 * (predicted - actual) / actual.
 *
 * When |actual| is tiny the error is computed against a small floor to
 * avoid meaningless blowups (mirrors how the paper reports bounded
 * percentage errors).
 */
double relativeErrorPct(double predicted, double actual);

/**
 * Streaming accumulator for scalar series: count, mean, min, max,
 * variance (Welford). Used for per-timeslice power/throughput stats.
 */
class RunningStats
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Sample variance (n-1); 0 for n < 2. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_STATS_HH
