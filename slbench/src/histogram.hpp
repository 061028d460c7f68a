// Log-linear latency histogram with 1/128 relative bucket width (under
// 0.8%), so percentiles read from it sit within 1% of an exact sort.
// Values below 128 get one bucket each; above, every power of two is
// split into 128 equal buckets. Recording is one branch, a bit scan and
// an increment — cheap enough for every request of a serving loop.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace slbench {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 47;  ///< values up to ~1.4e14

  Histogram() : counts_(kSub + (kMaxExp - kSubBits + 1) * kSub, 0) {}

  void record(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++total_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Nearest-rank quantile (the value at rank ceil(q * count)), reported
  /// as the midpoint of its bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = std::min<unsigned>(
        kMaxExp, static_cast<unsigned>(std::bit_width(v)) - 1);
    const unsigned shift = e - kSubBits;
    const std::uint64_t sub = std::min(kSub - 1, (v >> shift) - kSub);
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  static double midpoint(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t block = (i - kSub) / kSub;
    const std::size_t sub = (i - kSub) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(block));
    return (static_cast<double>(kSub + sub) + 0.5) * width;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Nearest-rank quantile of an unsorted sample (sorts a copy); 0 when
/// empty. The exact reference the histogram is checked against.
[[nodiscard]] inline double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

}  // namespace slbench
