/**
 * @file
 * GBDT ensemble implementation.
 */

#include "accel/gbdt.hh"

#include <algorithm>

#include "base/logging.hh"

namespace enzian::accel {

namespace {

/** Tuples predictBatch walks through each tree side by side. */
constexpr std::uint64_t kBlock = 16;

} // namespace

GbdtEnsemble::GbdtEnsemble(std::uint32_t trees, std::uint32_t depth,
                           std::uint32_t features,
                           std::vector<Split> splits,
                           std::vector<float> leaves)
    : trees_(trees), depth_(depth), features_(features),
      splits_(std::move(splits)), leaves_(std::move(leaves))
{
    if (trees_ == 0 || depth_ == 0 || depth_ > 20)
        fatal("bad GBDT ensemble shape (%u trees, depth %u)", trees_,
              depth_);
    internal_ = (1u << (depth_ - 1)) - 1;
    leafCount_ = 1u << (depth_ - 1);
    if (splits_.size() != std::size_t{trees_} * internal_ ||
        leaves_.size() != std::size_t{trees_} * leafCount_)
        fatal("GBDT ensemble arrays do not match %u trees of depth %u "
              "(%zu splits, %zu leaves)",
              trees_, depth_, splits_.size(), leaves_.size());
    for (const Split &s : splits_)
        if (s.feature >= features_)
            fatal("GBDT split on feature %u of a %u-feature ensemble",
                  s.feature, features_);
}

float
GbdtEnsemble::predict(const float *x) const
{
    float sum = 0.0f;
    for (std::uint32_t t = 0; t < trees_; ++t) {
        const Split *split = splits_.data() + std::size_t{t} * internal_;
        std::uint32_t i = 0;
        while (i < internal_)
            i = x[split[i].feature] < split[i].threshold ? 2 * i + 1
                                                         : 2 * i + 2;
        sum += leaves_[std::size_t{t} * leafCount_ + (i - internal_)];
    }
    return sum;
}

void
GbdtEnsemble::predictBatch(const float *tuples, std::uint64_t count,
                           std::uint32_t width, float *out) const
{
    ENZIAN_ASSERT(width >= features_, "%u-float tuples, %u features",
                  width, features_);
    for (std::uint64_t base = 0; base < count; base += kBlock) {
        // Lanes past the end re-read the last tuple; their sums are
        // dropped, so every block runs the same fixed-width loops.
        const float *x[kBlock];
        for (std::uint64_t j = 0; j < kBlock; ++j)
            x[j] = tuples + std::min(base + j, count - 1) * width;
        float sum[kBlock] = {};
        const Split *split = splits_.data();
        const float *leaf = leaves_.data();
        for (std::uint32_t t = 0; t < trees_; ++t) {
            std::uint32_t idx[kBlock] = {};
            for (std::uint32_t level = 1; level < depth_; ++level) {
                for (std::uint64_t j = 0; j < kBlock; ++j) {
                    const Split &s = split[idx[j]];
                    idx[j] = 2 * idx[j] + 1 +
                             !(x[j][s.feature] < s.threshold);
                }
            }
            for (std::uint64_t j = 0; j < kBlock; ++j)
                sum[j] += leaf[idx[j] - internal_];
            split += internal_;
            leaf += leafCount_;
        }
        std::copy_n(sum, std::min(kBlock, count - base), out + base);
    }
}

GbdtEnsemble
makeEnsemble(std::uint64_t seed, std::uint32_t trees,
             std::uint32_t depth, std::uint32_t features)
{
    if (trees == 0 || depth == 0 || depth > 20 || features == 0)
        fatal("bad ensemble shape (%u trees, depth %u, %u features)",
              trees, depth, features);
    Rng rng(seed);
    const std::uint32_t internal = (1u << (depth - 1)) - 1;
    const std::uint32_t leaf_count = 1u << (depth - 1);
    std::vector<GbdtEnsemble::Split> splits;
    std::vector<float> leaves;
    splits.reserve(std::size_t{trees} * internal);
    leaves.reserve(std::size_t{trees} * leaf_count);
    // Draw order, per tree: each split's feature then threshold, in
    // node order, then the leaves in node order.
    for (std::uint32_t t = 0; t < trees; ++t) {
        for (std::uint32_t i = 0; i < internal; ++i) {
            GbdtEnsemble::Split s;
            s.feature = static_cast<std::uint32_t>(rng.below(features));
            s.threshold = static_cast<float>(rng.uniform(-1.0, 1.0));
            splits.push_back(s);
        }
        for (std::uint32_t i = 0; i < leaf_count; ++i)
            leaves.push_back(static_cast<float>(rng.uniform(-0.1, 0.1)));
    }
    return GbdtEnsemble(trees, depth, features, std::move(splits),
                        std::move(leaves));
}

std::vector<float>
makeTuples(std::uint64_t seed, std::uint64_t count,
           std::uint32_t features)
{
    Rng rng(seed ^ 0x74757065ull);
    std::vector<float> tuples(count * features);
    for (auto &v : tuples)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return tuples;
}

} // namespace enzian::accel
