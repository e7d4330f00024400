/**
 * @file
 * Gradient-boosted decision tree ensembles.
 *
 * The functional side of the Figure 9 experiment (inference over
 * GBDT ensembles, Owaida et al. [52,53]): a real ensemble of binary
 * decision trees over dense float feature vectors, with deterministic
 * synthetic generation so the FPGA engine's outputs can be checked
 * bit-for-bit against this reference.
 *
 * Every tree is complete and of one depth d, so the ensemble is two
 * flat arrays: per tree, 2^(d-1)-1 splits in breadth-first order
 * (children of node i at 2i+1 and 2i+2) and 2^(d-1) leaf values.
 * A tuple goes left at a split iff x[feature] < threshold; equal
 * values and NaN go right.
 */

#ifndef ENZIAN_ACCEL_GBDT_HH
#define ENZIAN_ACCEL_GBDT_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"

namespace enzian::accel {

/** A boosted ensemble of complete trees: the sum of tree scores. */
class GbdtEnsemble
{
  public:
    /** One internal node: go left iff x[feature] < threshold. */
    struct Split
    {
        std::uint32_t feature = 0;
        float threshold = 0.0f;
    };

    /**
     * @param trees number of trees (>= 1)
     * @param depth levels per tree, leaves included (1..20)
     * @param features tuple width every split indexes below
     * @param splits trees * (2^(depth-1)-1) splits, tree by tree
     * @param leaves trees * 2^(depth-1) leaf values, tree by tree
     */
    GbdtEnsemble(std::uint32_t trees, std::uint32_t depth,
                 std::uint32_t features, std::vector<Split> splits,
                 std::vector<float> leaves);

    /**
     * Reference score of one tuple: a scalar walk of each tree, the
     * leaves summed in tree order from 0.0f.
     */
    float predict(const float *x) const;

    /**
     * Score @p count tuples laid out @p width floats apart (width >=
     * features()) into @p out. Bit-identical to predict() per tuple:
     * the same comparisons, the same sum order, with tuples (never
     * trees) processed side by side.
     */
    void predictBatch(const float *tuples, std::uint64_t count,
                      std::uint32_t width, float *out) const;

    std::size_t treeCount() const { return trees_; }
    std::size_t totalNodes() const
    {
        return splits_.size() + leaves_.size();
    }
    std::uint32_t depth() const { return depth_; }
    std::uint32_t features() const { return features_; }

  private:
    std::uint32_t trees_;
    std::uint32_t depth_;
    std::uint32_t features_;
    /** Splits and leaves per tree. */
    std::uint32_t internal_ = 0;
    std::uint32_t leafCount_ = 0;
    std::vector<Split> splits_;
    std::vector<float> leaves_;
};

/**
 * Build a deterministic synthetic ensemble.
 *
 * @param seed generator seed
 * @param trees number of trees
 * @param depth depth of each (complete) tree
 * @param features feature-vector width the trees index into
 */
GbdtEnsemble makeEnsemble(std::uint64_t seed, std::uint32_t trees,
                          std::uint32_t depth, std::uint32_t features);

/** Generate @p count feature vectors of width @p features. */
std::vector<float> makeTuples(std::uint64_t seed, std::uint64_t count,
                              std::uint32_t features);

} // namespace enzian::accel

#endif // ENZIAN_ACCEL_GBDT_HH
