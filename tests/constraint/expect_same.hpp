// Equivalence assertions shared by the differential tests: two propagation
// results or two guidance reports must agree field by field.  Hulls compare
// bit for bit, so -0.0 and +0.0 differ.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"

namespace adpm::constraint {

inline bool sameBits(const interval::Interval& a, const interval::Interval& b) {
  return std::memcmp(&a, &b, sizeof(interval::Interval)) == 0;
}

inline void expectSamePropagation(const PropagationResult& a,
                                  const PropagationResult& b) {
  ASSERT_EQ(a.hulls.size(), b.hulls.size());
  for (std::size_t i = 0; i < a.hulls.size(); ++i) {
    EXPECT_TRUE(sameBits(a.hulls[i], b.hulls[i]))
        << "hull " << i << ": " << a.hulls[i].str() << " vs "
        << b.hulls[i].str();
  }
  ASSERT_EQ(a.feasible.size(), b.feasible.size());
  for (std::size_t i = 0; i < a.feasible.size(); ++i) {
    EXPECT_EQ(a.feasible[i], b.feasible[i]) << "feasible " << i;
  }
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.passes, b.passes);
}

inline void expectSameGuidance(const GuidanceReport& a,
                               const GuidanceReport& b) {
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.extraEvaluations, b.extraEvaluations);
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (std::size_t i = 0; i < a.properties.size(); ++i) {
    const PropertyGuidance& ga = a.properties[i];
    const PropertyGuidance& gb = b.properties[i];
    EXPECT_EQ(ga.id, gb.id);
    EXPECT_EQ(ga.feasible, gb.feasible) << "feasible subspace, property " << i;
    EXPECT_EQ(ga.relativeFeasibleSize, gb.relativeFeasibleSize)
        << "relative size, property " << i;
    EXPECT_EQ(ga.beta, gb.beta) << "beta, property " << i;
    EXPECT_EQ(ga.alpha, gb.alpha) << "alpha, property " << i;
    EXPECT_EQ(ga.increasing, gb.increasing) << "increasing, property " << i;
    EXPECT_EQ(ga.decreasing, gb.decreasing) << "decreasing, property " << i;
    EXPECT_EQ(ga.repairVotesUp, gb.repairVotesUp);
    EXPECT_EQ(ga.repairVotesDown, gb.repairVotesDown);
  }
}

}  // namespace adpm::constraint
