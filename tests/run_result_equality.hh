/**
 * @file
 * Field-by-field bit equality of two RunResults, shared by every test
 * that holds two harvests of the same job to each other (repeated
 * runs, serial vs threaded sweeps, runs with and without a metrics
 * report). Doubles compare with ==, so "equal" means bit-equal.
 */

#ifndef CAIS_TESTS_RUN_RESULT_EQUALITY_HH
#define CAIS_TESTS_RUN_RESULT_EQUALITY_HH

#include <gtest/gtest.h>

#include "runtime/simulation_driver.hh"

namespace cais::test
{

inline void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.avgUtil, b.avgUtil);
    EXPECT_EQ(a.upUtil, b.upUtil);
    EXPECT_EQ(a.dnUtil, b.dnUtil);
    EXPECT_EQ(a.gpuUtil, b.gpuUtil);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.staggerUs, b.staggerUs);
    EXPECT_EQ(a.staggerSamples, b.staggerSamples);
    EXPECT_EQ(a.peakMergeBytes, b.peakMergeBytes);
    EXPECT_EQ(a.mergeLoadReqs, b.mergeLoadReqs);
    EXPECT_EQ(a.mergeRedReqs, b.mergeRedReqs);
    EXPECT_EQ(a.mergeLoadHits, b.mergeLoadHits);
    EXPECT_EQ(a.mergeRedHits, b.mergeRedHits);
    EXPECT_EQ(a.mergeFetches, b.mergeFetches);
    EXPECT_EQ(a.lruEvictions, b.lruEvictions);
    EXPECT_EQ(a.timeoutEvictions, b.timeoutEvictions);
    EXPECT_EQ(a.throttleHints, b.throttleHints);
    EXPECT_EQ(a.sessionsClosed, b.sessionsClosed);
    EXPECT_EQ(a.commKernelCycles, b.commKernelCycles);
    EXPECT_EQ(a.computeKernelCycles, b.computeKernelCycles);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        EXPECT_EQ(a.kernels[k].name, b.kernels[k].name);
        EXPECT_EQ(a.kernels[k].start, b.kernels[k].start);
        EXPECT_EQ(a.kernels[k].finish, b.kernels[k].finish);
        EXPECT_EQ(a.kernels[k].comm, b.kernels[k].comm);
    }
    EXPECT_EQ(a.utilBinWidth, b.utilBinWidth);
    ASSERT_EQ(a.utilSeries.size(), b.utilSeries.size());
    for (std::size_t k = 0; k < a.utilSeries.size(); ++k)
        EXPECT_EQ(a.utilSeries[k], b.utilSeries[k]) << "bin " << k;
    EXPECT_EQ(a.boundComposite, b.boundComposite);
    EXPECT_EQ(a.boundCompute, b.boundCompute);
    EXPECT_EQ(a.boundHbm, b.boundHbm);
    EXPECT_EQ(a.boundLink, b.boundLink);
    EXPECT_EQ(a.boundMerge, b.boundMerge);
    EXPECT_EQ(a.boundCritPath, b.boundCritPath);
    EXPECT_EQ(a.boundBinding, b.boundBinding);
}

} // namespace cais::test

#endif // CAIS_TESTS_RUN_RESULT_EQUALITY_HH
