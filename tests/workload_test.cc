// The Table 1 workloads: each must build, run to a clean exit on the
// uninstrumented Ultrix system, and behave identically under tracing (the
// end-to-end "tracing does not distort results" property).  The full
// measured-vs-predicted experiment runs for a sample of workloads.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "mach/address_space.h"
#include "mach/tlb.h"
#include "support/strings.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

constexpr double kScale = 0.05;  // Tiny but structurally complete.
constexpr uint64_t kBudget = 1'500'000'000;

class WorkloadRuns : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadRuns, UntracedUltrix) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig config;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  RunResult r = sys->Run(kBudget);
  ASSERT_TRUE(r.halted) << w.name;
  EXPECT_EQ(r.halt_code, 0u);
  EXPECT_NE(sys->ProcessExitCode(1), 0xdeadu) << w.name << " was killed";
  EXPECT_GT(sys->machine().user_instructions(), 1000u);
}

TEST_P(WorkloadRuns, UntracedMach) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig config;
  config.personality = Personality::kMach;
  config.policy = PagePolicy::kScrambled;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  RunResult r = sys->Run(kBudget);
  ASSERT_TRUE(r.halted) << w.name;
  EXPECT_NE(sys->ProcessExitCode(1), 0xdeadu) << w.name << " was killed";
}

TEST_P(WorkloadRuns, SameResultUnderBothPersonalities) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig ultrix;
  ultrix.program_source = w.source;
  ultrix.files = w.files;
  auto u = BuildSystem(ultrix);
  u->Run(kBudget);
  SystemConfig mach = ultrix;
  mach.personality = Personality::kMach;
  mach.policy = PagePolicy::kScrambled;
  auto m = BuildSystem(mach);
  m->Run(kBudget);
  EXPECT_EQ(u->ProcessExitCode(1), m->ProcessExitCode(1)) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, WorkloadRuns,
                         ::testing::Values("sed", "egrep", "yacc", "gcc", "compress", "espresso",
                                           "lisp", "eqntott", "fpppp", "doduc", "liv", "tomcatv"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Paper §4.2's page map, checked against the kernel rather than the
// predictor: in both systems of every experiment, every valid kuseg TLB
// entry (its ASID is the pid) names the frame TranslateUserPage, the map
// the predictor reads, gives that page.  The loader premaps through that
// map, but the kernel places heap pages by its own rule, and refills the
// TLB from its own tables.  The TLB is read every 20,000 instructions.
class WorkloadPageMap : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(WorkloadPageMap, TlbEntriesNameTheTranslatedFrame) {
  const auto& [name, personality] = GetParam();
  ExperimentOptions options;
  options.personality = personality;
  const WorkloadSpec workload = PaperWorkload(name, kScale);
  for (bool tracing : {false, true}) {
    SCOPED_TRACE(tracing ? "traced system" : "measured system");
    auto sys = BuildSystem(ExperimentSystemConfig(workload, options, tracing));
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> checked;  // (pid, vpn, pfn)
    RunResult r;
    do {
      r = sys->Run(20'000);
      for (unsigned i = 0; i < Tlb::kEntries; ++i) {
        const TlbEntry& e = sys->machine().tlb().entry(i);
        if (!e.valid() || !InKuseg(e.vpn() << kPageShift) ||
            !checked.insert({e.asid(), e.vpn(), e.pfn()}).second) {
          continue;
        }
        ASSERT_EQ(e.pfn(), sys->TranslateUserPage(e.asid(), e.vpn()))
            << "pid " << unsigned{e.asid()} << " page " << Hex32(e.vpn() << kPageShift);
      }
    } while (!r.halted && r.instructions < kBudget);
    ASSERT_TRUE(r.halted);
    EXPECT_GT(checked.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadPageMap,
    ::testing::Combine(::testing::Values("sed", "egrep", "yacc", "gcc", "compress", "espresso",
                                         "lisp", "eqntott", "fpppp", "doduc", "liv", "tomcatv"),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<WorkloadPageMap::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

TEST(Experiment, SedEndToEnd) {
  // The full §5 methodology on one workload: measured vs predicted with no
  // parser errors and identical program behavior.
  ExperimentOptions options;
  ExperimentResult r = RunExperiment(PaperWorkload("sed", 0.1), options);
  EXPECT_EQ(r.parser_errors, 0u);
  EXPECT_GT(r.measured_cycles, 0u);
  EXPECT_GT(r.prediction.PredictedCycles(), 0.0);
  // The prediction tracks the measurement within the paper-ish band.
  EXPECT_LT(std::abs(r.TimeErrorPercent()), 40.0);
}

TEST(Experiment, EqntottTlbShape) {
  // eqntott is the TLB-dominant workload: its measured misses must dwarf a
  // compute-bound workload's, and the prediction must land in the same
  // order of magnitude (random replacement precludes exactness, §5.2).
  ExperimentOptions options;
  ExperimentResult eqntott = RunExperiment(PaperWorkload("eqntott", 0.1), options);
  ExperimentResult lisp = RunExperiment(PaperWorkload("lisp", 0.1), options);
  EXPECT_GT(eqntott.measured_utlb, 10u * std::max<uint64_t>(lisp.measured_utlb, 1));
  EXPECT_GT(eqntott.prediction.utlb_misses, eqntott.measured_utlb / 3);
  EXPECT_LT(eqntott.prediction.utlb_misses, eqntott.measured_utlb * 3);
}

TEST(Experiment, MachShowsClientServerStructure) {
  ExperimentOptions options;
  options.personality = Personality::kMach;
  ExperimentResult r = RunExperiment(PaperWorkload("egrep", 0.1), options);
  EXPECT_EQ(r.parser_errors, 0u);
  EXPECT_GT(r.measured_tlbdropins, 0u);  // tlb_map_random fired.
}

}  // namespace
}  // namespace wrl
