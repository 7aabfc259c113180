#include <gtest/gtest.h>

#include "assurance/evidence.h"
#include "assurance/gsn.h"

namespace agrarsec::assurance {
namespace {

struct SimpleCase {
  ArgumentModel arg;
  EvidenceRegistry registry;
  GsnId top, strategy, sub1, sub2, sol1, sol2;
  EvidenceId ev1, ev2;

  SimpleCase() {
    top = arg.add(GsnType::kGoal, "G1", "system is secure");
    strategy = arg.add(GsnType::kStrategy, "S1", "argue over subsystems");
    sub1 = arg.add(GsnType::kGoal, "G2", "comms secure");
    sub2 = arg.add(GsnType::kGoal, "G3", "platform secure");
    sol1 = arg.add(GsnType::kSolution, "Sn1", "comms test report");
    sol2 = arg.add(GsnType::kSolution, "Sn2", "boot test report");
    ev1 = registry.add(EvidenceKind::kTestResult, "comms-tests", "", 0.9);
    ev2 = registry.add(EvidenceKind::kTestResult, "boot-tests", "", 0.8);
    arg.support(top, strategy);
    arg.support(strategy, sub1);
    arg.support(strategy, sub2);
    arg.support(sub1, sol1);
    arg.support(sub2, sol2);
    arg.bind_evidence(sol1, ev1);
    arg.bind_evidence(sol2, ev2);
  }
};

TEST(Gsn, WellFormedCaseValidates) {
  SimpleCase c;
  EXPECT_TRUE(c.arg.validate().empty());
  EXPECT_EQ(c.arg.size(), 6u);
}

TEST(Gsn, RootsDetected) {
  SimpleCase c;
  const auto roots = c.arg.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->label, "G1");
}

TEST(Gsn, DuplicateLabelRejected) {
  ArgumentModel arg;
  arg.add(GsnType::kGoal, "G1", "x");
  EXPECT_THROW(arg.add(GsnType::kGoal, "G1", "y"), std::invalid_argument);
}

TEST(Gsn, EvidenceOnlyBindsToSolutions) {
  ArgumentModel arg;
  const GsnId g = arg.add(GsnType::kGoal, "G1", "x");
  EXPECT_THROW(arg.bind_evidence(g, EvidenceId{1}), std::invalid_argument);
}

TEST(Gsn, FullySupportedEvaluation) {
  SimpleCase c;
  const auto eval = c.arg.evaluate(c.registry);
  EXPECT_EQ(eval.at(c.top.value()).status, SupportStatus::kSupported);
  EXPECT_NEAR(eval.at(c.top.value()).confidence, 0.9 * 0.8, 1e-9);
}

TEST(Gsn, MissingEvidenceBreaksSupport) {
  SimpleCase c;
  EvidenceRegistry empty;
  const auto eval = c.arg.evaluate(empty);
  EXPECT_EQ(eval.at(c.sol1.value()).status, SupportStatus::kUnsupported);
  EXPECT_EQ(eval.at(c.top.value()).status, SupportStatus::kUnsupported);
}

TEST(Gsn, PartialSupportPropagates) {
  SimpleCase c;
  c.registry.update_confidence(c.ev2, 0.0);  // boot tests now failing
  const auto eval = c.arg.evaluate(c.registry);
  EXPECT_EQ(eval.at(c.sub1.value()).status, SupportStatus::kSupported);
  EXPECT_EQ(eval.at(c.sub2.value()).status, SupportStatus::kUnsupported);
  EXPECT_EQ(eval.at(c.strategy.value()).status, SupportStatus::kPartial);
  EXPECT_EQ(eval.at(c.top.value()).status, SupportStatus::kPartial);
  EXPECT_DOUBLE_EQ(eval.at(c.top.value()).confidence, 0.0);
}

TEST(Gsn, UndevelopedGoalFlagged) {
  ArgumentModel arg;
  const GsnId g = arg.add(GsnType::kGoal, "G1", "open point");
  arg.mark_undeveloped(g);
  EXPECT_TRUE(arg.validate().empty());
  EvidenceRegistry registry;
  const auto eval = arg.evaluate(registry);
  EXPECT_EQ(eval.at(g.value()).status, SupportStatus::kUndeveloped);
}

TEST(Gsn, UnsupportedGoalWithoutMarkIsInvalid) {
  ArgumentModel arg;
  arg.add(GsnType::kGoal, "G1", "dangling");
  const auto problems = arg.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no support"), std::string::npos);
}

TEST(Gsn, SolutionWithChildrenInvalid) {
  ArgumentModel arg;
  const GsnId sol = arg.add(GsnType::kSolution, "Sn1", "evidence");
  const GsnId g = arg.add(GsnType::kGoal, "G1", "goal");
  arg.support(sol, g);
  arg.bind_evidence(sol, EvidenceId{1});
  arg.mark_undeveloped(g);
  const auto problems = arg.validate();
  EXPECT_FALSE(problems.empty());
}

TEST(Gsn, ContextEdgesTyped) {
  ArgumentModel arg;
  const GsnId g1 = arg.add(GsnType::kGoal, "G1", "a");
  const GsnId g2 = arg.add(GsnType::kGoal, "G2", "b");
  arg.in_context(g1, g2);  // goal used as context: invalid
  arg.mark_undeveloped(g1);
  arg.mark_undeveloped(g2);
  const auto problems = arg.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("non-context"), std::string::npos);
}

TEST(Gsn, CycleDetected) {
  ArgumentModel arg;
  const GsnId g1 = arg.add(GsnType::kGoal, "G1", "a");
  const GsnId g2 = arg.add(GsnType::kGoal, "G2", "b");
  arg.support(g1, g2);
  arg.support(g2, g1);
  const auto problems = arg.validate();
  EXPECT_TRUE(std::any_of(problems.begin(), problems.end(), [](const std::string& p) {
    return p.find("cycle") != std::string::npos;
  }));
  // Evaluation must not hang or crash on the cycle.
  EvidenceRegistry registry;
  (void)arg.evaluate(registry);
}

TEST(Gsn, SelfReferenceCycleDetected) {
  ArgumentModel arg;
  const GsnId g = arg.add(GsnType::kGoal, "G1", "supports itself");
  arg.support(g, g);
  const auto problems = arg.validate();
  EXPECT_TRUE(std::any_of(problems.begin(), problems.end(), [](const std::string& p) {
    return p.find("cycle") != std::string::npos;
  }));
  EvidenceRegistry registry;
  (void)arg.evaluate(registry);  // must terminate
}

TEST(Gsn, InContextCycleDetected) {
  // A loop closed purely through in_context_of edges — the support tree
  // alone is acyclic, so a support-only walker would miss it.
  ArgumentModel arg;
  const GsnId goal = arg.add(GsnType::kGoal, "G1", "goal");
  arg.mark_undeveloped(goal);
  const GsnId c1 = arg.add(GsnType::kContext, "C1", "operating environment");
  const GsnId c2 = arg.add(GsnType::kContext, "C2", "assumed fleet size");
  arg.in_context(goal, c1);
  arg.in_context(c1, c2);
  arg.in_context(c2, c1);
  const auto problems = arg.validate();
  EXPECT_TRUE(std::any_of(problems.begin(), problems.end(), [](const std::string& p) {
    return p.find("cycle") != std::string::npos;
  }));
}

TEST(Gsn, DanglingEvidenceEvaluatesUnsupported) {
  ArgumentModel arg;
  const GsnId goal = arg.add(GsnType::kGoal, "G1", "claim");
  const GsnId solution = arg.add(GsnType::kSolution, "Sn1", "report");
  arg.support(goal, solution);
  arg.bind_evidence(solution, EvidenceId{999});  // never registered
  EvidenceRegistry registry;
  const auto eval = arg.evaluate(registry);
  EXPECT_EQ(eval.at(goal.value()).status, SupportStatus::kUnsupported);
  EXPECT_EQ(eval.at(goal.value()).confidence, 0.0);
}

TEST(Gsn, NodesAccessorPreservesCreationOrder) {
  SimpleCase c;
  const auto& nodes = c.arg.nodes();
  ASSERT_EQ(nodes.size(), 6u);
  EXPECT_EQ(nodes.front().label, "G1");
  EXPECT_EQ(nodes.back().label, "Sn2");
}

TEST(Gsn, ContextNodesAlwaysSupported) {
  ArgumentModel arg;
  const GsnId g = arg.add(GsnType::kGoal, "G1", "claim");
  const GsnId ctx = arg.add(GsnType::kContext, "C1", "scope");
  const GsnId sol = arg.add(GsnType::kSolution, "Sn1", "evidence");
  arg.in_context(g, ctx);
  arg.support(g, sol);
  EvidenceRegistry registry;
  const EvidenceId ev = registry.add(EvidenceKind::kAnalysis, "a", "", 1.0);
  arg.bind_evidence(sol, ev);
  const auto eval = arg.evaluate(registry);
  EXPECT_EQ(eval.at(ctx.value()).status, SupportStatus::kSupported);
  EXPECT_EQ(eval.at(g.value()).status, SupportStatus::kSupported);
}

TEST(Gsn, DotExportContainsNodesAndEdges) {
  SimpleCase c;
  const std::string dot = c.arg.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("G1"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("parallelogram"), std::string::npos);  // strategy shape
}

// Backslashes in labels and statements are literal text: they must come
// out doubled, or a trailing \ escapes the closing quote and a \l turns
// into a Graphviz layout escape.
TEST(Gsn, DotExportEscapesBackslashes) {
  ArgumentModel arg;
  const GsnId g = arg.add(GsnType::kGoal, R"(G\l1)", R"(say "C:\tmp\" ends in \)");
  const std::string dot = arg.to_dot();
  const std::string node = "  n" + std::to_string(g.value()) +
                           R"( [shape=box, label="G\\l1\nsay \"C:\\tmp\\\" ends in \\"];)";
  EXPECT_NE(dot.find(node + "\n"), std::string::npos) << dot;
}

TEST(Gsn, ByLabelLookup) {
  SimpleCase c;
  ASSERT_NE(c.arg.by_label("G2"), nullptr);
  EXPECT_EQ(c.arg.by_label("G2")->statement, "comms secure");
  EXPECT_EQ(c.arg.by_label("nope"), nullptr);
}

TEST(Evidence, FreshnessAging) {
  EvidenceRegistry registry;
  const EvidenceId ev = registry.add(EvidenceKind::kFieldData, "ops-log", "", 0.9,
                                     /*produced_at=*/0, /*validity=*/1000);
  registry.set_now(500);
  EXPECT_TRUE(registry.confidence(ev).has_value());
  registry.set_now(1500);
  EXPECT_FALSE(registry.confidence(ev).has_value());
}

TEST(Evidence, RejectsOutOfRangeConfidence) {
  EvidenceRegistry registry;
  EXPECT_THROW(registry.add(EvidenceKind::kTestResult, "x", "", 1.5),
               std::invalid_argument);
  const EvidenceId ev = registry.add(EvidenceKind::kTestResult, "x", "", 0.5);
  EXPECT_THROW(registry.update_confidence(ev, -0.1), std::invalid_argument);
}

TEST(Evidence, UnknownIdReportsMissing) {
  EvidenceRegistry registry;
  EXPECT_FALSE(registry.confidence(EvidenceId{99}).has_value());
  EXPECT_EQ(registry.item(EvidenceId{99}), nullptr);
}

}  // namespace
}  // namespace agrarsec::assurance
