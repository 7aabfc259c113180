#include "assurance/gsn.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace agrarsec::assurance {

std::string_view gsn_type_name(GsnType type) {
  switch (type) {
    case GsnType::kGoal: return "goal";
    case GsnType::kStrategy: return "strategy";
    case GsnType::kSolution: return "solution";
    case GsnType::kContext: return "context";
    case GsnType::kAssumption: return "assumption";
    case GsnType::kJustification: return "justification";
  }
  return "?";
}

std::string_view support_status_name(SupportStatus status) {
  switch (status) {
    case SupportStatus::kSupported: return "supported";
    case SupportStatus::kPartial: return "partial";
    case SupportStatus::kUnsupported: return "unsupported";
    case SupportStatus::kUndeveloped: return "undeveloped";
  }
  return "?";
}

GsnId ArgumentModel::add(GsnType type, std::string label, std::string statement) {
  if (by_label_.contains(label)) {
    throw std::invalid_argument("duplicate GSN label: " + label);
  }
  GsnNode node;
  node.id = ids_.next();
  node.type = type;
  node.label = std::move(label);
  node.statement = std::move(statement);
  by_id_[node.id.value()] = nodes_.size();
  by_label_[node.label] = nodes_.size();
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

namespace {
GsnNode* mutable_node(std::vector<GsnNode>& nodes,
                      const std::unordered_map<std::uint64_t, std::size_t>& by_id,
                      GsnId id) {
  const auto it = by_id.find(id.value());
  if (it == by_id.end()) throw std::invalid_argument("unknown GSN node id");
  return &nodes[it->second];
}
}  // namespace

void ArgumentModel::support(GsnId parent, GsnId child) {
  GsnNode* p = mutable_node(nodes_, by_id_, parent);
  (void)mutable_node(nodes_, by_id_, child);  // existence check
  p->supported_by.push_back(child);
}

void ArgumentModel::in_context(GsnId subject, GsnId context) {
  GsnNode* s = mutable_node(nodes_, by_id_, subject);
  (void)mutable_node(nodes_, by_id_, context);
  s->in_context_of.push_back(context);
}

void ArgumentModel::bind_evidence(GsnId solution, EvidenceId evidence) {
  GsnNode* s = mutable_node(nodes_, by_id_, solution);
  if (s->type != GsnType::kSolution) {
    throw std::invalid_argument("evidence can only bind to solutions");
  }
  s->evidence = evidence;
}

void ArgumentModel::mark_undeveloped(GsnId goal) {
  mutable_node(nodes_, by_id_, goal)->undeveloped = true;
}

const GsnNode* ArgumentModel::node(GsnId id) const {
  const auto it = by_id_.find(id.value());
  return it == by_id_.end() ? nullptr : &nodes_[it->second];
}

const GsnNode* ArgumentModel::by_label(const std::string& label) const {
  const auto it = by_label_.find(label);
  return it == by_label_.end() ? nullptr : &nodes_[it->second];
}

std::vector<const GsnNode*> ArgumentModel::roots() const {
  std::vector<bool> has_parent(nodes_.size(), false);
  for (const GsnNode& n : nodes_) {
    for (GsnId child : n.supported_by) {
      has_parent[by_id_.at(child.value())] = true;
    }
    for (GsnId ctx : n.in_context_of) {
      has_parent[by_id_.at(ctx.value())] = true;
    }
  }
  std::vector<const GsnNode*> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!has_parent[i] && (nodes_[i].type == GsnType::kGoal ||
                           nodes_[i].type == GsnType::kStrategy)) {
      out.push_back(&nodes_[i]);
    }
  }
  return out;
}

std::vector<std::string> ArgumentModel::validate() const {
  std::vector<std::string> problems;

  auto is_support_type = [](GsnType t) {
    return t == GsnType::kGoal || t == GsnType::kStrategy || t == GsnType::kSolution;
  };
  auto is_context_type = [](GsnType t) {
    return t == GsnType::kContext || t == GsnType::kAssumption ||
           t == GsnType::kJustification;
  };

  for (const GsnNode& n : nodes_) {
    for (GsnId child_id : n.supported_by) {
      const GsnNode* child = node(child_id);
      if (!is_support_type(child->type)) {
        problems.push_back(n.label + ": supported-by edge to " +
                           std::string(gsn_type_name(child->type)) + " " + child->label);
      }
      if (n.type == GsnType::kSolution) {
        problems.push_back(n.label + ": solutions must be leaves");
      }
    }
    for (GsnId ctx_id : n.in_context_of) {
      const GsnNode* ctx = node(ctx_id);
      if (!is_context_type(ctx->type)) {
        problems.push_back(n.label + ": in-context-of edge to non-context " +
                           ctx->label);
      }
    }
    if (n.type == GsnType::kGoal && !n.undeveloped && n.supported_by.empty()) {
      problems.push_back(n.label + ": goal has no support and is not marked undeveloped");
    }
    if (n.type == GsnType::kStrategy && n.supported_by.empty()) {
      problems.push_back(n.label + ": strategy decomposes into nothing");
    }
    if (n.type == GsnType::kSolution && !n.evidence) {
      problems.push_back(n.label + ": solution without bound evidence");
    }
  }

  // Cycle detection (DFS colors) over supported_by AND in_context_of
  // edges: context attachments between context-type nodes can close loops
  // the support edges alone never see.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(nodes_.size(), Color::kWhite);
  std::function<bool(std::size_t)> dfs = [&](std::size_t i) {
    color[i] = Color::kGray;
    for (const auto* edges : {&nodes_[i].supported_by, &nodes_[i].in_context_of}) {
      for (GsnId child : *edges) {
        const std::size_t j = by_id_.at(child.value());
        if (color[j] == Color::kGray) return true;
        if (color[j] == Color::kWhite && dfs(j)) return true;
      }
    }
    color[i] = Color::kBlack;
    return false;
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (color[i] == Color::kWhite && dfs(i)) {
      problems.push_back("argument contains a support cycle");
      break;
    }
  }
  return problems;
}

Evaluation ArgumentModel::evaluate_node(
    const GsnNode& n, const EvidenceOracle& oracle,
    std::unordered_map<std::uint64_t, Evaluation>& memo,
    std::vector<std::uint64_t>& stack) const {
  if (const auto it = memo.find(n.id.value()); it != memo.end()) return it->second;
  if (std::find(stack.begin(), stack.end(), n.id.value()) != stack.end()) {
    return {SupportStatus::kUnsupported, 0.0};  // cycle: fail safe
  }
  stack.push_back(n.id.value());

  Evaluation result;
  if (n.type == GsnType::kSolution) {
    const auto conf = n.evidence ? oracle.confidence(*n.evidence) : std::nullopt;
    if (conf) {
      result.status = *conf > 0.0 ? SupportStatus::kSupported
                                  : SupportStatus::kUnsupported;
      result.confidence = *conf;
    } else {
      result.status = SupportStatus::kUnsupported;
      result.confidence = 0.0;
    }
  } else if (n.type == GsnType::kContext || n.type == GsnType::kAssumption ||
             n.type == GsnType::kJustification) {
    result.status = SupportStatus::kSupported;
    result.confidence = 1.0;
  } else if (n.undeveloped || n.supported_by.empty()) {
    result.status = SupportStatus::kUndeveloped;
    result.confidence = 0.0;
  } else {
    std::size_t supported = 0;
    std::size_t partial = 0;
    double confidence = 1.0;
    for (GsnId child_id : n.supported_by) {
      const Evaluation child = evaluate_node(*node(child_id), oracle, memo, stack);
      if (child.status == SupportStatus::kSupported) ++supported;
      if (child.status == SupportStatus::kPartial) ++partial;
      confidence *= child.confidence;
    }
    if (supported == n.supported_by.size()) {
      result.status = SupportStatus::kSupported;
    } else if (supported > 0 || partial > 0) {
      result.status = SupportStatus::kPartial;
    } else {
      result.status = SupportStatus::kUnsupported;
    }
    result.confidence = confidence;
  }

  stack.pop_back();
  memo[n.id.value()] = result;
  return result;
}

std::unordered_map<std::uint64_t, Evaluation> ArgumentModel::evaluate(
    const EvidenceOracle& oracle) const {
  std::unordered_map<std::uint64_t, Evaluation> memo;
  std::vector<std::uint64_t> stack;
  for (const GsnNode& n : nodes_) {
    (void)evaluate_node(n, oracle, memo, stack);
  }
  return memo;
}

std::string ArgumentModel::to_dot() const {
  std::string out = "digraph assurance_case {\n  rankdir=TB;\n";
  auto shape = [](GsnType t) {
    switch (t) {
      case GsnType::kGoal: return "box";
      case GsnType::kStrategy: return "parallelogram";
      case GsnType::kSolution: return "circle";
      case GsnType::kContext: return "ellipse";
      case GsnType::kAssumption: return "ellipse";
      case GsnType::kJustification: return "ellipse";
    }
    return "box";
  };
  // Inside a DOT quoted string only \" is a string escape, but Graphviz
  // reads \n, \l, \r (and \N, \G, ...) in labels as layout escapes, so a
  // literal backslash must be doubled: a statement ending in \ would
  // otherwise escape the closing quote.
  auto escape = [](const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"') r += "\\\"";
      else if (c == '\\') r += "\\\\";
      else if (c == '\n') r += "\\n";
      else r += c;
    }
    return r;
  };
  for (const GsnNode& n : nodes_) {
    out += "  n" + std::to_string(n.id.value()) + " [shape=" + shape(n.type) +
           ", label=\"" + escape(n.label) + "\\n" + escape(n.statement) + "\"];\n";
  }
  for (const GsnNode& n : nodes_) {
    for (GsnId child : n.supported_by) {
      out += "  n" + std::to_string(n.id.value()) + " -> n" +
             std::to_string(child.value()) + ";\n";
    }
    for (GsnId ctx : n.in_context_of) {
      out += "  n" + std::to_string(n.id.value()) + " -> n" +
             std::to_string(ctx.value()) + " [style=dashed];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace agrarsec::assurance
