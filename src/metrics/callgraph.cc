#include "src/metrics/callgraph.h"

namespace metrics {
namespace {

// Tarjan-style cycle membership: a function is recursive if it can reach
// itself through the callee relation.
std::set<std::string> FindRecursive(const std::map<std::string, std::set<std::string>>& callees,
                                    const std::set<std::string>& defined) {
  std::set<std::string> recursive;
  for (const auto& start : defined) {
    // BFS from each function's callees looking for the function itself.
    std::set<std::string> seen;
    std::vector<std::string> stack;
    const auto it = callees.find(start);
    if (it != callees.end()) {
      for (const auto& c : it->second) {
        stack.push_back(c);
      }
    }
    bool found = false;
    while (!stack.empty() && !found) {
      const std::string current = stack.back();
      stack.pop_back();
      if (current == start) {
        found = true;
        break;
      }
      if (!seen.insert(current).second) {
        continue;
      }
      const auto cit = callees.find(current);
      if (cit != callees.end()) {
        for (const auto& c : cit->second) {
          stack.push_back(c);
        }
      }
    }
    if (found) {
      recursive.insert(start);
    }
  }
  return recursive;
}

}  // namespace

CallGraph::CallGraph(const lang::IrModule& module) {
  for (const auto& fn : module.functions) {
    defined_.insert(fn.name);
    callees_[fn.name];  // Ensure presence even with no calls.
    callers_[fn.name];
    call_sites_[fn.name] = 0;
  }
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block.instrs) {
        if (instr.op != lang::IrOpcode::kCall) {
          continue;
        }
        ++call_sites_[fn.name];
        if (defined_.contains(instr.callee)) {
          callees_[fn.name].insert(instr.callee);
          callers_[instr.callee].insert(fn.name);
        }
      }
    }
  }
  recursive_ = FindRecursive(callees_, defined_);
}

int CallGraph::FanOut(const std::string& fn) const {
  const auto it = callees_.find(fn);
  return it == callees_.end() ? 0 : static_cast<int>(it->second.size());
}

int CallGraph::FanIn(const std::string& fn) const {
  const auto it = callers_.find(fn);
  return it == callers_.end() ? 0 : static_cast<int>(it->second.size());
}

int CallGraph::CallSites(const std::string& fn) const {
  const auto it = call_sites_.find(fn);
  return it == call_sites_.end() ? 0 : it->second;
}

bool CallGraph::IsRecursive(const std::string& fn) const { return recursive_.contains(fn); }

std::set<std::string> CallGraph::ReachableFrom(const std::string& entry) const {
  std::set<std::string> seen;
  if (!defined_.contains(entry)) {
    return seen;
  }
  std::vector<std::string> stack = {entry};
  while (!stack.empty()) {
    const std::string current = stack.back();
    stack.pop_back();
    if (!seen.insert(current).second) {
      continue;
    }
    const auto it = callees_.find(current);
    if (it != callees_.end()) {
      for (const auto& callee : it->second) {
        stack.push_back(callee);
      }
    }
  }
  return seen;
}

std::vector<std::string> CallGraph::Roots() const {
  std::vector<std::string> roots;
  for (const auto& [name, callers] : callers_) {
    // Self-recursion alone does not disqualify a root.
    bool external_caller = false;
    for (const auto& caller : callers) {
      if (caller != name) {
        external_caller = true;
        break;
      }
    }
    if (!external_caller) {
      roots.push_back(name);
    }
  }
  return roots;
}

std::vector<std::string> EntryFunctions(const lang::IrModule& module, size_t max_roots) {
  if (module.FindFunction("main") != nullptr) {
    return {"main"};
  }
  std::vector<std::string> entries = CallGraph(module).Roots();
  if (entries.size() > max_roots) {
    entries.resize(max_roots);
  }
  return entries;
}

}  // namespace metrics
