// Static call graph over an IR module: fan-in/fan-out, recursion detection,
// and reachability from entry points. Contributes the "control flow analysis
// can determine numbers of calling and returning targets" features of §4.1.
#ifndef SRC_METRICS_CALLGRAPH_H_
#define SRC_METRICS_CALLGRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/lang/ir.h"

namespace metrics {

class CallGraph {
 public:
  explicit CallGraph(const lang::IrModule& module);

  // Distinct user-defined callees of `fn` (excludes builtins and externals).
  int FanOut(const std::string& fn) const;
  // Distinct user-defined callers of `fn`.
  int FanIn(const std::string& fn) const;
  // Total call sites inside `fn` (including builtins and externals).
  int CallSites(const std::string& fn) const;

  // True if `fn` participates in a call cycle (direct or mutual recursion).
  bool IsRecursive(const std::string& fn) const;

  // Functions reachable from `entry` (inclusive). Unknown entry -> empty.
  std::set<std::string> ReachableFrom(const std::string& entry) const;

  // Names of functions never called by any other function (roots / exports).
  std::vector<std::string> Roots() const;

 private:
  std::map<std::string, std::set<std::string>> callees_;
  std::map<std::string, std::set<std::string>> callers_;
  std::map<std::string, int> call_sites_;
  std::set<std::string> recursive_;
  std::set<std::string> defined_;
};

// Entry points of a module for whole-program analyses (symbolic execution,
// dynamic traces): main when present, else the first `max_roots` call-graph
// roots in name order.
std::vector<std::string> EntryFunctions(const lang::IrModule& module, size_t max_roots);

}  // namespace metrics

#endif  // SRC_METRICS_CALLGRAPH_H_
