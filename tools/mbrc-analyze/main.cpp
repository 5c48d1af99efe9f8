// mbrc-analyze CLI: the shared static-analysis driver
// (tools/common/driver.hpp) around the lifetime/concurrency rule engine.
// Prints `file:line:col: RULE: message` plus the escape/flow chain.
#include "analyze.hpp"
#include "driver.hpp"

int main(int argc, char** argv) {
  mbrc::analysis::ToolSpec spec;
  spec.name = "mbrc-analyze";
  spec.rules_example = "A2,A3,...";
  spec.run = [](const std::vector<mbrc::analysis::SourceFile>& files,
                const std::vector<std::string>& rules,
                const std::vector<mbrc::analysis::BaselineEntry>& baseline) {
    mbrc::analyze::AnalyzeOptions options;
    options.rules = rules;
    return mbrc::analyze::run_analyze(files, options, baseline);
  };
  return mbrc::analysis::run_tool(spec, argc, argv);
}
