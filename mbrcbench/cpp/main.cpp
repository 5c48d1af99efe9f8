// Benchmark driver: mbrcbench --workload W --seed N --seconds S --trace 0|1
//
// Prints the host/build record, progress lines and readable metric lines,
// then the result as one JSON object on the last line of stdout. Exits 2
// on a malformed command line or an unoptimised build, 1 when the run
// could not complete; a completed run exits 0 and reports failed
// operations and correctness in the result line.
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  mbrcbench::Args args;
  if (!mbrcbench::parse_args(argc, argv, args)) return 2;
  if (!mbrcbench::is_batch_workload(args.workload) &&
      !mbrcbench::is_service_workload(args.workload)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!mbrcbench::print_host_record(args)) return 2;
  mbrcbench::Result result;
  try {
    if (mbrcbench::is_batch_workload(args.workload))
      mbrcbench::run_batch(args, result);
    else
      mbrcbench::run_service(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  result.print();
  return 0;
}
