// Shared plumbing of the benchmark driver: command-line arguments, clocks,
// order statistics, the run digest and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mbrcbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (relative to the cwd).
  std::string trace_out = ".bench_build/traces";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out DIR]`.
/// Returns false (after printing why) on a malformed command line.
bool parse_args(int argc, char** argv, Args& args);

/// The design seed handed to benchgen::DesignProfile::seed: a fixed mix of
/// the workload seed, positive and below 2^52 so that it survives the
/// service protocol, whose JSON numbers are doubles.
std::uint64_t design_seed(std::uint64_t workload_seed);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();
/// CPU seconds of the calling thread so far.
double thread_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]) of unsorted `values`.
double percentile(std::vector<double> values, double q);

/// FNV-1a over the values fed in, for bit-identity gates.
class Digest {
public:
  void add(std::string_view bytes);
  void add(double value);
  void add(std::int64_t value);
  std::uint64_t value() const { return hash_; }

private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// The result line the benchmark prints last: correctness, operation
/// counts and the named metrics.
class Result {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure (printed to stderr immediately).
  void fail(const std::string& why);
  void attempt(std::int64_t count = 1) { attempted_ += count; }
  void failed_op(std::int64_t count = 1) { failed_ += count; }

  bool correct() const { return correct_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  }

  /// Prints every metric as a readable line, then the JSON object as the
  /// last line of stdout.
  void print() const;

private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Prints the host/build record (nproc, hardware threads, compiler, build
/// type, seeds) and returns false when the build is not optimised.
bool print_host_record(const Args& args);

}  // namespace mbrcbench
