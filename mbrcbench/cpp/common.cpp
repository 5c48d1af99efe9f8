#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

namespace mbrcbench {

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << '\n';
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::cerr << "--seed needs a non-negative integer\n";
        return false;
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        std::cerr << "--seconds needs a number in (0, 600]\n";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::cerr << "--trace needs 0 or 1\n";
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return false;
    }
  }
  if (args.workload.empty()) {
    std::cerr << "--workload is required\n";
    return false;
  }
  return true;
}

std::uint64_t design_seed(std::uint64_t workload_seed) {
  // splitmix64 finalizer: neighbouring workload seeds give unrelated designs.
  std::uint64_t z = workload_seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return (z >> 12) | 1;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

void Digest::add(std::int64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  correct_ = false;
  std::cerr << "CORRECTNESS FAILURE: " << why << '\n';
}

void Result::print() const {
  std::printf("error_rate %.6f (%lld failed of %lld attempted)\n",
              error_rate(), static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  for (const Entry& e : metrics_)
    std::printf("metric %-36s %16.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  std::ostringstream os;
  mbrc::obs::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("correct", correct_);
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics").begin_object();
  for (const Entry& e : metrics_) {
    w.key(e.name).begin_object();
    w.kv("value", std::isfinite(e.value) ? e.value : 0.0);
    w.kv("unit", e.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::fflush(stdout);
  std::cout << os.str() << std::endl;
}

bool print_host_record(const Args& args) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  std::printf(
      "host nproc=%d hardware_threads=%u compiler=\"%s\" "
      "CMAKE_BUILD_TYPE=%s optimised=%s workload=%s seed=%llu "
      "design_seed=%llu seconds=%g trace=%d\n",
      nproc, std::thread::hardware_concurrency(), MBRCBENCH_COMPILER,
      MBRCBENCH_BUILD_TYPE, optimised ? "yes" : "NO", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(design_seed(args.seed)), args.seconds,
      args.trace ? 1 : 0);
  if (!optimised)
    std::fprintf(stderr,
                 "refusing to measure: this build is not optimised "
                 "(CMAKE_BUILD_TYPE=%s)\n",
                 MBRCBENCH_BUILD_TYPE);
  return optimised;
}

}  // namespace mbrcbench
