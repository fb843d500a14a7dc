//===- perfbench/src/Bench.h - Shared benchmark harness pieces -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: run options, the result it
/// reports, the span tracer that attributes time to the library's
/// modules, and small statistics / hashing / process helpers.
///
/// Spans are recorded only from the benchmark's own files, around each
/// call into a module's public functions; the library is unmodified.
/// A span's *self* time is its duration minus the part its child spans
/// (on the same thread) cover, so nesting a module call inside a
/// harness span never double-counts.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_PERFBENCH_BENCH_H
#define CCPROF_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Traced = false;
  /// Scratch directory for stores and sockets (memory-backed when the
  /// launcher could mount one); emptied by the launcher.
  std::string WorkDir;
  /// Directory for files that outlive the run (the span timeline).
  std::string OutDir;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupRepeats = 3;

/// Spans and counters of one traced run.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled.load(); }
  /// Spans and counters are recorded only while enabled; toggle it
  /// only while no span is open.
  void setEnabled(bool On) { Enabled.store(On); }

  /// RAII span: records [construction, destruction) under \p Name.
  class Span {
  public:
    Span(Tracer &Owner, const char *Name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    friend class Tracer;
    Tracer *Owner;
    const char *Name;
    Clock::time_point Start;
    double ChildSeconds = 0.0;
    Span *Parent = nullptr;
    uint64_t Id = 0;
  };

  /// Adds \p Value to counter \p Name while enabled.
  void add(const std::string &Name, double Value);
  double counter(const std::string &Name) const;

  /// Sum of self time per span name, in seconds.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as Chrome trace-event JSON.
  bool writeTimeline(const std::string &Path) const;

private:
  struct Record {
    const char *Name;
    uint64_t Id, Parent;
    double StartUs, EndUs, SelfSeconds;
    uint32_t Thread;
  };
  void finish(const Span &S, double Seconds, double Self);

  std::atomic<bool> Enabled;
  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Record> Records;
  std::map<std::string, double> Counters;
  uint64_t NextId = 1;
};

/// One named number a workload reports.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// What a workload run returns to main().
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Names of the failed checks, for the log.
  std::vector<std::string> Failures;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// This workload's own names for its numbers (jobs_per_s,
  /// refs_per_s, ...), printed for people.
  std::vector<Metric> Details;
  /// Order-independent digest of the workload's outputs.
  std::string Digest;

  /// Counts one output check; a false \p Ok is recorded as a failure.
  void check(bool Ok, const std::string &What);
};

/// Median over repeated set-ups: calls \p Setup \p Repeats times and
/// returns the median wall time. The last call's state is what the
/// timed phase uses.
double medianSetupSeconds(unsigned Repeats, const std::function<void()> &Setup);

/// Runs \p Round until \p Seconds have been measured, starting a new
/// round only while the median round so far still fits (always at least
/// one). A round returns the seconds it measured, which leave out its
/// untimed output checks. \returns each round's measured seconds.
std::vector<double> runRounds(double Seconds,
                              const std::function<double(unsigned)> &Round);

/// Runs one traced round of \p Round, then one more untraced round,
/// and \returns the tracing overhead: the traced round's time over the
/// median of the untraced ones (\p Untraced, which gains the extra
/// round), in percent. Tracing is off again on return.
double tracedRound(Tracer &T, std::vector<double> &Untraced,
                   const std::function<double(unsigned)> &Round);

double median(std::vector<double> Values);
/// Percentile by linear interpolation between the closest ranks (the
/// NumPy default), \p Q in [0, 1]. Over a few dozen samples it weighs
/// two order statistics instead of one, which steadies tail metrics.
double percentile(std::vector<double> Values, double Q);

/// FNV-1a 64 digest builder.
class Digest {
public:
  void add(std::string_view Bytes);
  void add(uint64_t Value);
  void add(double Value);
  uint64_t value() const { return Hash; }
  std::string hex() const;

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

/// Peak resident set size in MB: the larger of the median set-up's
/// peak and the median timed round's peak. The kernel's high-water
/// mark is reset before each set-up and round (/proc/self/clear_refs),
/// so state a set-up leaves resident counts in every round, while the
/// luck of one round's thread interleaving does not decide the figure.
/// Where the mark cannot be reset, the process peak.
double peakRssMb();
double processCpuSeconds();
/// Filesystem type name of \p Path ("tmpfs", "ext4", ...).
std::string filesystemType(const std::string &Path);

/// splitmix64: the harness's seed expander.
uint64_t mix(uint64_t &State);

Report runCampaign(const RunOptions &Opts, Tracer &T);
Report runGeometrySweep(const RunOptions &Opts, Tracer &T);
Report runCurves(const RunOptions &Opts, Tracer &T);
Report runIngest(const RunOptions &Opts, Tracer &T);

/// The service layer on its own, for traced runs: \p Capsules are sent
/// to a fresh in-process ccprofd over two socket connections (ack time,
/// queue peak, refusals), then put straight into a fresh ServiceStore
/// (put time). Stores live under \p Dir; the daemon's socket is created
/// in the working directory. \returns the service.* per-layer metrics.
std::map<std::string, double>
probeService(const std::vector<std::string> &Capsules, const std::string &Dir,
             Report &R, Tracer &T);

/// The per-layer metrics every traced run prints, zero where a
/// workload does not exercise the layer, filled from \p T's spans and
/// counters; \p Extra overrides or adds workload-computed values.
std::vector<Metric> layerMetrics(const Tracer &T,
                                 const std::map<std::string, double> &Extra);

} // namespace perfbench

#endif // CCPROF_PERFBENCH_BENCH_H
