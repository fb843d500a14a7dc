//===- perfbench/src/Bench.cpp - Shared benchmark harness pieces ----------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>

#include <sys/resource.h>
#include <sys/vfs.h>

namespace perfbench {

namespace {

thread_local Tracer::Span *CurrentSpan = nullptr;

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{1};
  thread_local const uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

/// Each set-up's and each timed round's own peak RSS in MB, recorded
/// by medianSetupSeconds and runRounds when the peak can be reset.
std::vector<double> SetupPeakRssMb, RoundPeakRssMb;

double maxRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// Lowers the process's peak RSS to its current RSS (clear_refs 5);
/// false where the kernel does not allow it.
bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.close();
  return !Out.fail();
}

} // namespace

Tracer::Span::Span(Tracer &T, const char *Name)
    : Owner(T.Enabled ? &T : nullptr), Name(Name) {
  if (!Owner)
    return;
  Parent = CurrentSpan;
  CurrentSpan = this;
  Start = Clock::now();
}

Tracer::Span::~Span() {
  if (!Owner)
    return;
  const double Seconds = secondsSince(Start);
  CurrentSpan = Parent;
  if (Parent)
    Parent->ChildSeconds += Seconds;
  Owner->finish(*this, Seconds, std::max(0.0, Seconds - ChildSeconds));
}

void Tracer::finish(const Span &S, double Seconds, double Self) {
  const double StartUs =
      std::chrono::duration<double, std::micro>(S.Start - Origin).count();
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.push_back({S.Name, NextId++, S.Parent ? S.Parent->Id : 0, StartUs,
                     StartUs + Seconds * 1e6, Self, threadNumber()});
}

void Tracer::add(const std::string &Name, double Value) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters[Name] += Value;
}

double Tracer::counter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, double> Out;
  for (const Record &R : Records)
    Out[R.Name] += R.SelfSeconds;
  return Out;
}

bool Tracer::writeTimeline(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << R.Name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << R.Thread
        << ",\"ts\":" << R.StartUs << ",\"dur\":" << (R.EndUs - R.StartUs)
        << ",\"args\":{\"id\":" << R.Id << ",\"parent\":" << R.Parent << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failures.size() < 32)
      Failures.push_back(What);
  }
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = std::clamp(Q, 0.0, 1.0) *
                     static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

double medianSetupSeconds(unsigned Repeats,
                          const std::function<void()> &Setup) {
  std::vector<double> Times;
  for (unsigned I = 0; I < std::max(1u, Repeats); ++I) {
    const bool Reset = resetPeakRss();
    const Clock::time_point Start = Clock::now();
    Setup();
    Times.push_back(secondsSince(Start));
    if (Reset)
      SetupPeakRssMb.push_back(maxRssMb());
  }
  return median(Times);
}

std::vector<double> runRounds(double Seconds,
                              const std::function<double(unsigned)> &Round) {
  std::vector<double> Times;
  double Spent = 0.0;
  do {
    const bool Reset = resetPeakRss();
    Times.push_back(Round(static_cast<unsigned>(Times.size())));
    if (Reset)
      RoundPeakRssMb.push_back(maxRssMb());
    Spent += Times.back();
  } while (Spent + median(Times) <= Seconds);
  return Times;
}

double tracedRound(Tracer &T, std::vector<double> &Untraced,
                   const std::function<double(unsigned)> &Round) {
  T.setEnabled(true);
  const double Traced = Round(static_cast<unsigned>(Untraced.size()));
  T.setEnabled(false);
  Untraced.push_back(Round(static_cast<unsigned>(Untraced.size()) + 1));
  const double Base = median(Untraced);
  return 100.0 * (Traced - Base) / Base;
}

void Digest::add(std::string_view Bytes) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
}

void Digest::add(uint64_t Value) {
  char Bytes[sizeof Value];
  std::memcpy(Bytes, &Value, sizeof Value);
  add(std::string_view(Bytes, sizeof Bytes));
}

void Digest::add(double Value) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &Value, sizeof Bits);
  add(Bits);
}

std::string Digest::hex() const {
  static const char *Hex = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15, Shift = 0; I >= 0; --I, Shift += 4)
    Out[I] = Hex[(Hash >> Shift) & 0xf];
  return Out;
}

double peakRssMb() {
  if (SetupPeakRssMb.empty() && RoundPeakRssMb.empty())
    return maxRssMb();
  return std::max(median(SetupPeakRssMb), median(RoundPeakRssMb));
}

double processCpuSeconds() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
}

std::string filesystemType(const std::string &Path) {
  struct statfs Info {};
  if (statfs(Path.c_str(), &Info) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Info.f_type)) {
  case 0x01021994UL:
    return "tmpfs";
  case 0xEF53UL:
    return "ext4";
  case 0x58465342UL:
    return "xfs";
  case 0x9123683EUL:
    return "btrfs";
  case 0x794C7630UL:
    return "overlayfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "0x%lx",
                  static_cast<unsigned long>(Info.f_type));
    return Buf;
  }
  }
}

uint64_t mix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<Metric> layerMetrics(const Tracer &T,
                                 const std::map<std::string, double> &Extra) {
  // Source of each metric: a span name (self seconds), a counter, or
  // a value the workload computed itself ("" = Extra only).
  enum class Source { Span, Counter, Computed };
  struct Def {
    const char *Name, *Unit;
    Source From;
    const char *Key;
  };
  static const Def Defs[] = {
      {"workloads.trace_s", "s", Source::Span, "workloads.trace"},
      {"workloads.refs", "count", Source::Counter, "workloads.refs"},
      {"trace.canonicalize_s", "s", Source::Span, "trace.canonicalize"},
      {"trace.decode_s", "s", Source::Span, "trace.decode"},
      {"cfg.structure_s", "s", Source::Span, "cfg.structure"},
      {"sim.cache_ns_per_ref.lru", "ns", Source::Computed, ""},
      {"sim.cache_ns_per_ref.fifo", "ns", Source::Computed, ""},
      {"sim.cache_ns_per_ref.plru", "ns", Source::Computed, ""},
      {"sim.mrc_exact_ns_per_ref", "ns", Source::Computed, ""},
      {"sim.mrc_sampled_ns_per_ref", "ns", Source::Computed, ""},
      {"sim.mrc_max_err", "ratio", Source::Computed, ""},
      {"sim.partitions_routed", "count", Source::Counter,
       "sim.partitions_routed"},
      {"sim.partitions_reused", "count", Source::Counter,
       "sim.partitions_reused"},
      {"sim.partition_reuse_ratio", "ratio", Source::Computed, ""},
      {"pmu.l1_ordered_s", "s", Source::Span, "pmu.l1_ordered"},
      {"pmu.l1_aggregates_s", "s", Source::Span, "pmu.l1_aggregates"},
      {"pmu.l2_stream_s", "s", Source::Span, "pmu.l2_stream"},
      {"pmu.events", "count", Source::Counter, "pmu.events"},
      {"pmu.ordered_speedup_k4", "x", Source::Computed, ""},
      {"pmu.materialize_ratio", "x", Source::Computed, ""},
      {"pmu.sample_s", "s", Source::Span, "pmu.sample"},
      {"pmu.samples", "count", Source::Counter, "pmu.samples"},
      {"core.profile_s", "s", Source::Span, "core.profile"},
      {"core.loops_flagged", "count", Source::Counter, "core.loops_flagged"},
      {"core.detect_accuracy", "ratio", Source::Computed, ""},
      {"analysis.static_s", "s", Source::Span, "analysis.static"},
      {"analysis.consistency_s", "s", Source::Span, "analysis.consistency"},
      {"analysis.static_mrc_max_err", "ratio", Source::Computed, ""},
      {"pipeline.stream_cache_hit_ratio", "ratio", Source::Computed, ""},
      {"pipeline.encode_s", "s", Source::Span, "pipeline.encode"},
      {"pipeline.persist_s", "s", Source::Span, "pipeline.persist"},
      {"pipeline.artifact_bytes", "B", Source::Counter,
       "pipeline.artifact_bytes"},
      {"service.ack_ms.p50", "ms", Source::Computed, ""},
      {"service.ack_ms.p99", "ms", Source::Computed, ""},
      {"service.put_s.p50", "s", Source::Computed, ""},
      {"service.put_s.p99", "s", Source::Computed, ""},
      {"service.queue_peak", "count", Source::Computed, ""},
      {"service.rejected", "count", Source::Computed, ""},
      {"service.gen_late_ms", "ms", Source::Computed, ""},
      {"process.cpu_s", "s", Source::Computed, ""},
      {"tracing.overhead_pct", "%", Source::Computed, ""},
  };
  const std::map<std::string, double> Self = T.selfSeconds();
  std::vector<Metric> Out;
  for (const Def &D : Defs) {
    double Value = 0.0;
    if (const auto It = Extra.find(D.Name); It != Extra.end()) {
      Value = It->second;
    } else if (D.From == Source::Span) {
      const auto S = Self.find(D.Key);
      Value = S == Self.end() ? 0.0 : S->second;
    } else if (D.From == Source::Counter) {
      Value = T.counter(D.Key);
    }
    Out.push_back({D.Name, D.Unit, Value});
  }
  return Out;
}

} // namespace perfbench
