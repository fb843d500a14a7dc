//===- perfbench/src/Ingest.cpp - The ingest workload ---------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// An in-process ccprofd (socket on, 2 workers) with its store in the
// run's scratch directory. Set-up generates the uploads from the seed:
// distinct .ccpa capsules (real profiles of small Rodinia kernels, one
// repeat index per upload) and, every TraceEvery-th upload, a raw
// .cctr trace of a small kernel that the daemon must profile itself.
//
// One round runs two phases against a fresh daemon and store:
//  * open loop: uploads fall due on a seeded Poisson schedule at
//    OfferedRate uploads/s; one generator thread sends the capsules and
//    another the traces, one socket connection each. A capsule's
//    latency runs from its due time until its object file is renamed
//    into the store (observed through inotify), so a stalled generator
//    charges its wait to every later capsule;
//  * closed loop: SaturationClients connections each send their share
//    of SaturationUploads capsules back to back; throughput is uploads
//    stored per second until the daemon has processed all of them.
//    Traces stay out of this phase: at saturation a few multi-megabyte
//    uploads would set the rate through the listener's payload reads
//    rather than through the store.
//
// Output check: every upload is acknowledged, processed without error
// and stored (each capsule's content-addressed object exists), and the
// store validates.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cfg/BinaryImage.h"
#include "core/Profiler.h"
#include "core/ProgramStructure.h"
#include "pipeline/JobRunner.h"
#include "pipeline/JobSpec.h"
#include "service/Ccprofd.h"
#include "service/ServiceClient.h"
#include "service/ServiceStore.h"
#include "trace/Canonicalize.h"
#include "workloads/MiniKernels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

using namespace ccprof;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr unsigned DaemonWorkers = 2;
// Far below the saturation rate (about 20,000/s on tmpfs), so the open
// loop measures service time and trace-induced waits, not a backlog.
constexpr double OfferedRate = 500.0; // uploads per second
constexpr double OpenLoopSeconds = 1.0;
constexpr unsigned TraceEvery = 50;
constexpr unsigned SaturationUploads = 10000;
constexpr unsigned SaturationClients = 2;
constexpr unsigned BaseKernels = 8;
constexpr unsigned TraceKernels = 2;
constexpr const char *SocketName = "ccprofd.sock";

struct Upload {
  bool IsTrace = false;
  /// Index into the trace payloads (traces) or the capsule bytes.
  size_t Payload = 0;
  std::string Name;
  /// Content-addressed object filename a capsule lands under.
  std::string ObjectName;
};

struct Payloads {
  std::vector<std::string> Capsules;
  std::vector<std::string> TraceBytes;
  std::vector<std::string> TraceNames;
  std::vector<Upload> Uploads;
  /// Due offsets (seconds) of the open-loop uploads.
  std::vector<double> Due;
};

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

Payloads makePayloads(uint64_t Seed) {
  // The smallest Rodinia kernels by trace length: capsule sources and
  // trace uploads cheap enough to profile on arrival.
  struct Kernel {
    std::string Name;
    size_t Refs;
    Trace Recorded;
  };
  std::vector<Kernel> Kernels;
  for (const std::unique_ptr<Workload> &W : makeRodiniaMiniKernels()) {
    Kernel K{W->name(), 0, Trace()};
    W->run(WorkloadVariant::Original, &K.Recorded);
    K.Refs = K.Recorded.size();
    Kernels.push_back(std::move(K));
  }
  std::sort(Kernels.begin(), Kernels.end(),
            [](const Kernel &A, const Kernel &B) {
              return A.Refs != B.Refs ? A.Refs < B.Refs : A.Name < B.Name;
            });

  Payloads P;
  for (unsigned I = 0; I < TraceKernels && I < Kernels.size(); ++I) {
    std::ostringstream Out;
    Kernels[I].Recorded.writeTo(Out);
    P.TraceBytes.push_back(Out.str());
    P.TraceNames.push_back(Kernels[I].Name);
  }
  std::vector<ProfileArtifact> Bases;
  for (unsigned I = 0; I < BaseKernels && I < Kernels.size(); ++I) {
    JobSpec Job;
    Job.WorkloadName = Kernels[I].Name;
    Bases.push_back(runJob(Job).Artifact);
  }

  uint64_t State = Seed;
  const size_t OpenLoop = static_cast<size_t>(OfferedRate * OpenLoopSeconds);
  double At = 0.0;
  for (size_t I = 0; I < OpenLoop + SaturationUploads; ++I) {
    if (I < OpenLoop) {
      const double U = (static_cast<double>(mix(State) >> 11) + 0.5) / 0x1p53;
      At += -std::log(U) / OfferedRate;
      P.Due.push_back(At);
    }
    Upload Up;
    if (I < OpenLoop && I % TraceEvery == TraceEvery - 1) {
      Up.IsTrace = true;
      // Round-robin, so every round carries the same trace mix.
      Up.Payload = (I / TraceEvery) % P.TraceBytes.size();
      Up.Name = P.TraceNames[Up.Payload];
    } else {
      ProfileArtifact A = Bases[mix(State) % Bases.size()];
      A.Provenance.Job.Repeat = static_cast<uint32_t>(I + 1);
      std::ostringstream Out;
      A.writeTo(Out);
      Up.Payload = P.Capsules.size();
      P.Capsules.push_back(Out.str());
      Up.Name = A.Provenance.Job.WorkloadName;
      Up.ObjectName = A.Provenance.Job.key() + "-h" +
                      hex16(contentHash(P.Capsules.back())) + ".ccpa";
    }
    P.Uploads.push_back(std::move(Up));
  }
  return P;
}

/// Records when each object file is renamed into a store's objects/
/// directory.
class StoreWatcher {
public:
  explicit StoreWatcher(const std::string &Dir) : Fd(inotify_init1(IN_CLOEXEC)) {
    if (Fd >= 0 && inotify_add_watch(Fd, Dir.c_str(), IN_MOVED_TO) >= 0)
      Thread = std::thread([this] { loop(); });
  }
  ~StoreWatcher() {
    Stop.store(true);
    if (Thread.joinable())
      Thread.join();
    if (Fd >= 0)
      ::close(Fd);
  }
  StoreWatcher(const StoreWatcher &) = delete;
  StoreWatcher &operator=(const StoreWatcher &) = delete;

  bool watching() const { return Thread.joinable(); }

  /// Time the object \p Name was stored; false if not seen.
  bool storedAt(const std::string &Name, Clock::time_point &At) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    const auto It = Seen.find(Name);
    if (It == Seen.end())
      return false;
    At = It->second;
    return true;
  }

private:
  void loop() {
    alignas(inotify_event) char Buf[64 * 1024];
    while (!Stop.load()) {
      pollfd Pfd{Fd, POLLIN, 0};
      if (::poll(&Pfd, 1, 20) <= 0)
        continue;
      const ssize_t N = ::read(Fd, Buf, sizeof Buf);
      const Clock::time_point Now = Clock::now();
      std::lock_guard<std::mutex> Lock(Mutex);
      for (ssize_t Off = 0; Off < N;) {
        const auto *E = reinterpret_cast<const inotify_event *>(Buf + Off);
        if (E->len)
          Seen.emplace(E->name, Now);
        Off += static_cast<ssize_t>(sizeof(inotify_event) + E->len);
      }
    }
  }

  int Fd;
  std::atomic<bool> Stop{false};
  mutable std::mutex Mutex;
  std::map<std::string, Clock::time_point> Seen;
  std::thread Thread;
};

uint64_t jsonField(const std::string &Json, const std::string &Key) {
  const size_t At = Json.find("\"" + Key + "\":");
  return At == std::string::npos
             ? 0
             : std::strtoull(Json.c_str() + At + Key.size() + 3, nullptr, 10);
}

bool waitProcessed(const Ccprofd &D, uint64_t Count) {
  const Clock::time_point Deadline = Clock::now() + std::chrono::seconds(60);
  while (D.processed() < Count) {
    if (Clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

} // namespace

std::map<std::string, double>
probeService(const std::vector<std::string> &Capsules, const std::string &Dir,
             Report &R, Tracer &T) {
  std::map<std::string, double> Out;
  std::string Error;
  {
    ServiceConfig Config;
    Config.StoreDir = Dir + "/daemon";
    Config.SocketPath = SocketName;
    Config.Workers = DaemonWorkers;
    Ccprofd Daemon(Config);
    R.check(Daemon.start(&Error), "probe daemon start: " + Error);
    std::vector<double> AckMs(Capsules.size());
    std::vector<char> Acked(Capsules.size(), 0);
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < SaturationClients; ++C)
      Clients.emplace_back([&, C] {
        for (size_t I = C; I < Capsules.size(); I += SaturationClients) {
          const Clock::time_point Start = Clock::now();
          Tracer::Span S(T, "service.ack");
          Acked[I] = serviceSubmitBytes(SocketName, "perfbench", "ccpa",
                                        "probe", Capsules[I])
                         .Ok;
          AckMs[I] = secondsSince(Start) * 1e3;
        }
      });
    for (std::thread &Client : Clients)
      Client.join();
    uint64_t Sent = 0;
    for (char A : Acked)
      Sent += A;
    R.check(Sent == Capsules.size(), "probe upload refused");
    R.check(waitProcessed(Daemon, Sent), "probe uploads not processed");
    const std::string Stats = Daemon.statsJson();
    R.check(jsonField(Stats, "errors") == 0, "probe daemon reported errors");
    Out["service.ack_ms.p50"] = percentile(AckMs, 0.50);
    Out["service.ack_ms.p99"] = percentile(AckMs, 0.99);
    Out["service.queue_peak"] = static_cast<double>(jsonField(Stats, "peak_depth"));
    Out["service.rejected"] = static_cast<double>(jsonField(Stats, "rejected"));
  }

  ServiceStore Store(Dir + "/store");
  R.check(Store.open(&Error), "probe store: " + Error);
  std::vector<double> PutSecs;
  for (const std::string &Bytes : Capsules) {
    ProfileArtifact A;
    R.check(ProfileArtifact::readFromBytes(Bytes, A), "probe capsule decodes");
    const Clock::time_point Start = Clock::now();
    R.check(Store.put(A, Bytes).Ok, "probe put failed");
    PutSecs.push_back(secondsSince(Start));
  }
  Out["service.put_s.p50"] = percentile(PutSecs, 0.50);
  Out["service.put_s.p99"] = percentile(PutSecs, 0.99);
  fs::remove_all(Dir);
  return Out;
}

Report runIngest(const RunOptions &Opts, Tracer &T) {
  Report R;
  const bool Traced = T.enabled();

  Payloads P;
  const double SetupSeconds = medianSetupSeconds(
      SetupRepeats, [&] { P = makePayloads(Opts.Seed); });
  const size_t OpenLoop = P.Due.size();

  // Per round: open-loop capsule latency quantiles and saturation rate.
  // The run reports their medians, so a slow spell of the host that
  // covers one round does not set the run's tail.
  std::vector<double> P50Ms, P90Ms, P99Ms, RatePerSec, LateMs;
  size_t LatencySamples = 0;
  std::string Digest0;

  auto send = [&](const Upload &Up) {
    return serviceSubmitBytes(
        SocketName, "perfbench", Up.IsTrace ? "cctr" : "ccpa", Up.Name,
        Up.IsTrace ? P.TraceBytes[Up.Payload] : P.Capsules[Up.Payload]);
  };

  auto Round = [&](unsigned Index) {
    const std::string Dir =
        (fs::path(Opts.WorkDir) / ("ingest-" + std::to_string(Index))).string();
    ServiceConfig Config;
    Config.StoreDir = Dir;
    Config.SocketPath = SocketName;
    Config.Workers = DaemonWorkers;
    Ccprofd Daemon(Config);
    std::string Error;
    R.check(Daemon.start(&Error), "daemon start: " + Error);

    // Open loop.
    auto Watcher =
        std::make_unique<StoreWatcher>(Daemon.store().objectsDirectory());
    R.check(Watcher->watching(), "inotify watch on the store");
    // Capsules and traces each have their own generator thread and
    // connection, so sending a multi-megabyte trace never delays the
    // capsules due behind it.
    std::vector<Clock::time_point> DueAt(OpenLoop);
    std::vector<char> Acked(P.Uploads.size(), 0);
    const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    for (size_t I = 0; I < OpenLoop; ++I)
      DueAt[I] = Start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(P.Due[I]));
    auto Generate = [&](bool Traces, std::vector<double> *Late) {
      for (size_t I = 0; I < OpenLoop; ++I) {
        if (P.Uploads[I].IsTrace != Traces)
          continue;
        std::this_thread::sleep_until(DueAt[I]);
        const Clock::time_point SendAt = Clock::now();
        Acked[I] = send(P.Uploads[I]).Ok;
        if (Late)
          Late->push_back(
              std::chrono::duration<double, std::milli>(SendAt - DueAt[I])
                  .count());
      }
    };
    std::thread TraceGenerator(Generate, true, nullptr);
    Generate(false, &LateMs);
    TraceGenerator.join();
    uint64_t Sent = 0;
    for (size_t I = 0; I < OpenLoop; ++I)
      Sent += Acked[I];
    R.check(waitProcessed(Daemon, Sent), "open-loop uploads not processed");
    std::vector<double> LatencyMs;
    for (size_t I = 0; I < OpenLoop; ++I) {
      Clock::time_point At;
      if (!P.Uploads[I].IsTrace && Acked[I] &&
          Watcher->storedAt(P.Uploads[I].ObjectName, At))
        LatencyMs.push_back(
            std::chrono::duration<double, std::milli>(At - DueAt[I]).count());
    }
    Watcher.reset();
    P50Ms.push_back(percentile(LatencyMs, 0.50));
    P90Ms.push_back(percentile(LatencyMs, 0.90));
    P99Ms.push_back(percentile(LatencyMs, 0.99));
    LatencySamples += LatencyMs.size();

    // Closed loop.
    const Clock::time_point SatStart = Clock::now();
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < SaturationClients; ++C)
      Clients.emplace_back([&, C] {
        for (size_t I = OpenLoop + C; I < P.Uploads.size();
             I += SaturationClients)
          Acked[I] = send(P.Uploads[I]).Ok;
      });
    for (std::thread &Client : Clients)
      Client.join();
    uint64_t SatSent = 0;
    for (size_t I = OpenLoop; I < P.Uploads.size(); ++I)
      SatSent += Acked[I];
    R.check(waitProcessed(Daemon, Sent + SatSent),
            "saturation uploads not processed");
    const double SatSeconds = secondsSince(SatStart);
    RatePerSec.push_back(static_cast<double>(SatSent) / SatSeconds);
    const double Measured = secondsSince(Start);

    // Untimed from here on.
    const std::string Stats = Daemon.statsJson();
    R.check(jsonField(Stats, "errors") == 0 &&
                jsonField(Stats, "processed") == P.Uploads.size(),
            "daemon reported errors: " + Stats.substr(0, 200));
    for (size_t I = 0; I < P.Uploads.size(); ++I) {
      const Upload &Up = P.Uploads[I];
      R.check(Acked[I] != 0, "upload refused: " + Up.Name);
      if (!Up.IsTrace)
        R.check(fs::exists(fs::path(Daemon.store().objectsDirectory()) /
                           Up.ObjectName),
                "acknowledged upload not stored: " + Up.ObjectName);
    }
    const ArtifactValidationReport Validation =
        Daemon.store().validateAll(&Error);
    R.check(Validation.ok(), "store validation failed");
    if (Index == 0) {
      Digest D;
      for (const std::string &Key : Daemon.store().aggregateKeys()) {
        ProfileArtifact A;
        Daemon.store().aggregateFor(Key, A);
        std::ostringstream Out;
        A.writeTo(Out);
        D.add(Key);
        D.add(Out.str());
      }
      Digest0 = D.hex();
    }
    Daemon.stop();
    fs::remove_all(Dir);
    return Measured;
  };

  std::vector<double> RoundSecs = runRounds(Traced ? 0.0 : Opts.Seconds, Round);
  std::map<std::string, double> Extra;
  if (Traced) {
    Extra["tracing.overhead_pct"] = tracedRound(T, RoundSecs, Round);
    T.setEnabled(true);

    for (const auto &[Name, Value] :
         probeService(P.Capsules, Opts.WorkDir + "/service-probe", R, T))
      Extra[Name] = Value;

    // What the daemon does with each trace upload, step by step.
    for (const Upload &Up : P.Uploads) {
      if (!Up.IsTrace)
        continue;
      Trace Recorded, Tr;
      {
        Tracer::Span S(T, "trace.decode");
        std::istringstream In(P.TraceBytes[Up.Payload]);
        R.check(Trace::readFrom(In, Recorded), "trace upload decodes");
      }
      {
        Tracer::Span S(T, "trace.canonicalize");
        Tr = canonicalizeTrace(Recorded);
      }
      // ProgramStructure keeps a reference to its image.
      std::unique_ptr<BinaryImage> Image;
      std::unique_ptr<ProgramStructure> Structure;
      {
        Tracer::Span S(T, "cfg.structure");
        Image = std::make_unique<BinaryImage>(
            makeWorkloadByName(Up.Name)->makeBinary());
        Structure = std::make_unique<ProgramStructure>(*Image);
      }
      {
        Tracer::Span S(T, "core.profile");
        JobSpec Job;
        Job.WorkloadName = Up.Name;
        const ProfileResult Result =
            Profiler(Job.toProfileOptions()).profile(Tr, *Structure);
        for (const LoopConflictReport &Loop : Result.Loops)
          T.add("core.loops_flagged",
                Loop.Significant && Loop.ConflictPredicted ? 1.0 : 0.0);
      }
    }
    T.setEnabled(false);
  }
  R.Digest = Digest0;

  const double Rate = median(RatePerSec);
  R.EndToEnd = {{"setup_s", "s", SetupSeconds},
                {"work_per_s", "1/s", Rate},
                {"latency_p50_ms", "ms", median(P50Ms)}};
  R.Details = {{"ingest_per_s", "uploads/s", Rate},
               {"ingest_p50_ms", "ms", median(P50Ms)},
               {"ingest_p90_ms", "ms", median(P90Ms)},
               {"ingest_p99_ms", "ms", median(P99Ms)},
               {"ingest_latency_samples", "count",
                static_cast<double>(LatencySamples)},
               {"offered_per_s", "uploads/s", OfferedRate},
               {"open_loop_uploads", "count", static_cast<double>(OpenLoop)},
               {"saturation_uploads", "count",
                static_cast<double>(SaturationUploads)},
               {"open_loop_trace_share", "ratio", 1.0 / TraceEvery},
               {"rounds", "count", static_cast<double>(RoundSecs.size())},
               {"round_s", "s", median(RoundSecs)},
               {"gen_late_p99_ms", "ms", percentile(LateMs, 0.99)}};
  Extra["service.gen_late_ms"] = percentile(LateMs, 0.99);
  R.PerLayer = layerMetrics(T, Extra);
  return R;
}

} // namespace perfbench
