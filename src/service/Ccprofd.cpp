//===- service/Ccprofd.cpp - Profile-ingest daemon -----------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/Ccprofd.h"

#include "core/ProgramStructure.h"
#include "core/Profiler.h"
#include "support/Json.h"
#include "trace/BinaryIO.h"
#include "trace/Canonicalize.h"
#include "trace/Trace.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ccprof;
namespace fs = std::filesystem;

namespace {

/// Uploads above this are refused before allocation — a sanity bound,
/// far above any real capsule or trace, protecting the daemon from a
/// garbage length field.
constexpr size_t MaxUploadBytes = 256u << 20;

/// Longest command line the daemon buffers while waiting for its '\n'.
/// A PUT header is a few dozen bytes; without a cap, a client that
/// never sends a newline grows the buffer without bound.
constexpr size_t MaxHeaderBytes = 4096;

constexpr const char *TraceExtension = ".cctr";

/// Buffered line/exact reader over a socket fd. read(2) on the
/// accepted fd carries a receive timeout (set at accept), so a stalled
/// client unblocks the daemon instead of wedging it.
struct FdReader {
  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;

  bool fill() {
    char Tmp[4096];
    const ssize_t N = ::read(Fd, Tmp, sizeof Tmp);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }

  void compact() {
    if (Pos > (1u << 16)) {
      Buf.erase(0, Pos);
      Pos = 0;
    }
  }

  enum class LineStatus { Ok, Closed, TooLong };

  /// Reads up to a '\n' (not included). \returns Closed on EOF/timeout
  /// and TooLong once more than MaxHeaderBytes arrive without one.
  LineStatus readLine(std::string &Line) {
    for (;;) {
      const size_t Nl = Buf.find('\n', Pos);
      if (Nl != std::string::npos && Nl - Pos <= MaxHeaderBytes) {
        Line = Buf.substr(Pos, Nl - Pos);
        Pos = Nl + 1;
        compact();
        return LineStatus::Ok;
      }
      if (Buf.size() - Pos > MaxHeaderBytes)
        return LineStatus::TooLong;
      if (!fill())
        return LineStatus::Closed;
    }
  }

  bool readExact(std::string &Out, size_t N) {
    while (Buf.size() - Pos < N)
      if (!fill())
        return false;
    Out = Buf.substr(Pos, N);
    Pos += N;
    compact();
    return true;
  }
};

bool writeAll(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    const ssize_t N = ::write(Fd, Bytes.data(), Bytes.size());
    if (N <= 0)
      return false;
    Bytes.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// The workload a dropped trace file names: the stem up to the first
/// '.', so "NW.17.cctr" and "NW.cctr" both profile against NW.
std::string workloadOfDropName(const fs::path &Path) {
  std::string Stem = Path.filename().string();
  const size_t Dot = Stem.find('.');
  if (Dot != std::string::npos)
    Stem.resize(Dot);
  return Stem;
}

} // namespace

Ccprofd::Ccprofd(ServiceConfig ConfigIn)
    : Config(std::move(ConfigIn)), Store(Config.StoreDir),
      Monitor(Config.Monitor), Queue(Config.QueueCapacity) {}

Ccprofd::~Ccprofd() { stop(); }

void Ccprofd::setAlertSink(std::function<void(const RegressionAlert &)> Sink) {
  AlertSink = std::move(Sink);
}

bool Ccprofd::start(std::string *Error) {
  StartTime = std::chrono::steady_clock::now();
  if (!Store.open(Error))
    return false;

  if (!Config.SocketPath.empty()) {
    sockaddr_un Addr{};
    if (Config.SocketPath.size() >= sizeof(Addr.sun_path)) {
      if (Error)
        *Error = "socket path too long: " + Config.SocketPath;
      return false;
    }
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      if (Error)
        *Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Config.SocketPath.c_str());
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Config.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) <
            0 ||
        ::listen(ListenFd, 16) < 0) {
      if (Error)
        *Error = "bind/listen " + Config.SocketPath + ": " +
                 std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  }

  Started.store(true);
  const unsigned Workers = std::max(1u, Config.Workers);
  WorkerThreads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  if (!Config.WatchDir.empty())
    WatcherThread = std::thread([this] { watcherLoop(); });
  if (ListenFd >= 0)
    ListenerThread = std::thread([this] { listenerLoop(); });
  return true;
}

void Ccprofd::stop() {
  if (Stopping.exchange(true))
    return;
  // Ingress first, so nothing refills the queue while it drains.
  if (ListenerThread.joinable())
    ListenerThread.join();
  if (WatcherThread.joinable())
    WatcherThread.join();
  Queue.close();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Config.SocketPath.c_str());
  }
}

bool Ccprofd::runOnce(std::string *Error) {
  StartTime = std::chrono::steady_clock::now();
  if (!Store.open(Error))
    return false;
  Started.store(true);

  const unsigned Workers = std::max(1u, Config.Workers);
  WorkerThreads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });

  if (!Config.WatchDir.empty()) {
    // Drain the drop directory completely: a full queue defers files,
    // so rescan until nothing is deferred and nothing new appears.
    size_t Deferred = 0;
    do {
      if (scanDropDirOnce(&Deferred) == 0 && Deferred > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (Deferred > 0);
  }

  Stopping.store(true);
  Queue.close();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();
  return true;
}

bool Ccprofd::submit(IngestRequest Request) {
  return Queue.push(std::move(Request));
}

void Ccprofd::workerLoop() {
  while (std::optional<IngestRequest> Request = Queue.pop())
    processRequest(*Request);
}

void Ccprofd::processRequest(const IngestRequest &Request) {
  bool HadError = false;
  bool Dedup = false;
  size_t AlertCount = 0;

  ProfileArtifact Artifact;
  bool HaveArtifact = false;
  std::string_view CapsuleBytes;
  std::string Error;

  if (Request.Kind == IngestKind::Artifact) {
    if (ProfileArtifact::readFromBytes(Request.Bytes, Artifact, &Error)) {
      HaveArtifact = true;
      CapsuleBytes = Request.Bytes;
    } else {
      HadError = true;
    }
  } else {
    // A raw trace: profile it on arrival under a default job spec for
    // the named workload, then ingest the resulting capsule like any
    // other. Profiling is deterministic, so a re-uploaded trace dedups
    // on its capsule bytes.
    std::istringstream In(Request.Bytes);
    Trace Recorded;
    std::unique_ptr<Workload> W;
    if (!Trace::readFrom(In, Recorded, &Error)) {
      HadError = true;
    } else if (!(W = makeWorkloadByName(Request.Name))) {
      Error = "unknown workload '" + Request.Name + "'";
      HadError = true;
    } else {
      const Trace T = canonicalizeTrace(Recorded);
      JobSpec Job;
      Job.WorkloadName = Request.Name;
      BinaryImage Image = W->makeBinary();
      ProgramStructure Structure(Image);
      const Profiler P(Job.toProfileOptions());
      Artifact.Result = P.profile(T, Structure);
      Artifact.Provenance.Job = Job;
      Artifact.Provenance.Tool = "ccprofd-1";
      HaveArtifact = true;
    }
  }

  if (HaveArtifact) {
    const ServicePutResult Put = CapsuleBytes.empty()
                                     ? Store.put(Artifact)
                                     : Store.put(Artifact, CapsuleBytes);
    if (!Put.Ok) {
      HadError = true;
    } else if (!Put.Fresh) {
      Dedup = true;
    } else {
      const std::vector<RegressionAlert> Alerts =
          Monitor.observe(Artifact, Request.Client);
      AlertCount = Alerts.size();
      if (AlertSink)
        for (const RegressionAlert &Alert : Alerts)
          AlertSink(Alert);
    }
  }

  noteClient(Request.Client, Request.Bytes.size(), Dedup, HadError,
             AlertCount);
  if (HadError)
    IngestErrors.fetch_add(1);
  Processed.fetch_add(1);
}

size_t Ccprofd::scanDropDirOnce(size_t *DeferredOut) {
  std::error_code Ec;
  std::vector<fs::path> Candidates;
  for (fs::directory_iterator It(Config.WatchDir, Ec), End;
       !Ec && It != End; It.increment(Ec)) {
    const fs::path Path = It->path();
    const std::string Ext = Path.extension().string();
    if (Ext == ArtifactExtension || Ext == TraceExtension)
      Candidates.push_back(Path);
  }
  // Deterministic ingest order regardless of directory iteration
  // order — with one worker, a deterministic merge/alert sequence.
  std::sort(Candidates.begin(), Candidates.end());

  size_t Enqueued = 0, Deferred = 0;
  for (const fs::path &Path : Candidates) {
    // Claim by rename: exactly one scanner (or daemon) wins the file,
    // and a producer still writing under a temp name is never touched.
    fs::path Claimed = Path;
    Claimed += ".claimed";
    std::error_code RenameEc;
    fs::rename(Path, Claimed, RenameEc);
    if (RenameEc)
      continue; // Vanished or claimed by someone else.

    std::ifstream In(Claimed, std::ios::binary);
    if (!In) {
      fs::rename(Claimed, Path, RenameEc);
      continue;
    }
    IngestRequest Request;
    Request.Kind = Path.extension() == TraceExtension ? IngestKind::Trace
                                                      : IngestKind::Artifact;
    Request.Name = workloadOfDropName(Path);
    Request.Client = "watch";
    Request.Bytes = bio::readAll(In);
    Request.Source = Path.string();
    In.close();

    if (Queue.tryPush(std::move(Request))) {
      fs::remove(Claimed, RenameEc);
      ++Enqueued;
    } else {
      // Backpressure: restore the drop and let the next poll retry.
      fs::rename(Claimed, Path, RenameEc);
      ++Deferred;
    }
  }
  if (DeferredOut)
    *DeferredOut = Deferred;
  return Enqueued;
}

void Ccprofd::watcherLoop() {
  while (!Stopping.load()) {
    scanDropDirOnce();
    for (unsigned Waited = 0; Waited < Config.PollMs && !Stopping.load();
         Waited += 20)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void Ccprofd::listenerLoop() {
  while (!Stopping.load()) {
    pollfd Pfd{};
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    const int Ready = ::poll(&Pfd, 1, 200);
    if (Ready <= 0)
      continue;
    const int Client = ::accept(ListenFd, nullptr, nullptr);
    if (Client < 0)
      continue;
    // A stalled client must not wedge the daemon: bound every read.
    timeval Timeout{};
    Timeout.tv_sec = 5;
    ::setsockopt(Client, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof Timeout);
    handleConnection(Client);
    ::close(Client);
  }
}

void Ccprofd::handleConnection(int Fd) {
  FdReader Reader;
  Reader.Fd = Fd;
  std::string Line;
  while (!Stopping.load()) {
    const FdReader::LineStatus Status = Reader.readLine(Line);
    if (Status == FdReader::LineStatus::TooLong) {
      writeAll(Fd, "ERR header too long\n");
      return;
    }
    if (Status == FdReader::LineStatus::Closed)
      return;
    std::istringstream Tokens(Line);
    std::string Command;
    Tokens >> Command;
    if (Command == "PING") {
      if (!writeAll(Fd, "PONG\n"))
        return;
    } else if (Command == "STATS") {
      if (!writeAll(Fd, statsJson() + "\n"))
        return;
    } else if (Command == "PUT") {
      std::string Client, KindStr, Name;
      uint64_t NumBytes = 0;
      Tokens >> Client >> KindStr >> Name >> NumBytes;
      const bool IsTrace = KindStr == "cctr";
      if (Tokens.fail() || (!IsTrace && KindStr != "ccpa")) {
        // The payload framing is unrecoverable after a bad header.
        writeAll(Fd, "ERR malformed PUT header\n");
        return;
      }
      if (NumBytes > MaxUploadBytes) {
        writeAll(Fd, "ERR payload too large\n");
        return;
      }
      IngestRequest Request;
      Request.Kind = IsTrace ? IngestKind::Trace : IngestKind::Artifact;
      Request.Name = Name;
      Request.Client = Client;
      Request.Source = "socket";
      if (!Reader.readExact(Request.Bytes, NumBytes)) {
        writeAll(Fd, "ERR truncated payload\n");
        return;
      }
      // push() blocks while the queue is full — the client stalls
      // right here, which is the backpressure contract.
      if (!Queue.push(std::move(Request))) {
        writeAll(Fd, "ERR shutting down\n");
        return;
      }
      if (!writeAll(Fd, "OK queued\n"))
        return;
    } else if (!Command.empty()) {
      if (!writeAll(Fd, "ERR unknown command '" + Command + "'\n"))
        return;
    }
  }
}

void Ccprofd::noteClient(const std::string &Client, size_t Bytes, bool Dedup,
                         bool Error, size_t Alerts) {
  std::lock_guard<std::mutex> Lock(ClientMutex);
  ClientStats &S = Clients[Client];
  ++S.Received;
  S.Bytes += Bytes;
  if (Dedup)
    ++S.Deduped;
  if (Error)
    ++S.Errors;
  S.Alerts += Alerts;
}

std::vector<RegressionAlert> Ccprofd::recentAlerts(size_t Max) const {
  return Monitor.recentAlerts(Max);
}

std::string Ccprofd::statsJson() const {
  const IngestQueueStats QS = Queue.stats();
  const ServiceStoreStats SS = Store.stats();
  const RegressionMonitorStats MS = Monitor.stats();
  const double Uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();
  const uint64_t Done = Processed.load();
  const double Rate = Uptime > 0.0 ? static_cast<double>(Done) / Uptime : 0.0;

  std::ostringstream Out;
  Out << "{\"uptime_sec\":" << json::number(Uptime, 3)
      << ",\"processed\":" << Done
      << ",\"ingests_per_sec\":" << json::number(Rate, 1)
      << ",\"errors\":" << IngestErrors.load();
  Out << ",\"queue\":{\"depth\":" << QS.Depth
      << ",\"capacity\":" << QS.Capacity << ",\"enqueued\":" << QS.Enqueued
      << ",\"dequeued\":" << QS.Dequeued << ",\"rejected\":" << QS.Rejected
      << ",\"stalls\":" << QS.Stalls << ",\"peak_depth\":" << QS.PeakDepth
      << "}";
  Out << ",\"store\":{\"puts\":" << SS.Puts << ",\"stored\":" << SS.Stored
      << ",\"dedup_hits\":" << SS.DedupHits
      << ",\"aggregate_updates\":" << SS.AggregateUpdates
      << ",\"bytes_written\":" << SS.BytesWritten
      << ",\"objects\":" << SS.Objects
      << ",\"aggregates\":" << SS.Aggregates << "}";
  Out << ",\"monitor\":{\"observations\":" << MS.Observations
      << ",\"baselines\":" << MS.Baselines
      << ",\"baseline_updates\":" << MS.BaselineUpdates
      << ",\"alerts\":" << MS.AlertsRaised << "}";
  {
    std::lock_guard<std::mutex> Lock(ClientMutex);
    Out << ",\"clients\":{";
    bool First = true;
    for (const auto &[Name, S] : Clients) {
      if (!First)
        Out << ",";
      First = false;
      Out << json::quote(Name) << ":{\"received\":" << S.Received
          << ",\"bytes\":" << S.Bytes << ",\"deduped\":" << S.Deduped
          << ",\"errors\":" << S.Errors << ",\"alerts\":" << S.Alerts << "}";
    }
    Out << "}";
  }
  Out << ",\"recent_alerts\":[";
  const std::vector<RegressionAlert> Alerts = Monitor.recentAlerts(8);
  for (size_t I = 0; I < Alerts.size(); ++I) {
    if (I)
      Out << ",";
    Out << renderAlertJson(Alerts[I]);
  }
  Out << "]}";
  return Out.str();
}
