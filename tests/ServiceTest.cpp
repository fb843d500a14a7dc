//===- tests/ServiceTest.cpp - ccprofd service tests ----------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Covers the ingest service: queue FIFO order and backpressure, the
// content-addressed ServiceStore (dedup, concurrent multi-writer
// safety, arrival-order-independent rolling aggregates, restart
// recovery), the regression monitor's alert policy, the age-gated
// stale-temp reaper, deterministic store listings, and the daemon end
// to end over its drop directory and Unix-domain socket.
//
//===----------------------------------------------------------------------===//

#include "service/Ccprofd.h"
#include "service/IngestQueue.h"
#include "service/RegressionMonitor.h"
#include "service/ServiceClient.h"
#include "service/ServiceStore.h"
#include "trace/BinaryIO.h"
#include "trace/Trace.h"
#include "workloads/Workload.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ccprof;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory under the system temp root, removed on
/// destruction.
struct TempDir {
  fs::path Path;

  explicit TempDir(const std::string &Name)
      : Path(fs::temp_directory_path() /
             ("ccprof-service-" + Name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

/// A compatible artifact family: same config, varying repeat/seed and
/// per-loop evidence, so any subset merges.
ProfileArtifact makeArtifact(uint32_t Repeat, uint64_t LoopSamples = 1000,
                             bool Conflict = false,
                             WorkloadVariant Variant =
                                 WorkloadVariant::Original,
                             double MissRatio = 0.2) {
  ProfileArtifact A;
  A.Provenance.Job.WorkloadName = "Synthetic";
  A.Provenance.Job.Variant = Variant;
  A.Provenance.Job.Repeat = Repeat;
  A.Provenance.Job.Seed = 1000 + Repeat;
  A.Result.TraceRefs = 100000;
  A.Result.L1Misses = static_cast<uint64_t>(100000 * MissRatio);
  A.Result.Samples = LoopSamples;
  A.Result.L1MissRatio = MissRatio;
  A.Result.NumSets = 64;
  A.Result.RcdThreshold = 8;
  LoopConflictReport Loop;
  Loop.Location = "synthetic.cpp:42";
  Loop.Samples = LoopSamples;
  Loop.MissContribution = 1.0;
  Loop.ContributionFactor = Conflict ? 0.9 : 0.1;
  Loop.ConflictPredicted = Conflict;
  Loop.Significant = true;
  Loop.PerSetMisses.assign(64, 1);
  A.Result.Loops.push_back(std::move(Loop));
  return A;
}

std::string serialize(const ProfileArtifact &Artifact) {
  std::stringstream Stream;
  EXPECT_TRUE(Artifact.writeTo(Stream));
  return Stream.str();
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return bio::readAll(In);
}

} // namespace

//===----------------------------------------------------------------------===//
// IngestQueue
//===----------------------------------------------------------------------===//

TEST(IngestQueueTest, PopsInFifoOrder) {
  IngestQueue Queue(8);
  for (int I = 0; I < 5; ++I) {
    IngestRequest Req;
    Req.Name = std::to_string(I);
    ASSERT_TRUE(Queue.push(std::move(Req)));
  }
  for (int I = 0; I < 5; ++I) {
    std::optional<IngestRequest> Req = Queue.pop();
    ASSERT_TRUE(Req.has_value());
    EXPECT_EQ(Req->Name, std::to_string(I));
  }
  EXPECT_EQ(Queue.depth(), 0u);
}

TEST(IngestQueueTest, TryPushRefusesWhenFull) {
  IngestQueue Queue(2);
  EXPECT_TRUE(Queue.tryPush({}));
  EXPECT_TRUE(Queue.tryPush({}));
  EXPECT_FALSE(Queue.tryPush({}));
  const IngestQueueStats Stats = Queue.stats();
  EXPECT_EQ(Stats.Enqueued, 2u);
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Depth, 2u);
  EXPECT_EQ(Stats.Capacity, 2u);
}

TEST(IngestQueueTest, PushBlocksUntilConsumerMakesRoom) {
  IngestQueue Queue(1);
  ASSERT_TRUE(Queue.push({}));
  std::thread Producer([&Queue] {
    IngestRequest Req;
    Req.Name = "second";
    EXPECT_TRUE(Queue.push(std::move(Req)));
  });
  // Let the producer reach the full-queue wait, then drain one slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(Queue.pop().has_value());
  Producer.join();
  const std::optional<IngestRequest> Second = Queue.pop();
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Second->Name, "second");
  EXPECT_GE(Queue.stats().Stalls, 1u);
}

TEST(IngestQueueTest, CloseDrainsRemainingThenSignalsExit) {
  IngestQueue Queue(4);
  ASSERT_TRUE(Queue.push({}));
  ASSERT_TRUE(Queue.push({}));
  Queue.close();
  EXPECT_FALSE(Queue.push({}));
  EXPECT_TRUE(Queue.pop().has_value());
  EXPECT_TRUE(Queue.pop().has_value());
  EXPECT_FALSE(Queue.pop().has_value());
}

//===----------------------------------------------------------------------===//
// ServiceStore
//===----------------------------------------------------------------------===//

TEST(ServiceStoreTest, PutStoresFreshContentAndDedupsRepeats) {
  TempDir Dir("store-dedup");
  ServiceStore Store(Dir.str());
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;

  const ProfileArtifact Artifact = makeArtifact(0);
  const ServicePutResult First = Store.put(Artifact);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_TRUE(First.Fresh);
  EXPECT_TRUE(fs::exists(First.Path));

  const ServicePutResult Second = Store.put(Artifact);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_FALSE(Second.Fresh);
  EXPECT_EQ(First.Hash, Second.Hash);

  const ServiceStoreStats Stats = Store.stats();
  EXPECT_EQ(Stats.Puts, 2u);
  EXPECT_EQ(Stats.Stored, 1u);
  EXPECT_EQ(Stats.DedupHits, 1u);
  EXPECT_EQ(Stats.Objects, 1u);
  EXPECT_EQ(Stats.Aggregates, 1u);
}

TEST(ServiceStoreTest, AggregateBytesIndependentOfArrivalOrder) {
  // Four runs with distinct repeats, seeds, and evidence weights; the
  // rolling aggregate's serialized bytes must not depend on the order
  // they arrive in.
  std::vector<ProfileArtifact> Family;
  for (uint32_t R = 0; R < 4; ++R)
    Family.push_back(makeArtifact(R, 500 + 250 * R));

  std::vector<std::vector<size_t>> Orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::string Reference;
  for (size_t O = 0; O < Orders.size(); ++O) {
    TempDir Dir("store-order-" + std::to_string(O));
    ServiceStore Store(Dir.str());
    std::string Error;
    ASSERT_TRUE(Store.open(&Error)) << Error;
    for (size_t I : Orders[O]) {
      const ServicePutResult Put = Store.put(Family[I]);
      ASSERT_TRUE(Put.Ok) << Put.Error;
      ASSERT_TRUE(Put.Fresh);
    }
    const std::vector<std::string> Keys = Store.aggregateKeys();
    ASSERT_EQ(Keys.size(), 1u);
    ProfileArtifact Aggregate;
    ASSERT_TRUE(Store.aggregateFor(Keys[0], Aggregate));
    EXPECT_EQ(Aggregate.Provenance.MergedRuns, 4u);
    // Canonical provenance: min seed, repeat struck, service tool tag.
    EXPECT_EQ(Aggregate.Provenance.Job.Seed, 1000u);
    EXPECT_EQ(Aggregate.Provenance.Job.Repeat, 0u);
    EXPECT_EQ(Aggregate.Provenance.Tool, "ccprofd-1");

    const std::string Bytes =
        fileBytes((fs::path(Store.aggregatesDirectory()) /
                   (Keys[0] + ArtifactExtension))
                      .string());
    if (O == 0)
      Reference = Bytes;
    else
      EXPECT_EQ(Bytes, Reference) << "order " << O;
  }
  ASSERT_FALSE(Reference.empty());
}

TEST(ServiceStoreTest, ConcurrentWritersLoseNothingAndAggreeByteForByte) {
  // N threads hammer one store with disjoint slices of a 48-artifact
  // family, in per-thread shuffled order. Afterwards: every object
  // present exactly once, the store validates clean, and the rolling
  // aggregate is byte-identical to a single-threaded sequential ingest.
  constexpr unsigned NumThreads = 6;
  constexpr unsigned PerThread = 8;
  std::vector<ProfileArtifact> Family;
  for (uint32_t I = 0; I < NumThreads * PerThread; ++I)
    Family.push_back(makeArtifact(I, 100 + 7 * I));

  TempDir SeqDir("store-seq");
  ServiceStore Sequential(SeqDir.str());
  std::string Error;
  ASSERT_TRUE(Sequential.open(&Error)) << Error;
  for (const ProfileArtifact &A : Family)
    ASSERT_TRUE(Sequential.put(A).Ok);
  const std::vector<std::string> SeqKeys = Sequential.aggregateKeys();
  ASSERT_EQ(SeqKeys.size(), 1u);
  const std::string SeqBytes =
      fileBytes((fs::path(Sequential.aggregatesDirectory()) /
                 (SeqKeys[0] + ArtifactExtension))
                    .string());

  TempDir ParDir("store-par");
  ServiceStore Parallel(ParDir.str());
  ASSERT_TRUE(Parallel.open(&Error)) << Error;
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < NumThreads; ++T)
    Writers.emplace_back([&Parallel, &Family, T] {
      std::vector<size_t> Indices(PerThread);
      std::iota(Indices.begin(), Indices.end(), T * PerThread);
      std::mt19937 Rng(T + 1);
      std::shuffle(Indices.begin(), Indices.end(), Rng);
      for (size_t I : Indices) {
        const ServicePutResult Put = Parallel.put(Family[I]);
        EXPECT_TRUE(Put.Ok) << Put.Error;
        EXPECT_TRUE(Put.Fresh);
      }
    });
  for (std::thread &T : Writers)
    T.join();

  const ServiceStoreStats Stats = Parallel.stats();
  EXPECT_EQ(Stats.Objects, static_cast<uint64_t>(NumThreads * PerThread));
  EXPECT_EQ(Stats.DedupHits, 0u);
  const ArtifactValidationReport Report = Parallel.validateAll(&Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_TRUE(Report.ok());
  EXPECT_TRUE(Report.StaleTemporaries.empty());

  const std::vector<std::string> ParKeys = Parallel.aggregateKeys();
  ASSERT_EQ(ParKeys.size(), 1u);
  EXPECT_EQ(fileBytes((fs::path(Parallel.aggregatesDirectory()) /
                       (ParKeys[0] + ArtifactExtension))
                          .string()),
            SeqBytes);
}

TEST(ServiceStoreTest, ReopenRebuildsIndexAndContinuesAggregates) {
  TempDir Dir("store-reopen");
  std::string Error;
  {
    ServiceStore Store(Dir.str());
    ASSERT_TRUE(Store.open(&Error)) << Error;
    ASSERT_TRUE(Store.put(makeArtifact(0)).Ok);
    ASSERT_TRUE(Store.put(makeArtifact(1)).Ok);
  }
  ServiceStore Reopened(Dir.str());
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().Objects, 2u);
  EXPECT_EQ(Reopened.stats().IndexRebuilt, 0u); // Hash came from names.

  // Identical content dedups across the restart...
  EXPECT_FALSE(Reopened.put(makeArtifact(0)).Fresh);
  // ...and a new run merges into the *reloaded* aggregate.
  ASSERT_TRUE(Reopened.put(makeArtifact(2)).Ok);
  ProfileArtifact Aggregate;
  ASSERT_EQ(Reopened.aggregateKeys().size(), 1u);
  ASSERT_TRUE(Reopened.aggregateFor(Reopened.aggregateKeys()[0], Aggregate));
  EXPECT_EQ(Aggregate.Provenance.MergedRuns, 3u);
}

TEST(ServiceStoreTest, StaleAggregateIsRebuiltFromObjectsOnOpen) {
  // Aggregates are checkpointed without fsync, so a crash can roll the
  // aggregate file back while the objects stayed durable. Simulate the
  // rollback and verify open() re-merges the group byte-identically.
  TempDir Dir("store-recovery");
  std::string Error;
  std::string HealthyBytes;
  std::string AggregatePath;
  {
    ServiceStore Store(Dir.str());
    ASSERT_TRUE(Store.open(&Error)) << Error;
    ASSERT_TRUE(Store.put(makeArtifact(0)).Ok);
    const ServicePutResult Second = Store.put(makeArtifact(1));
    ASSERT_TRUE(Second.Ok);
    AggregatePath = (fs::path(Store.aggregatesDirectory()) /
                     (Second.AggregateKey + ArtifactExtension))
                        .string();
    HealthyBytes = fileBytes(AggregatePath);
    // "Crash": the aggregate loses the second run; its object remains.
    ProfileArtifact RolledBack = makeArtifact(0);
    canonicalizeAggregate(RolledBack);
    ASSERT_TRUE(RolledBack.saveToFile(AggregatePath));
  }
  {
    ServiceStore Reopened(Dir.str());
    ASSERT_TRUE(Reopened.open(&Error)) << Error;
    EXPECT_EQ(Reopened.stats().AggregatesRebuilt, 1u);
    EXPECT_EQ(fileBytes(AggregatePath), HealthyBytes);
  }
  {
    // A lost aggregate *file* recovers too.
    fs::remove(AggregatePath);
    ServiceStore Reopened(Dir.str());
    ASSERT_TRUE(Reopened.open(&Error)) << Error;
    EXPECT_EQ(Reopened.stats().AggregatesRebuilt, 1u);
    EXPECT_EQ(fileBytes(AggregatePath), HealthyBytes);
  }
}

//===----------------------------------------------------------------------===//
// ArtifactStore listing determinism and error surfacing
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreListTest, ListingIsSortedByPath) {
  TempDir Dir("list-sorted");
  for (const char *Name : {"zeta.ccpa", "alpha.ccpa", "mid.ccpa"})
    std::ofstream(Dir.Path / Name) << "x";
  ArtifactStore Store(Dir.str());
  std::string Error;
  const std::vector<std::string> Paths = Store.list(&Error);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Paths.size(), 3u);
  EXPECT_TRUE(std::is_sorted(Paths.begin(), Paths.end()));
  EXPECT_EQ(fs::path(Paths.front()).filename(), "alpha.ccpa");
}

TEST(ArtifactStoreListTest, UnexaminableEntriesAreSurfacedNotSkipped) {
  TempDir Dir("list-broken");
  std::ofstream(Dir.Path / "good.ccpa") << "x";
  std::error_code Ec;
  fs::create_symlink(Dir.Path / "no-such-target.ccpa",
                     Dir.Path / "broken.ccpa", Ec);
  if (Ec)
    GTEST_SKIP() << "filesystem does not support symlinks: " << Ec.message();

  ArtifactStore Store(Dir.str());
  std::string Error;
  const std::vector<ArtifactListEntry> Entries = Store.listEntries(&Error);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Entries.size(), 2u);
  // Sorted: broken before good; the broken one carries a diagnostic.
  EXPECT_FALSE(Entries[0].ok());
  EXPECT_FALSE(Entries[0].Error.empty());
  EXPECT_TRUE(Entries[1].ok());

  // list() exposes only what it can vouch for; validate() reports the
  // rest as issues instead of pretending the store is clean.
  EXPECT_EQ(Store.list(&Error).size(), 1u);
  const ArtifactValidationReport Report = Store.validate(&Error);
  EXPECT_EQ(Report.Checked, 2u);
  ASSERT_GE(Report.Issues.size(), 1u);
  EXPECT_EQ(fs::path(Report.Issues[0].Path).filename(), "broken.ccpa");
}

//===----------------------------------------------------------------------===//
// Age-gated stale-temp reaping
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTempReapTest, FreshTempsSurviveTheDefaultGate) {
  TempDir Dir("temp-age");
  const fs::path Fresh = Dir.Path / "inflight.ccpa.tmp";
  std::ofstream(Fresh) << "partial";
  ArtifactStore Store(Dir.str());

  // A just-created temp looks exactly like a live writer's in-flight
  // save; the default gate must leave it alone.
  EXPECT_TRUE(Store.cleanStaleTemporaries().empty());
  EXPECT_TRUE(fs::exists(Fresh));

  // An unconditional sweep (offline cleanup) still removes it.
  const std::vector<std::string> Removed =
      Store.cleanStaleTemporaries(nullptr, 0);
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_FALSE(fs::exists(Fresh));
}

TEST(ArtifactStoreTempReapTest, AgedTempsAreReapedByTheDefaultGate) {
  TempDir Dir("temp-old");
  const fs::path Old = Dir.Path / "orphan.ccpa.tmp";
  std::ofstream(Old) << "partial";
  std::error_code Ec;
  fs::last_write_time(Old,
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(
                              2 * ArtifactStore::DefaultTempReapAgeSeconds),
                      Ec);
  ASSERT_FALSE(Ec) << Ec.message();

  ArtifactStore Store(Dir.str());
  const std::vector<std::string> Removed = Store.cleanStaleTemporaries();
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_FALSE(fs::exists(Old));
}

//===----------------------------------------------------------------------===//
// RegressionMonitor
//===----------------------------------------------------------------------===//

TEST(RegressionMonitorTest, FirstSightingSeedsBaselineSilently) {
  RegressionMonitor Monitor;
  EXPECT_TRUE(Monitor.observe(makeArtifact(0), "ci").empty());
  const RegressionMonitorStats Stats = Monitor.stats();
  EXPECT_EQ(Stats.Baselines, 1u);
  EXPECT_EQ(Stats.AlertsRaised, 0u);
}

TEST(RegressionMonitorTest, LoopFlippingToConflictRaisesAlert) {
  RegressionMonitor Monitor;
  ASSERT_TRUE(Monitor.observe(makeArtifact(0, 1000, false), "ci").empty());
  const std::vector<RegressionAlert> Alerts =
      Monitor.observe(makeArtifact(1, 1000, true), "ci");
  ASSERT_EQ(Alerts.size(), 1u);
  EXPECT_EQ(Alerts[0].Kind, AlertKind::NewConflictLoop);
  EXPECT_EQ(Alerts[0].Location, "synthetic.cpp:42");
  EXPECT_EQ(Alerts[0].Client, "ci");
  // The alerting ingest must NOT become the baseline: a retry alerts
  // again instead of regressing the fleet's reference state.
  EXPECT_EQ(Monitor.stats().BaselineUpdates, 1u);
  EXPECT_FALSE(Monitor.observe(makeArtifact(2, 1000, true), "ci").empty());
}

TEST(RegressionMonitorTest, VariantsShareOneBaselineLineage) {
  // The whole point of striking the variant from the baseline key: the
  // optimized build seeds the lineage, and the original (conflicting)
  // build diffs against it — a before/after pair across code versions.
  RegressionMonitor Monitor;
  ASSERT_TRUE(Monitor
                  .observe(makeArtifact(0, 1000, false,
                                        WorkloadVariant::Optimized),
                           "ci")
                  .empty());
  const std::vector<RegressionAlert> Alerts = Monitor.observe(
      makeArtifact(0, 1000, true, WorkloadVariant::Original), "ci");
  ASSERT_EQ(Alerts.size(), 1u);
  EXPECT_EQ(Alerts[0].Kind, AlertKind::NewConflictLoop);
  EXPECT_EQ(Monitor.stats().Baselines, 1u);
}

TEST(RegressionMonitorTest, GlobalMissRatioGrowthRaisesAlert) {
  RegressionMonitor Monitor;
  ASSERT_TRUE(
      Monitor.observe(makeArtifact(0, 1000, false, WorkloadVariant::Original,
                                   0.20),
                      "ci")
          .empty());
  const std::vector<RegressionAlert> Alerts = Monitor.observe(
      makeArtifact(1, 1000, false, WorkloadVariant::Original, 0.30), "ci");
  ASSERT_EQ(Alerts.size(), 1u);
  EXPECT_EQ(Alerts[0].Kind, AlertKind::MissRatioDegraded);
  EXPECT_TRUE(Alerts[0].Location.empty()) << "profile-global alert";
  EXPECT_DOUBLE_EQ(Alerts[0].Before, 0.20);
  EXPECT_DOUBLE_EQ(Alerts[0].After, 0.30);
}

TEST(RegressionMonitorTest, CleanIngestsAreAbsorbedIntoTheBaseline) {
  RegressionMonitor Monitor;
  ASSERT_TRUE(Monitor.observe(makeArtifact(0), "ci").empty());
  ASSERT_TRUE(Monitor.observe(makeArtifact(1), "ci").empty());
  ProfileArtifact Baseline;
  ASSERT_TRUE(Monitor.baselineFor(
      baselineKeyOf(makeArtifact(0).Provenance.Job), Baseline));
  EXPECT_EQ(Baseline.Provenance.MergedRuns, 2u);
}

TEST(RegressionMonitorTest, AlertJsonCarriesTheMachineStableKind) {
  RegressionAlert Alert;
  Alert.Kind = AlertKind::NewConflictLoop;
  Alert.BaselineKey = "K";
  Alert.Location = "a.cpp:1";
  const std::string Json = renderAlertJson(Alert);
  EXPECT_NE(Json.find("\"kind\":\"new_conflict_loop\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"loop\":\"a.cpp:1\""), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Ccprofd end to end
//===----------------------------------------------------------------------===//

TEST(CcprofdTest, RunOnceDrainsDropDirectoryAndRaisesSeededAlert) {
  TempDir Root("daemon-once");
  const fs::path Drop = Root.Path / "drop";
  fs::create_directories(Drop);
  // Filenames force ingest order: the clean optimized run seeds the
  // baseline, then the conflicting original run regresses against it.
  {
    std::ofstream A(Drop / "a-baseline.ccpa", std::ios::binary);
    A << serialize(makeArtifact(0, 1000, false, WorkloadVariant::Optimized));
    std::ofstream B(Drop / "b-regression.ccpa", std::ios::binary);
    B << serialize(makeArtifact(0, 1000, true, WorkloadVariant::Original));
  }

  ServiceConfig Config;
  Config.StoreDir = (Root.Path / "store").string();
  Config.WatchDir = Drop.string();
  Config.Once = true;
  Ccprofd Daemon(Config);
  std::string Error;
  ASSERT_TRUE(Daemon.runOnce(&Error)) << Error;

  EXPECT_EQ(Daemon.processed(), 2u);
  EXPECT_EQ(Daemon.store().stats().Objects, 2u);
  EXPECT_TRUE(fs::is_empty(Drop)) << "ingested drops must be removed";
  const std::vector<RegressionAlert> Alerts = Daemon.recentAlerts();
  ASSERT_FALSE(Alerts.empty());
  EXPECT_EQ(Alerts[0].Kind, AlertKind::NewConflictLoop);
  EXPECT_NE(Daemon.statsJson().find("\"alerts\":1"), std::string::npos);
}

TEST(CcprofdTest, RedroppedContentDedupsAcrossDaemonRestarts) {
  TempDir Root("daemon-redrop");
  const fs::path Drop = Root.Path / "drop";
  fs::create_directories(Drop);
  const std::string Capsule = serialize(makeArtifact(0));

  ServiceConfig Config;
  Config.StoreDir = (Root.Path / "store").string();
  Config.WatchDir = Drop.string();
  Config.Once = true;
  for (int Round = 0; Round < 2; ++Round) {
    std::ofstream(Drop / "run.ccpa", std::ios::binary) << Capsule;
    Ccprofd Daemon(Config);
    std::string Error;
    ASSERT_TRUE(Daemon.runOnce(&Error)) << Error;
    const ServiceStoreStats Stats = Daemon.store().stats();
    EXPECT_EQ(Stats.Objects, 1u) << "round " << Round;
    EXPECT_EQ(Stats.DedupHits, Round == 0 ? 0u : 1u) << "round " << Round;
  }
}

TEST(CcprofdTest, TraceUploadsAreProfiledOnArrival) {
  std::unique_ptr<Workload> W = makeWorkloadByName("Symmetrization");
  ASSERT_NE(W, nullptr);
  Trace Recorded;
  W->run(WorkloadVariant::Original, &Recorded);
  std::stringstream TraceBytes;
  ASSERT_TRUE(Recorded.writeTo(TraceBytes));

  TempDir Root("daemon-trace");
  ServiceConfig Config;
  Config.StoreDir = (Root.Path / "store").string();
  Config.Once = true;
  Ccprofd Daemon(Config);
  IngestRequest Request;
  Request.Kind = IngestKind::Trace;
  Request.Name = "Symmetrization";
  Request.Client = "trace-test";
  Request.Bytes = TraceBytes.str();
  ASSERT_TRUE(Daemon.submit(std::move(Request)));
  std::string Error;
  ASSERT_TRUE(Daemon.runOnce(&Error)) << Error;

  EXPECT_EQ(Daemon.store().stats().Objects, 1u);
  const std::vector<std::string> Keys = Daemon.store().aggregateKeys();
  ASSERT_EQ(Keys.size(), 1u);
  EXPECT_EQ(Keys[0].rfind("Symmetrization", 0), 0u) << Keys[0];
  EXPECT_NE(Daemon.statsJson().find("\"trace-test\""), std::string::npos);
}

TEST(CcprofdTest, SocketRoundTripSubmitStatsAndPing) {
  TempDir Root("daemon-sock");
  const std::string Socket =
      "/tmp/ccprof-test-" + std::to_string(::getpid()) + ".sock";

  ServiceConfig Config;
  Config.StoreDir = (Root.Path / "store").string();
  Config.SocketPath = Socket;
  Ccprofd Daemon(Config);
  std::string Error;
  ASSERT_TRUE(Daemon.start(&Error)) << Error;

  EXPECT_TRUE(servicePing(Socket).Ok);

  const ServiceReply Submitted = serviceSubmitBytes(
      Socket, "sock-test", "ccpa", "synthetic", serialize(makeArtifact(0)));
  ASSERT_TRUE(Submitted.Error.empty()) << Submitted.Error;
  EXPECT_EQ(Submitted.Line, "OK queued");

  // Garbage bytes are accepted into the queue (the protocol frames
  // them fine) and surface as an ingest error, not a crash.
  const ServiceReply Garbage =
      serviceSubmitBytes(Socket, "sock-test", "ccpa", "junk", "not a capsule");
  EXPECT_EQ(Garbage.Line, "OK queued");

  for (int Spin = 0; Spin < 200 && Daemon.processed() < 2; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Daemon.processed(), 2u);

  const ServiceReply Stats = serviceQueryStats(Socket);
  ASSERT_TRUE(Stats.Error.empty()) << Stats.Error;
  EXPECT_NE(Stats.Line.find("\"processed\":2"), std::string::npos)
      << Stats.Line;
  EXPECT_NE(Stats.Line.find("\"errors\":1"), std::string::npos) << Stats.Line;
  EXPECT_NE(Stats.Line.find("\"sock-test\""), std::string::npos);

  Daemon.stop();
  EXPECT_FALSE(fs::exists(Socket)) << "socket file must be removed on stop";
  EXPECT_EQ(Daemon.store().stats().Objects, 1u);
}

TEST(CcprofdTest, OverlongHeaderLineIsRefusedAndClosed) {
  TempDir Root("daemon-longline");
  const std::string Socket =
      "/tmp/ccprof-test-longline-" + std::to_string(::getpid()) + ".sock";

  ServiceConfig Config;
  Config.StoreDir = (Root.Path / "store").string();
  Config.SocketPath = Socket;
  Ccprofd Daemon(Config);
  std::string Error;
  ASSERT_TRUE(Daemon.start(&Error)) << Error;

  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0);
  timeval Timeout{};
  Timeout.tv_sec = 10;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof Timeout);

  // 1 MiB without a newline. The daemon closes the connection long
  // before the last byte, so the send fails partway (EPIPE, never
  // SIGPIPE); that failure is expected and ignored.
  const std::string Flood(1u << 20, 'A');
  size_t Sent = 0;
  while (Sent < Flood.size()) {
    const ssize_t N = ::send(Fd, Flood.data() + Sent, Flood.size() - Sent,
                             MSG_NOSIGNAL);
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }

  std::string Reply;
  char C = 0;
  while (::recv(Fd, &C, 1, 0) == 1 && C != '\n')
    Reply.push_back(C);
  EXPECT_EQ(Reply, "ERR header too long");
  // The connection is closed after the refusal.
  EXPECT_LE(::recv(Fd, &C, 1, 0), 0);
  ::close(Fd);

  // The daemon itself is unharmed.
  EXPECT_TRUE(servicePing(Socket).Ok);
  Daemon.stop();
}
