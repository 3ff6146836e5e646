/**
 * @file
 * Fault-tolerance tests of the sharded sweep fleet: a worker
 * SIGKILLed mid-sweep must cost wall clock, never rows — the merged
 * results stay byte-identical to a single-process run whether the
 * orphaned slice lands on a respawned worker or a survivor, and the
 * same holds when workers are remote TCP processes instead of forked
 * locals.  Hostile protocol counts (a ShardAssign's fleet width, point
 * count and residues, a Hello's slot) are errors, never crashes.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/apps.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/shard.h"
#include "service/wire.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

/** A grid big enough that killing a worker mid-slice leaves points
 *  to reassign, small enough for a unit test: 2 apps x 3 distances
 *  x 2 objectives = 12 points. */
engine::SweepGrid
faultGrid()
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::GSE, {8, 2}, ""}};
    grid.backends = {engine::backends::surgery_sim};
    grid.distances = {3, 5, 7};
    grid.layout_objectives = {0, 2};
    grid.base.seed = 21;
    return grid;
}

std::string
singleProcessRows(const engine::SweepGrid &grid)
{
    engine::SweepOptions opts;
    opts.num_threads = 1;
    return engine::canonicalSweepRows(
        engine::SweepDriver().run(grid, opts));
}

TEST(ShardFault, KilledWorkerIsRespawnedAndRowsStayIdentical)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 1;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    // SIGKILL the only worker right after its second row lands: no
    // survivor exists, so recovery must fork a replacement.
    shard.fault_kill_worker = 0;
    shard.fault_kill_after_rows = 2;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_EQ(stats.worker_restarts, 1u);
    EXPECT_GE(stats.points_reassigned, 1u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, TwoWorkerFleetSurvivesAKillEitherWay)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    shard.fault_kill_worker = 1;
    shard.fault_kill_after_rows = 2;

    // Whether the orphaned slice lands on a respawn or on the
    // survivor depends on who is idle at death time; the rows must
    // be byte-identical either way.
    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_LE(stats.worker_restarts, 1u);
    EXPECT_GE(stats.points_reassigned, 1u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, RestartsExhaustedSurvivorAbsorbsTheSlice)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    shard.fault_kill_worker = 1;
    shard.fault_kill_after_rows = 2;
    // No respawn budget: the orphaned slice must wait for the
    // surviving worker to finish its own slice and pick it up.
    shard.max_worker_restarts = 0;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.worker_restarts, 0u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, LocalTcpTransportMatchesSocketpairRows)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.local_tcp = true;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
}

/** Run @p grid on one "remote" worker: a process that shares no
 *  grid memory with the parent (forked before any assignment, grid
 *  decoded off the wire by serveSweepWorker), so every grid field
 *  crosses the codec.  The merged rows must match a single-process
 *  run. */
void
expectRemoteTcpRowsMatch(const engine::SweepGrid &grid)
{
    std::string expected = singleProcessRows(grid);

    // The listener is created pre-fork so the port is known to both
    // sides.
    wire::TcpListener listener("127.0.0.1:0");
    std::string spec =
        "127.0.0.1:" + std::to_string(listener.port());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int fd = listener.accept();
        if (fd < 0)
            ::_exit(2);
        service::SweepWorkerEnv env; // env.grid == nullptr.
        env.base.num_threads = 1;
        bool orderly = service::serveSweepWorker(fd, env);
        ::close(fd);
        ::_exit(orderly ? 0 : 1);
    }

    service::ShardOptions shard;
    shard.workers = 1;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.remote_workers = {spec};

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "remote worker exit status " << status;
}

TEST(ShardFault, RemoteTcpWorkerReceivesGridOverTheWire)
{
    setQuiet(true);
    expectRemoteTcpRowsMatch(faultGrid());
}

TEST(ShardFault, RemoteTcpWorkerRunsTheFullWidthSeed)
{
    // 2^63 + 1 is not a double: a codec that carried the seed
    // through one would run the remote slice on 2^63 instead.
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    grid.base.seed = (1ull << 63) + 1;
    grid.base.defect_seed = (1ull << 63) + 3;
    grid.defects = {0, 0.05};
    expectRemoteTcpRowsMatch(grid);
}

TEST(ShardFault, DeadRemoteWorkerIsRedialedAndRejoins)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    // A remote worker that drops its first connection cold (the
    // parent sees EOF and orphans the slice), then accepts again and
    // serves properly — what a crashed-and-restarted process on the
    // same address looks like.  The listener survives pre-fork so
    // both connections land on the same spec.
    wire::TcpListener listener("127.0.0.1:0");
    std::string spec =
        "127.0.0.1:" + std::to_string(listener.port());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Watchdog: if the parent dies before the second dial, the
        // child must not sit in accept() holding the test's pipes.
        ::alarm(120);
        int first = listener.accept();
        if (first < 0)
            ::_exit(2);
        ::close(first);
        int fd = listener.accept();
        if (fd < 0)
            ::_exit(2);
        service::SweepWorkerEnv env; // env.grid == nullptr.
        env.base.num_threads = 1;
        bool orderly = service::serveSweepWorker(fd, env);
        ::close(fd);
        ::_exit(orderly ? 0 : 1);
    }

    service::FleetStats stats;
    service::ShardOptions shard;
    // No locals and no respawn budget: the orphaned slice can only
    // finish if the redial probe puts the remote back in rotation.
    shard.workers = 0;
    shard.max_worker_restarts = 0;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.remote_workers = {spec};
    shard.remote_redial_interval_sec = 1;
    shard.stats = &stats;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_EQ(stats.remote_redials, 1u);
    EXPECT_EQ(stats.worker_restarts, 0u);
    EXPECT_GE(stats.points_reassigned, 1u);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "remote worker exit status " << status;
}

/**
 * Hand one ShardAssign carrying @p payload to a worker that holds
 * faultGrid(); @return the frame that ends its answer (Done, Error,
 * or the read failure's frame type).  A Done is acknowledged with a
 * Shutdown so the worker exits cleanly.
 */
wire::FrameType
answerTo(const std::string &payload)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    engine::SweepGrid grid = faultGrid();
    std::thread worker([&] {
        service::SweepWorkerEnv env;
        env.grid = &grid;
        env.base.num_threads = 1;
        service::serveSweepWorker(fds[1], env);
        ::close(fds[1]);
    });
    wire::Frame frame;
    EXPECT_TRUE(wire::readFrame(fds[0], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Hello);
    EXPECT_TRUE(wire::writeFrame(fds[0], wire::FrameType::ShardAssign,
                                 payload)
                    .ok());
    do {
        if (!wire::readFrame(fds[0], frame).ok())
            break;
    } while (frame.type == wire::FrameType::Row);
    if (frame.type == wire::FrameType::Done)
        wire::writeFrame(fds[0], wire::FrameType::Shutdown, "");
    // Closing our end first unblocks a worker still waiting to read.
    ::close(fds[0]);
    worker.join();
    return frame.type;
}

std::string
assignment(const std::string &workers, const std::string &points,
           const std::string &residue)
{
    return "{\"worker\":0,\"workers\":" + workers
         + ",\"points\":" + points + ",\"residues\":[" + residue
         + "],\"done\":\"\"}";
}

TEST(ShardFault, HostileShardAssignCountsAreErrorsNotCrashes)
{
    setQuiet(true);
    // Controls: a well-formed slice, and a fleet far wider than the
    // grid, which must not size anything by its width.
    EXPECT_EQ(answerTo(assignment("2", "12", "1")),
              wire::FrameType::Done);
    EXPECT_EQ(answerTo(assignment("1000000000000", "12",
                                  "999999999999")),
              wire::FrameType::Done);

    const char *hostile[] = {"-1", "1.5", "1e300", "-0.5",
                             "18446744073709551616", "\"2\""};
    for (const char *v : hostile) {
        EXPECT_EQ(answerTo(assignment(v, "12", "0")),
                  wire::FrameType::Error)
            << "workers " << v;
        EXPECT_EQ(answerTo(assignment("2", v, "0")),
                  wire::FrameType::Error)
            << "points " << v;
        EXPECT_EQ(answerTo(assignment("2", "12", v)),
                  wire::FrameType::Error)
            << "residue " << v;
    }
    // Out of range: an empty fleet, more points than the grid has
    // (1e18 used to size a 1e18-byte bitmap), a residue of the
    // fleet's own width.
    EXPECT_EQ(answerTo(assignment("0", "12", "0")),
              wire::FrameType::Error);
    EXPECT_EQ(answerTo(assignment("2", "13", "0")),
              wire::FrameType::Error);
    EXPECT_EQ(answerTo(assignment("2", "1e18", "0")),
              wire::FrameType::Error);
    EXPECT_EQ(answerTo(assignment("2", "12", "2")),
              wire::FrameType::Error);
}

TEST(ShardFault, HostileHelloSlotsAreErrorsNotCrashes)
{
    setQuiet(true);
    EXPECT_EQ(service::helloSlot(R"({"slot":1})", 2), 1u);
    for (const char *v : {"-1", "1.5", "1e300", "2", "\"0\"", "null"})
        EXPECT_THROW(service::helloSlot(
                         std::string(R"({"slot":)") + v + "}", 2),
                     FatalError)
            << v;
    EXPECT_THROW(service::helloSlot("{}", 2), FatalError);
    EXPECT_THROW(service::helloSlot(R"({"slot":0})", 0), FatalError);
}

} // namespace
} // namespace qsurf
