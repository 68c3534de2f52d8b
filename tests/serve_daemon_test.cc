/**
 * @file
 * The raceserved binary's signal handling, end to end: a SIGTERM sent
 * the moment the daemon first answers Health Ready must drain it and
 * exit 0.  Two bugs this pins: handlers installed only after the
 * listener was up (an early SIGTERM killed the daemon by the default
 * action), and a flag check followed by pause() (a SIGTERM landing
 * between the two went unnoticed until the next signal).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "rl/serve/client.h"
#include "rl/serve/socket.h"

namespace {

using namespace racelogic;
using Clock = std::chrono::steady_clock;

constexpr std::chrono::seconds kTimeout(10);

/** fork + exec the daemon on a Unix socket; the child's pid. */
pid_t
spawnDaemon(const std::string &socket)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl(RACESERVED_BINARY, RACESERVED_BINARY, "--unix",
                socket.c_str(), "--workers", "2", "--quiet",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Probe Health until the daemon first reports Ready. */
bool
waitReady(const std::string &socket)
{
    const Clock::time_point deadline = Clock::now() + kTimeout;
    while (Clock::now() < deadline) {
        serve::ServeClient probe = serve::ServeClient::overUnix(socket, 100);
        serve::Response health;
        if (probe.ok() && probe.submitHealth(0) &&
            probe.receive(health, serve::deadlineAfterMs(1000)) ==
                serve::IoStatus::Ok &&
            health.health &&
            health.health->state == serve::HealthState::Ready)
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
}

/** Reap `pid` within the timeout; false (child still running) if not. */
bool
reapWithinTimeout(pid_t pid, int &status)
{
    const Clock::time_point deadline = Clock::now() + kTimeout;
    while (Clock::now() < deadline) {
        const pid_t done = ::waitpid(pid, &status, WNOHANG);
        if (done == pid)
            return true;
        if (done < 0 && errno != EINTR)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(ServeDaemon, SigtermRightAfterFirstReadyDrainsAndExitsZero)
{
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        const std::string socket =
            testing::TempDir() + "raceserved-sigterm-" +
            std::to_string(::getpid()) + "-" + std::to_string(round) +
            ".sock";
        const pid_t pid = spawnDaemon(socket);
        ASSERT_GT(pid, 0);

        const bool ready = waitReady(socket);
        if (ready)
            ASSERT_EQ(::kill(pid, SIGTERM), 0);
        int status = 0;
        const bool exited = ready && reapWithinTimeout(pid, status);
        if (!exited) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
        }
        ::unlink(socket.c_str());
        ASSERT_TRUE(ready) << "the daemon never answered Health Ready";
        ASSERT_TRUE(exited) << "no exit within 10 s of SIGTERM";
        ASSERT_TRUE(WIFEXITED(status))
            << "killed by signal " << WTERMSIG(status);
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
}

} // namespace
