/**
 * @file
 * Linked into every test executable: gives each test process its own
 * scratch directory before any test runs.
 *
 * gtest_discover_tests runs every test as its own process, and the
 * tests name their files under ::testing::TempDir() with fixed names.
 * Under `ctest -j` two processes would otherwise share (and truncate)
 * one file.  ::testing::TempDir() reads TEST_TMPDIR, so pointing it at
 * a fresh mkdtemp directory isolates every process with no call-site
 * change.
 */

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace {

constexpr const char PREFIX[] = "replay-test-";

std::string ownedDir;
pid_t ownerPid = 0;

void
removeOwnedDir()
{
    // A forked death-test child that exits normally runs this handler
    // too; only the creating process may remove the directory.
    if (getpid() != ownerPid)
        return;
    std::error_code ec;
    std::filesystem::remove_all(ownedDir, ec);
}

struct UniqueTmpDir
{
    UniqueTmpDir()
    {
        // Re-executed death-test children inherit the parent's
        // environment: reuse its directory instead of leaking a new
        // (never removed) one per child.
        const char *cur = std::getenv("TEST_TMPDIR");
        if (cur && std::string(cur).find(PREFIX) != std::string::npos)
            return;
        const char *base = std::getenv("TMPDIR");
        std::string templ =
            std::string(base && *base ? base : "/tmp") + "/" + PREFIX +
            "XXXXXX";
        if (!mkdtemp(templ.data()))
            return;
        ownedDir = templ;
        ownerPid = getpid();
        // gtest appends file names directly: keep the trailing slash.
        setenv("TEST_TMPDIR", (ownedDir + "/").c_str(), 1);
        std::atexit(removeOwnedDir);
    }
} const installer;

} // namespace
