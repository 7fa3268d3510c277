/**
 * @file
 * The capability-annotated synchronization layer (util/sync.hh): the
 * ranked lock-hierarchy checker's PANIC paths (via the death-test
 * hook), CondVar wait semantics, and a multi-thread stress
 * of the wrappers that the tier-1 TSan stage re-runs under
 * ThreadSanitizer.
 *
 * The hierarchy tests skip themselves when the checker is compiled
 * out (Release builds): there the wrappers are plain std primitives
 * by design, and the violation would deadlock instead of panicking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.hh"
#include "util/sync.hh"

using namespace replay;

namespace {

struct DeathInfo
{
    std::string kind;
    std::string message;
};

DeathInfo lastDeath;

[[noreturn]] void
throwingHandler(const char *kind, const char *, int,
                const char *message)
{
    lastDeath = {kind, message};
    throw std::runtime_error(message);
}

/** RAII death-hook installer so a failing EXPECT cannot leak it. */
struct DeathScope
{
    DeathHandler prev;
    DeathScope() : prev(setDeathHandler(throwingHandler)) {}
    ~DeathScope() { setDeathHandler(prev); }
};

} // anonymous namespace

// ---------------------------------------------------------------------
// Hierarchy checker: ordering violations PANIC with both sites
// ---------------------------------------------------------------------

TEST(SyncHierarchy, InOrderAcquisitionIsQuiet)
{
    sync::Mutex lo{"lo", 10};
    sync::Mutex hi{"hi", 20};
    DeathScope death;
    {
        sync::LockGuard a(lo);
        sync::LockGuard b(hi);
        EXPECT_EQ(sync::heldCapabilities(),
                  sync::hierarchyChecked() ? 2u : 0u);
    }
    EXPECT_EQ(sync::heldCapabilities(), 0u);
}

TEST(SyncHierarchy, OutOfOrderAcquisitionPanicsWithBothSites)
{
    if (!sync::hierarchyChecked())
        GTEST_SKIP() << "hierarchy checker compiled out (Release)";
    sync::Mutex lo{"pool_rank", sync::rank::POOL};
    sync::Mutex hi{"registry_rank", sync::rank::TRACE_REGISTRY};
    DeathScope death;
    hi.lock();
    // The deliberately inverted acquisition: registry-ranked lock
    // held, pool-ranked requested — the deadlock shape the checker
    // exists to catch.
    EXPECT_THROW(lo.lock(), std::runtime_error);
    hi.unlock();
    EXPECT_EQ(lastDeath.kind, "panic");
    // Both capabilities and both acquisition sites are in the report.
    EXPECT_NE(lastDeath.message.find("pool_rank"), std::string::npos);
    EXPECT_NE(lastDeath.message.find("registry_rank"),
              std::string::npos);
    EXPECT_NE(lastDeath.message.find("test_sync.cc"), std::string::npos);
    EXPECT_EQ(sync::heldCapabilities(), 0u);
}

TEST(SyncHierarchy, SameRankNestingPanics)
{
    if (!sync::hierarchyChecked())
        GTEST_SKIP() << "hierarchy checker compiled out (Release)";
    sync::Mutex a{"leaf_a"};    // both default to rank::LEAF
    sync::Mutex b{"leaf_b"};
    DeathScope death;
    a.lock();
    EXPECT_THROW(b.lock(), std::runtime_error);
    a.unlock();
    EXPECT_NE(lastDeath.message.find("leaf_a"), std::string::npos);
    EXPECT_NE(lastDeath.message.find("leaf_b"), std::string::npos);
}

TEST(SyncHierarchy, OutOfOrderReleaseIsLegal)
{
    sync::Mutex a{"a", 10};
    sync::Mutex b{"b", 20};
    a.lock();
    b.lock();
    a.unlock();     // release order need not mirror acquisition
    b.unlock();
    EXPECT_EQ(sync::heldCapabilities(), 0u);
}

TEST(SyncHierarchy, ReleasingAnUnheldCapabilityPanics)
{
    if (!sync::hierarchyChecked())
        GTEST_SKIP() << "hierarchy checker compiled out (Release)";
    sync::Mutex mu{"never_held", 10};
    DeathScope death;
    EXPECT_THROW(mu.unlock(), std::runtime_error);
    EXPECT_NE(lastDeath.message.find("never_held"), std::string::npos);
}

TEST(SyncHierarchy, ReportRankIsReachableFromUnderAnyLock)
{
    // warn() takes the report mutex (rank REPORT, the maximum): it
    // must be legal from under every other capability, or a panic
    // under lock would recurse into its own violation.
    sync::Mutex mu{"holder", sync::rank::LEAF};
    sync::LockGuard hold(mu);
    warn("sync test: reporting from under a LEAF lock is in order");
}

// ---------------------------------------------------------------------
// CondVar semantics
// ---------------------------------------------------------------------

TEST(SyncCondVar, ManualWaitLoopHandlesSpuriousWakeups)
{
    sync::Mutex mu{"cv_mutex"};
    sync::CondVar cv;
    int stage = 0;
    std::atomic<bool> sawFinal{false};

    std::thread consumer([&] {
        sync::UniqueLock lock(mu);
        while (stage < 2)
            cv.wait(lock);
        sawFinal.store(true, std::memory_order_release);
    });
    // Two notifications; only the second satisfies the predicate, so
    // the manual loop must re-check and keep waiting in between.
    for (int i = 0; i < 2; ++i) {
        {
            sync::LockGuard lock(mu);
            ++stage;
        }
        cv.notify_all();
    }
    consumer.join();
    EXPECT_TRUE(sawFinal.load());
}

TEST(SyncCondVar, WaitOnUnlockedLockPanics)
{
    sync::Mutex mu{"cv_mutex"};
    sync::CondVar cv;
    DeathScope death;
    sync::UniqueLock lock(mu);
    lock.unlock();
    EXPECT_THROW(cv.wait(lock), std::runtime_error);
}

TEST(SyncUniqueLock, ManualLockUnlockTracksOwnership)
{
    sync::Mutex mu{"manual"};
    sync::UniqueLock lock(mu);
    EXPECT_TRUE(lock.ownsLock());
    lock.unlock();
    EXPECT_FALSE(lock.ownsLock());
    lock.lock();
    EXPECT_TRUE(lock.ownsLock());
}

// ---------------------------------------------------------------------
// Stress (re-run under TSan by the tier-1 sync stage)
// ---------------------------------------------------------------------

TEST(SyncStress, MutexCondVarHammer)
{
    constexpr int THREADS = 8;
    constexpr int ITERS = 2000;

    sync::Mutex mu{"stress_mutex", 10};
    sync::CondVar cv;
    long counter = 0;           // guarded by mu

    std::vector<std::thread> threads;
    threads.reserve(THREADS);
    for (int t = 0; t < THREADS; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < ITERS; ++i) {
                {
                    sync::LockGuard lock(mu);
                    ++counter;
                }
                // Bare lock/unlock, not just the guard.
                mu.lock();
                ++counter;
                mu.unlock();
            }
            cv.notify_all();
        });
    }
    for (auto &th : threads)
        th.join();

    sync::LockGuard lock(mu);
    EXPECT_EQ(counter, long(THREADS) * ITERS * 2);
}
