#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "txn/recovery.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace disagg {
namespace {

// Property suite: run a random transactional history through the WAL, crash
// at an arbitrary log prefix (losing unflushed records), recover with ARIES,
// and compare against a model that applies exactly the transactions whose
// COMMIT record survived the crash. Parameterized over seeds — each seed is
// a different random history.

struct HistoryResult {
  std::vector<LogRecord> full_log;
  // Model DB state (slot payloads per page) as of each committed txn count.
  std::map<TxnId, std::map<std::pair<PageId, uint16_t>, std::string>>
      state_after_commit;
};

class CrashRecoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryPropertyTest, RecoverAtEveryCrashPointMatchesModel) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  LocalDiskSink sink;
  WalManager wal(&sink);
  LockManager locks;
  TxnManager tm(&wal, &locks);
  NetContext ctx;

  // Model: page/slot -> payload, updated only at commit; pending per txn.
  // Updates target only LIVE slots (committed, or inserted by the same
  // transaction) — exactly what 2PL would allow a real engine to see.
  std::map<std::pair<PageId, uint16_t>, std::string> committed_state;
  std::map<PageId, uint16_t> next_slot;
  std::map<PageId, std::vector<uint16_t>> committed_live;

  constexpr int kTxns = 20;
  for (int t = 0; t < kTxns; t++) {
    const TxnId txn = tm.Begin();
    std::map<std::pair<PageId, uint16_t>, std::string> pending;
    std::map<PageId, std::vector<uint16_t>> pending_inserts;
    const int ops = 1 + static_cast<int>(rng.Uniform(4));
    for (int o = 0; o < ops; o++) {
      const PageId page = rng.Uniform(3);
      std::vector<uint16_t> targets = committed_live[page];
      for (uint16_t s : pending_inserts[page]) targets.push_back(s);
      if (rng.Bernoulli(0.6) || targets.empty()) {
        const uint16_t slot = next_slot[page]++;
        const std::string payload =
            "t" + std::to_string(t) + "o" + std::to_string(o);
        tm.LogInsert(txn, page, slot, payload);
        pending[{page, slot}] = payload;
        pending_inserts[page].push_back(slot);
      } else {
        const uint16_t slot = targets[rng.Uniform(targets.size())];
        auto key = std::make_pair(page, slot);
        auto pit = pending.find(key);
        const std::string before =
            pit != pending.end() ? pit->second : committed_state.at(key);
        // Keep payload length constant so updates stay in place.
        std::string after = before;
        after[0] = 'u';
        tm.LogUpdate(txn, page, slot, before, after);
        pending[key] = after;
      }
    }
    if (rng.Bernoulli(0.8)) {
      ASSERT_TRUE(tm.Commit(&ctx, txn).ok());
      for (auto& [loc, payload] : pending) committed_state[loc] = payload;
      for (auto& [page, slots] : pending_inserts) {
        for (uint16_t s : slots) committed_live[page].push_back(s);
      }
    } else {
      (void)tm.Abort(nullptr, txn);
      ASSERT_TRUE(wal.Flush(&ctx).ok());
    }
  }
  ASSERT_TRUE(wal.Flush(&ctx).ok());

  // Crash at every possible log prefix length.
  auto full_log = sink.ReadAll(&ctx);
  ASSERT_TRUE(full_log.ok());
  for (size_t crash_at = 0; crash_at <= full_log->size(); crash_at += 7) {
    std::vector<LogRecord> prefix(full_log->begin(),
                                  full_log->begin() + crash_at);
    auto out = AriesRecovery::Recover(prefix, {});
    ASSERT_TRUE(out.ok()) << "crash_at=" << crash_at;

    // Model: replay the prefix's COMMITTED transactions only.
    std::set<TxnId> winners;
    for (const LogRecord& r : prefix) {
      if (r.type == LogType::kTxnCommit) winners.insert(r.txn_id);
    }
    std::map<std::pair<PageId, uint16_t>, std::string> expected;
    for (const LogRecord& r : prefix) {
      if (!winners.count(r.txn_id)) continue;
      if (r.type == LogType::kInsert || r.type == LogType::kUpdate) {
        expected[{r.page_id, r.slot}] = r.payload;
      }
    }
    for (const auto& [loc, payload] : expected) {
      auto pit = out->pages.find(loc.first);
      ASSERT_NE(pit, out->pages.end())
          << "crash_at=" << crash_at << " page=" << loc.first;
      auto got = pit->second.Get(loc.second);
      ASSERT_TRUE(got.ok())
          << "crash_at=" << crash_at << " slot=" << loc.second;
      EXPECT_EQ(got->ToString(), payload) << "crash_at=" << crash_at;
    }
    // And nothing from losers survives: every recovered slot belongs to
    // the expected set or is a tombstone.
    for (const auto& [page_id, page] : out->pages) {
      for (uint16_t s = 0; s < page.slot_count(); s++) {
        auto got = page.Get(s);
        if (!got.ok()) continue;  // rolled back
        auto it = expected.find({page_id, s});
        ASSERT_NE(it, expected.end())
            << "unexpected survivor page=" << page_id << " slot=" << s
            << " crash_at=" << crash_at;
        EXPECT_EQ(got->ToString(), it->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace disagg
