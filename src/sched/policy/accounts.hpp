// Account hierarchy: the bank-account tree production Slurm keeps in
// slurmdbd, with two jobs here:
//
//   * admission (acct_policy.c equivalents): per-user and per-account
//     caps on running jobs and nodes, and a node-seconds budget charged
//     on completion -- each checked up the whole parent chain, so a
//     division cap binds every project under it;
//   * hierarchical fair-share (Slurm's Fair Tree): every tree level
//     ranks its children by shares-vs-decayed-usage, and users get a
//     rank-order factor in (0, 1] -- an upgrade over the flat per-user
//     FairshareTracker that makes a heavy *project* depress all of its
//     members, not just the one user who burned the hours.
//
// The tree self-assembles from the jobs it sees (`ensure_user`): traces
// only need user -> account tags; explicit add_account/set_user calls
// layer limits and shares on top.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sched/job_pool.hpp"
#include "sched/policy/qos.hpp"
#include "sched/priority.hpp"

namespace eslurm::sched::policy {

/// Caps applied to one account, binding for the whole subtree under it.
struct AccountLimits {
  int max_running_jobs = std::numeric_limits<int>::max();  ///< GrpJobs
  int max_nodes = std::numeric_limits<int>::max();         ///< GrpTRES=node
  /// Total node-seconds the subtree may consume over the run; exhausted
  /// budgets hold further jobs (GrpTRESMins-style, without decay).
  double node_seconds_budget = std::numeric_limits<double>::infinity();
};

/// Caps applied to one user across all their jobs.
struct UserLimits {
  int max_running_jobs = std::numeric_limits<int>::max();
  int max_nodes = std::numeric_limits<int>::max();
};

/// Live concurrency snapshot, aggregated by the scheduler from the pool's
/// active jobs (plus in-pass admissions) each cycle.  Keeping it derived
/// from the pool -- not an incrementally maintained counter -- makes the
/// admission view impossible to desynchronize from reality.  Both tables
/// are indexed by the owning AccountTree's dense user and account
/// indices; an index past the end holds nothing.
struct LiveUsage {
  struct Entry {
    int running_jobs = 0;
    int nodes = 0;
  };
  std::vector<Entry> by_user;
  std::vector<Entry> by_account;
};

class AccountTree {
 public:
  /// Dense index meaning "none": the root as a parent or account, or a
  /// name the tree has never seen.
  static constexpr int kNone = -1;

  /// `half_life` governs the fair-tree usage decay (Slurm
  /// PriorityDecayHalfLife).
  explicit AccountTree(SimTime half_life = days(7));

  // --- construction ----------------------------------------------------
  /// Adds/updates an account.  `parent` must already exist ("" = root)
  /// and must not lie in the account's own subtree.
  void add_account(const std::string& name, const std::string& parent = "",
                   double shares = 1.0, AccountLimits limits = {});
  /// Registers/updates a user under `account` ("" = directly under root).
  /// Unknown accounts are created on the fly with default limits.
  void set_user(const std::string& user, const std::string& account,
                double shares = 1.0, UserLimits limits = {});
  /// Lazily registers an unknown user the first time a job of theirs is
  /// seen, under the job's account tag.  Known users are untouched.
  void ensure_user(const std::string& user, const std::string& account);

  bool has_account(const std::string& name) const { return find_account(name) != kNone; }
  bool has_user(const std::string& user) const;
  /// The account a user is registered under ("" when unknown / root).
  const std::string& account_of(const std::string& user) const;
  std::size_t user_count() const { return registered_users_; }
  /// Dense index of a user seen so far (registered, charged or counted in
  /// live usage), kNone otherwise.
  int user_index(const std::string& user) const;

  // --- live usage ------------------------------------------------------
  /// Refills `usage` with the pool's active (starting/running/completing)
  /// jobs, reusing its storage.
  void usage_from(const JobPool& pool, LiveUsage& usage);
  /// Adds one job to a live snapshot (in-pass admission bookkeeping).
  void add_usage(LiveUsage& usage, const Job& job);

  /// acct_policy-style admission: nullopt when the job may start, else a
  /// short static reason tag ("user-max-jobs", "account-max-nodes",
  /// "account-budget", "qos-user-max-jobs"...).
  std::optional<std::string_view> may_start(const Job& job, const QosClass& qos,
                                            const LiveUsage& usage) const;

  /// Counts limit entries exceeded by `usage` (audit invariant; 0 when
  /// admission is doing its job).
  std::size_t violations(const LiveUsage& usage) const;

  // --- consumption ledger ----------------------------------------------
  /// Charges completed (or preempted-partial) consumption: budget ledger
  /// plus decayed fair-tree usage for the user and every ancestor.
  void charge(const Job& job, double node_seconds, SimTime now);
  /// Un-decayed node-seconds charged against an account's budget so far.
  double charged_node_seconds(const std::string& account) const;
  double decayed_usage(const std::string& user, SimTime now) const;

  // --- fair tree -------------------------------------------------------
  /// Fair-tree factor in (0, 1] per registered user at `now`: each tree
  /// level is ranked by (shares fraction) / (decayed usage fraction) and
  /// users receive rank / user_count in traversal order.  Written to
  /// `factors[user_index(user)]`; users seen but not registered get 1.
  void fair_tree_factors(SimTime now, std::vector<double>& factors);
  /// The same factors keyed by registered user name (introspection).
  std::unordered_map<std::string, double> fair_tree_factors(SimTime now);

 private:
  struct Account {
    std::string name;
    int parent = kNone;  ///< kNone = root
    double shares = 1.0;
    AccountLimits limits;
    DecayedUsage decay;
    double budget_spent = 0.0;  ///< un-decayed node-seconds charged
  };
  struct User {
    std::string name;
    /// False for a user only seen in live usage or charges: no limits, no
    /// fair-tree rank, charged to the root.
    bool registered = false;
    int account = kNone;  ///< kNone = root
    double shares = 1.0;
    UserLimits limits;
    DecayedUsage decay;
  };
  /// One child of a fair-tree level: an account or a user index.
  struct Ranked {
    double level_fs = 0.0;
    double usage = 0.0;
    int index = kNone;
    bool is_user = false;
  };

  int find_account(const std::string& name) const;
  int intern_user(const std::string& user);
  /// The account a job charges: its own tag (kNone when the tag is not
  /// registered), else its user's registration.
  int effective_account(const Job& job, int user) const;
  /// Fills level_ with the children of `parent` (kNone = root), sorted by
  /// descending level fairshare, ties broken by name, then accounts first.
  void rank_children(int parent, SimTime now);

  SimTime half_life_;
  std::vector<Account> accounts_;
  std::vector<User> users_;
  std::unordered_map<std::string, int> account_ids_;
  std::unordered_map<std::string, int> user_ids_;
  std::size_t registered_users_ = 0;

  // Fair-tree walk state.  The child lists change only when
  // add_account/set_user reshape the tree, so they are rebuilt lazily on
  // the next walk; level_ and stack_ are scratch reused across walks.
  bool children_stale_ = true;
  /// Child accounts / registered users in index order; slot 0 is the
  /// root, slot a + 1 is account a.
  std::vector<std::vector<int>> child_accounts_;
  std::vector<std::vector<int>> child_users_;
  std::vector<Ranked> level_;
  std::vector<Ranked> stack_;
};

}  // namespace eslurm::sched::policy
