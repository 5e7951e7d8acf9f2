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
  /// ensure_user for a pool job, resolved through its name keys.
  void ensure_user(const Job& job);

  bool has_account(const std::string& name) const { return find_account(name) != kNone; }
  bool has_user(const std::string& user) const;
  /// The account a user is registered under ("" when unknown / root).
  const std::string& account_of(const std::string& user) const;
  std::size_t user_count() const { return registered_users_; }
  /// Dense index of a user seen so far (registered, charged or counted in
  /// live usage), kNone otherwise.
  int user_index(const std::string& user) const;
  /// user_index of a job's user through its key (see bind).  A kNone
  /// answer is never cached: the name may be added later.
  int user_of(const Job& job) const;

  // --- pool keys -------------------------------------------------------
  /// Points the key translations at `pool` (dropping them when it is not
  /// the pool they came from).  The Job overloads below resolve a job's
  /// user and account through its keys once bound, and by name for a job
  /// with no keys; between binds they must be handed jobs of that pool.
  void bind(const JobPool& pool);

  // --- live usage ------------------------------------------------------
  /// Binds `pool`, then refills `usage` with its active
  /// (starting/running/completing) jobs, reusing its storage.
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
  /// plus decayed fair-tree usage for the user and every ancestor.  A
  /// released job may come from any pool, so this resolves names.
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
  /// One child of a fair-tree level: an account or a registered user.
  struct Child {
    int index = kNone;
    bool is_user = false;
    /// Rank of (name, is_user) among all accounts and registered users:
    /// the tie-break of equal level fairshares, name order with an
    /// account before a user of the same name.
    int ordinal = 0;
    double usage = 0.0;     ///< decayed usage at the walk's time
    double level_fs = 0.0;  ///< shares fraction / usage fraction
  };
  /// The children of one account (or of the root).
  struct Level {
    /// Child accounts, then registered users, each in index order: the
    /// order in which the level's totals are summed.
    std::vector<Child> children;
    /// Positions in `children`, ranked by descending level fairshare,
    /// then ordinal; the previous walk's ranking is the next one's start.
    std::vector<int> order;
  };

  int find_account(const std::string& name) const;
  int intern_user(const std::string& user);
  /// The account a job charges: its own tag (kNone when the tag is not
  /// registered), else its user's registration.
  int effective_account(const Job& job, int user) const;
  /// Rebuilds every level's children and the name ordinals.
  void rebuild_levels();
  /// Computes the level's fairshares at `now` and re-ranks `order`.
  void rank_level(Level& level, SimTime now);

  SimTime half_life_;
  std::vector<Account> accounts_;
  std::vector<User> users_;
  std::unordered_map<std::string, int> account_ids_;
  std::unordered_map<std::string, int> user_ids_;
  std::size_t registered_users_ = 0;
  /// Pool key -> user / account index, for the Job overloads.
  mutable KeyCache user_keys_;
  mutable KeyCache account_keys_;

  // Fair-tree walk state.  The levels change only when
  // add_account/set_user reshape the tree, so they are rebuilt lazily on
  // the next walk; each level keeps its last ranking, and stack_ is
  // scratch reused across walks.
  bool children_stale_ = true;
  /// Slot 0 is the root, slot a + 1 is account a.
  std::vector<Level> levels_;
  std::vector<const Child*> stack_;
};

}  // namespace eslurm::sched::policy
