#include "sched/policy/accounts.hpp"

#include <algorithm>
#include <stdexcept>

namespace eslurm::sched::policy {

namespace {
const std::string kEmpty;
}  // namespace

AccountTree::AccountTree(SimTime half_life) : half_life_(half_life) {
  if (half_life_ <= 0) throw std::invalid_argument("AccountTree: half_life > 0");
}

void AccountTree::add_account(const std::string& name, const std::string& parent,
                              double shares, AccountLimits limits) {
  if (name.empty()) throw std::invalid_argument("AccountTree: account needs a name");
  const int parent_index = find_account(parent);  // "" is never registered: root
  if (!parent.empty() && parent_index == kNone)
    throw std::invalid_argument("AccountTree: unknown parent account");
  const auto [it, added] =
      account_ids_.try_emplace(name, static_cast<int>(accounts_.size()));
  // Parents must pre-exist, so only re-parenting can close a cycle.
  for (int a = parent_index; !added && a != kNone; a = accounts_[a].parent)
    if (a == it->second) throw std::invalid_argument("AccountTree: account cycle");
  if (added) accounts_.push_back(Account{.name = name});
  Account& account = accounts_[it->second];
  account.parent = parent_index;
  account.shares = shares;
  account.limits = limits;
  children_stale_ = true;
}

void AccountTree::set_user(const std::string& user, const std::string& account,
                           double shares, UserLimits limits) {
  if (user.empty()) throw std::invalid_argument("AccountTree: user needs a name");
  if (!account.empty() && !has_account(account))
    add_account(account);  // self-assembly: unseen accounts hang off root
  User& entry = users_[intern_user(user)];
  if (!entry.registered) ++registered_users_;
  entry.registered = true;
  entry.account = find_account(account);
  entry.shares = shares;
  entry.limits = limits;
  children_stale_ = true;
}

void AccountTree::ensure_user(const std::string& user, const std::string& account) {
  if (user.empty() || has_user(user)) return;
  set_user(user, account);
}

bool AccountTree::has_user(const std::string& user) const {
  const int index = user_index(user);
  return index != kNone && users_[index].registered;
}

const std::string& AccountTree::account_of(const std::string& user) const {
  const int index = user_index(user);
  if (index == kNone || users_[index].account == kNone) return kEmpty;
  return accounts_[users_[index].account].name;
}

int AccountTree::user_index(const std::string& user) const {
  const auto it = user_ids_.find(user);
  return it == user_ids_.end() ? kNone : it->second;
}

int AccountTree::find_account(const std::string& name) const {
  const auto it = account_ids_.find(name);
  return it == account_ids_.end() ? kNone : it->second;
}

int AccountTree::intern_user(const std::string& user) {
  const auto [it, added] = user_ids_.try_emplace(user, static_cast<int>(users_.size()));
  if (added) users_.push_back(User{.name = user});
  return it->second;
}

int AccountTree::effective_account(const Job& job, int user) const {
  if (!job.account.empty()) return find_account(job.account);  // unregistered: no caps
  return user == kNone ? kNone : users_[user].account;
}

void AccountTree::usage_from(const JobPool& pool, LiveUsage& usage) {
  usage.by_user.assign(users_.size(), LiveUsage::Entry{});
  usage.by_account.assign(accounts_.size(), LiveUsage::Entry{});
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    if (job.finished()) continue;  // completing: resources counted until release
    add_usage(usage, job);
  }
}

void AccountTree::add_usage(LiveUsage& usage, const Job& job) {
  const int user = intern_user(job.user);
  if (usage.by_user.size() <= static_cast<std::size_t>(user))
    usage.by_user.resize(users_.size());
  LiveUsage::Entry& mine = usage.by_user[user];
  ++mine.running_jobs;
  mine.nodes += job.nodes;
  if (usage.by_account.size() < accounts_.size()) usage.by_account.resize(accounts_.size());
  for (int a = effective_account(job, user); a != kNone; a = accounts_[a].parent) {
    ++usage.by_account[a].running_jobs;
    usage.by_account[a].nodes += job.nodes;
  }
}

std::optional<std::string_view> AccountTree::may_start(const Job& job,
                                                       const QosClass& qos,
                                                       const LiveUsage& usage) const {
  static const LiveUsage::Entry kNoUsage;
  const auto held_in = [](const std::vector<LiveUsage::Entry>& table,
                          int index) -> const LiveUsage::Entry& {
    return index != kNone && static_cast<std::size_t>(index) < table.size()
               ? table[index]
               : kNoUsage;
  };
  const int user = user_index(job.user);
  const LiveUsage::Entry& mine = held_in(usage.by_user, user);
  // Per-QoS per-user caps bind first (Slurm checks QOS before
  // association limits).
  if (mine.running_jobs + 1 > qos.max_running_jobs_per_user)
    return "qos-user-max-jobs";
  if (mine.nodes + job.nodes > qos.max_nodes_per_user) return "qos-user-max-nodes";

  if (user != kNone) {  // an unregistered user keeps the unlimited defaults
    const UserLimits& limits = users_[user].limits;
    if (mine.running_jobs + 1 > limits.max_running_jobs) return "user-max-jobs";
    if (mine.nodes + job.nodes > limits.max_nodes) return "user-max-nodes";
  }

  for (int a = effective_account(job, user); a != kNone; a = accounts_[a].parent) {
    const AccountLimits& limits = accounts_[a].limits;
    const LiveUsage::Entry& held = held_in(usage.by_account, a);
    if (held.running_jobs + 1 > limits.max_running_jobs) return "account-max-jobs";
    if (held.nodes + job.nodes > limits.max_nodes) return "account-max-nodes";
    if (accounts_[a].budget_spent >= limits.node_seconds_budget) return "account-budget";
  }
  return std::nullopt;
}

std::size_t AccountTree::violations(const LiveUsage& usage) const {
  // An entry with no running job holds nothing, whatever its limits say.
  std::size_t count = 0;
  for (std::size_t u = 0; u < usage.by_user.size() && u < users_.size(); ++u) {
    const LiveUsage::Entry& held = usage.by_user[u];
    const UserLimits& limits = users_[u].limits;
    if (held.running_jobs == 0) continue;
    if (held.running_jobs > limits.max_running_jobs || held.nodes > limits.max_nodes)
      ++count;
  }
  for (std::size_t a = 0; a < usage.by_account.size() && a < accounts_.size(); ++a) {
    const LiveUsage::Entry& held = usage.by_account[a];
    const AccountLimits& limits = accounts_[a].limits;
    if (held.running_jobs == 0) continue;
    if (held.running_jobs > limits.max_running_jobs || held.nodes > limits.max_nodes)
      ++count;
  }
  return count;
}

void AccountTree::charge(const Job& job, double node_seconds, SimTime now) {
  if (node_seconds <= 0) return;
  const int user = intern_user(job.user);
  users_[user].decay.add(node_seconds, now, half_life_);
  for (int a = effective_account(job, user); a != kNone; a = accounts_[a].parent) {
    accounts_[a].decay.add(node_seconds, now, half_life_);
    accounts_[a].budget_spent += node_seconds;  // budgets do not decay
  }
}

double AccountTree::charged_node_seconds(const std::string& account) const {
  const int index = find_account(account);
  return index == kNone ? 0.0 : accounts_[index].budget_spent;
}

double AccountTree::decayed_usage(const std::string& user, SimTime now) const {
  const int index = user_index(user);
  return index == kNone ? 0.0 : users_[index].decay.at(now, half_life_);
}

void AccountTree::rank_children(int parent, SimTime now) {
  // Level fairshare = shares fraction / decayed-usage fraction (Slurm's
  // Fair Tree).  With zero aggregate usage everything ties on shares.
  level_.clear();
  double total_shares = 0.0;
  double total_usage = 0.0;
  const auto collect = [&](int index, bool is_user, double shares, const DecayedUsage& decay) {
    const double usage = decay.at(now, half_life_);
    level_.push_back({shares, usage, index, is_user});  // level_fs stashes shares
    total_shares += shares;
    total_usage += usage;
  };
  const std::size_t slot = static_cast<std::size_t>(parent + 1);
  for (const int a : child_accounts_[slot])
    collect(a, false, accounts_[a].shares, accounts_[a].decay);
  for (const int u : child_users_[slot]) collect(u, true, users_[u].shares, users_[u].decay);
  for (Ranked& r : level_) {
    const double shares_frac = total_shares > 0.0 ? r.level_fs / total_shares : 1.0;
    const double usage_frac = total_usage > 0.0 ? r.usage / total_usage : 0.0;
    r.level_fs = shares_frac / std::max(usage_frac, 1e-9);
  }
  const auto name_of = [this](const Ranked& r) -> const std::string& {
    return r.is_user ? users_[r.index].name : accounts_[r.index].name;
  };
  std::sort(level_.begin(), level_.end(), [&](const Ranked& a, const Ranked& b) {
    if (a.level_fs != b.level_fs) return a.level_fs > b.level_fs;
    if (const int order = name_of(a).compare(name_of(b)); order != 0) return order < 0;
    return a.is_user < b.is_user;  // an account and a user may share a name
  });
}

void AccountTree::fair_tree_factors(SimTime now, std::vector<double>& factors) {
  factors.assign(users_.size(), 1.0);
  if (registered_users_ == 0) return;

  if (children_stale_) {
    child_accounts_.resize(accounts_.size() + 1);
    child_users_.resize(accounts_.size() + 1);
    for (auto& list : child_accounts_) list.clear();
    for (auto& list : child_users_) list.clear();
    for (std::size_t a = 0; a < accounts_.size(); ++a)
      child_accounts_[accounts_[a].parent + 1].push_back(static_cast<int>(a));
    for (std::size_t u = 0; u < users_.size(); ++u)
      if (users_[u].registered)
        child_users_[users_[u].account + 1].push_back(static_cast<int>(u));
    children_stale_ = false;
  }

  // Iterative DFS from the root; each account frame ranks its children
  // and users receive rank / user_count in traversal order.
  const double total_users = static_cast<double>(registered_users_);
  std::size_t rank = registered_users_;
  rank_children(kNone, now);
  stack_.assign(level_.rbegin(), level_.rend());  // keep rank order on a LIFO stack
  while (!stack_.empty()) {
    const Ranked top = stack_.back();
    stack_.pop_back();
    if (top.is_user) {
      factors[top.index] = static_cast<double>(rank) / total_users;
      --rank;
    } else {
      rank_children(top.index, now);
      stack_.insert(stack_.end(), level_.rbegin(), level_.rend());
    }
  }
}

std::unordered_map<std::string, double> AccountTree::fair_tree_factors(SimTime now) {
  std::vector<double> dense;
  fair_tree_factors(now, dense);
  std::unordered_map<std::string, double> factors;
  for (std::size_t u = 0; u < users_.size(); ++u)
    if (users_[u].registered) factors.emplace(users_[u].name, dense[u]);
  return factors;
}

}  // namespace eslurm::sched::policy
