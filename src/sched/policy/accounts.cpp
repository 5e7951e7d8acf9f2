#include "sched/policy/accounts.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace eslurm::sched::policy {

namespace {

const std::string kEmpty;

static_assert(KeyCache::kMiss == AccountTree::kNone);

/// Re-sorts `order`, already ranked by the previous walk, under the strict
/// total order `less`: insertion sort while the order is nearly right,
/// std::sort once it has shifted elements more than twice its length.
/// Any correct sort of a strict total order returns the same sequence.
template <class Less>
void warm_sort(std::vector<int>& order, Less less) {
  std::size_t budget = 2 * order.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const int item = order[i];
    std::size_t j = i;
    for (; j > 0 && less(item, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = item;
    if (i - j > budget) {
      std::sort(order.begin(), order.end(), less);
      return;
    }
    budget -= i - j;
  }
}

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

void AccountTree::ensure_user(const Job& job) {
  if (job.user.empty()) return;
  const int index = user_of(job);
  if (index == kNone || !users_[index].registered) set_user(job.user, job.account);
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

int AccountTree::user_of(const Job& job) const {
  return user_keys_.find_or(job.user_key, [&] { return user_index(job.user); });
}

int AccountTree::effective_account(const Job& job, int user) const {
  if (!job.account.empty())  // unregistered: no caps
    return account_keys_.find_or(job.account_key, [&] { return find_account(job.account); });
  return user == kNone ? kNone : users_[user].account;
}

void AccountTree::bind(const JobPool& pool) {
  user_keys_.bind(pool);
  account_keys_.bind(pool);
}

void AccountTree::usage_from(const JobPool& pool, LiveUsage& usage) {
  bind(pool);
  usage.by_user.assign(users_.size(), LiveUsage::Entry{});
  usage.by_account.assign(accounts_.size(), LiveUsage::Entry{});
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    if (job.finished()) continue;  // completing: resources counted until release
    add_usage(usage, job);
  }
}

void AccountTree::add_usage(LiveUsage& usage, const Job& job) {
  const int user = user_keys_.find_or(job.user_key, [&] { return intern_user(job.user); });
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
  const int user = user_of(job);
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
  const int charged = job.account.empty() ? users_[user].account : find_account(job.account);
  for (int a = charged; a != kNone; a = accounts_[a].parent) {
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

void AccountTree::rebuild_levels() {
  levels_.resize(accounts_.size() + 1);
  for (Level& level : levels_) level.children.clear();
  for (std::size_t a = 0; a < accounts_.size(); ++a)
    levels_[accounts_[a].parent + 1].children.push_back({.index = static_cast<int>(a)});
  for (std::size_t u = 0; u < users_.size(); ++u)
    if (users_[u].registered)
      levels_[users_[u].account + 1].children.push_back(
          {.index = static_cast<int>(u), .is_user = true});

  std::vector<Child*> by_name;
  for (Level& level : levels_) {
    for (Child& child : level.children) by_name.push_back(&child);
    level.order.resize(level.children.size());
    std::iota(level.order.begin(), level.order.end(), 0);
  }
  const auto name_of = [this](const Child& c) -> const std::string& {
    return c.is_user ? users_[c.index].name : accounts_[c.index].name;
  };
  std::sort(by_name.begin(), by_name.end(), [&](const Child* a, const Child* b) {
    if (const int order = name_of(*a).compare(name_of(*b)); order != 0) return order < 0;
    return a->is_user < b->is_user;  // an account and a user may share a name
  });
  for (std::size_t i = 0; i < by_name.size(); ++i) by_name[i]->ordinal = static_cast<int>(i);
}

void AccountTree::rank_level(Level& level, SimTime now) {
  // Level fairshare = shares fraction / decayed-usage fraction (Slurm's
  // Fair Tree).  With zero aggregate usage everything ties on shares.
  double total_shares = 0.0;
  double total_usage = 0.0;
  for (Child& c : level.children) {
    const double shares = c.is_user ? users_[c.index].shares : accounts_[c.index].shares;
    const DecayedUsage& decay = c.is_user ? users_[c.index].decay : accounts_[c.index].decay;
    c.usage = decay.at(now, half_life_);
    c.level_fs = shares;  // stashed until the totals are known
    total_shares += shares;
    total_usage += c.usage;
  }
  for (Child& c : level.children) {
    const double shares_frac = total_shares > 0.0 ? c.level_fs / total_shares : 1.0;
    const double usage_frac = total_usage > 0.0 ? c.usage / total_usage : 0.0;
    c.level_fs = shares_frac / std::max(usage_frac, 1e-9);
  }
  warm_sort(level.order, [&children = level.children](int a, int b) {
    const Child& x = children[a];
    const Child& y = children[b];
    if (x.level_fs != y.level_fs) return x.level_fs > y.level_fs;
    return x.ordinal < y.ordinal;
  });
}

void AccountTree::fair_tree_factors(SimTime now, std::vector<double>& factors) {
  factors.assign(users_.size(), 1.0);
  if (registered_users_ == 0) return;

  if (children_stale_) {
    rebuild_levels();
    children_stale_ = false;
  }

  // Iterative DFS from the root; each account frame ranks its children
  // and users receive rank / user_count in traversal order.
  const double total_users = static_cast<double>(registered_users_);
  std::size_t rank = registered_users_;
  const auto push_ranked = [&](Level& level) {
    rank_level(level, now);
    for (auto it = level.order.rbegin(); it != level.order.rend(); ++it)
      stack_.push_back(&level.children[*it]);  // rank order on a LIFO stack
  };
  stack_.clear();
  push_ranked(levels_[0]);
  while (!stack_.empty()) {
    const Child& top = *stack_.back();
    stack_.pop_back();
    if (top.is_user) {
      factors[top.index] = static_cast<double>(rank) / total_users;
      --rank;
    } else {
      push_ranked(levels_[top.index + 1]);
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
