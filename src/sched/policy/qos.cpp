#include "sched/policy/qos.hpp"

#include <algorithm>
#include <stdexcept>

namespace eslurm::sched::policy {

const char* preempt_mode_name(PreemptMode mode) {
  switch (mode) {
    case PreemptMode::Off: return "off";
    case PreemptMode::Requeue: return "requeue";
    case PreemptMode::Cancel: return "cancel";
  }
  return "?";
}

bool QosClass::may_preempt(const std::string& victim_class) const {
  return std::find(preempts.begin(), preempts.end(), victim_class) != preempts.end();
}

void QosSet::add(QosClass qos) {
  if (qos.name.empty()) throw std::invalid_argument("QosSet::add: class needs a name");
  if (find(qos.name)) throw std::invalid_argument("QosSet::add: duplicate class");
  classes_.push_back(std::move(qos));
  by_key_.clear();
}

const QosClass* QosSet::find(const std::string& name) const {
  for (const QosClass& qos : classes_)
    if (qos.name == name) return &qos;
  return nullptr;
}

const QosClass& QosSet::resolve(const std::string& name) const {
  if (!name.empty()) {
    if (const QosClass* qos = find(name)) return *qos;
  }
  // Untagged / unknown: the class named "normal" when present, else the
  // built-in permissive default.
  if (const QosClass* normal = find("normal")) return *normal;
  return default_class_;
}

const QosClass& QosSet::resolve(const Job& job) const {
  const int slot = by_key_.find_or(job.qos_key, [&] {
    const QosClass& qos = resolve(job.qos);
    return &qos == &default_class_ ? static_cast<int>(classes_.size())
                                   : static_cast<int>(&qos - classes_.data());
  });
  return static_cast<std::size_t>(slot) < classes_.size() ? classes_[slot] : default_class_;
}

bool QosSet::may_preempt(const std::string& preemptor_class,
                         const std::string& victim_class) const {
  const QosClass& preemptor = resolve(preemptor_class);
  const QosClass& victim = resolve(victim_class);
  return victim.preemptable && preemptor.may_preempt(victim.name);
}

QosSet QosSet::standard() {
  QosSet set;
  QosClass high;
  high.name = "high";
  high.priority_boost = 5000.0;
  high.preempts = {"normal", "low"};
  high.preemptable = false;  // urgent work is never a victim
  set.add(std::move(high));

  QosClass normal;  // the default class: no boost, victim only of "high"
  normal.name = "normal";
  normal.grace_period = seconds(60);
  set.add(std::move(normal));

  QosClass low;  // scavenger tier: evicted quickly when anyone needs room
  low.name = "low";
  low.priority_boost = -2000.0;
  low.grace_period = seconds(15);
  set.add(std::move(low));
  return set;
}

}  // namespace eslurm::sched::policy
