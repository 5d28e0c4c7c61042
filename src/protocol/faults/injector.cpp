#include "protocol/faults/injector.hpp"

#include <algorithm>
#include <iterator>

#include "support/check.hpp"

namespace mh::faults {

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t parties, std::size_t horizon)
    : plan_(plan), parties_(parties), horizon_(horizon), link_streams_(plan.seed) {
  plan_.validate(parties, horizon);
  // The transport asks window_active, is_down and any_down on every send;
  // they answer from sorted, disjoint windows by binary search instead of
  // scanning the plan.
  std::vector<Window> any;
  for (const PartitionSpec& p : plan_.partitions) any.push_back(Window{p.start, p.heal});
  for (const LinkFaultSpec& l : plan_.links) any.push_back(Window{l.start, l.end});
  std::vector<Window> downs;
  for (const CrashSpec& c : plan_.churn) downs.push_back(Window{c.crash, c.restart});
  any.insert(any.end(), downs.begin(), downs.end());
  active_ = merged(std::move(any));
  down_any_ = merged(std::move(downs));
  if (plan_.churn.empty()) return;
  // Down-windows sorted by (party, crash). A party's windows never overlap
  // (validate() rejects that), so they are disjoint as they stand.
  std::vector<CrashSpec> churn = plan_.churn;
  std::sort(churn.begin(), churn.end(), [](const CrashSpec& a, const CrashSpec& b) {
    return a.party != b.party ? a.party < b.party : a.crash < b.crash;
  });
  down_begin_.assign(parties + 1, 0);
  for (const CrashSpec& c : churn) {
    ++down_begin_[c.party + 1];
    down_.push_back(Window{c.crash, c.restart});
  }
  for (std::size_t p = 0; p < parties; ++p) down_begin_[p + 1] += down_begin_[p];
}

std::vector<FaultInjector::Window> FaultInjector::merged(std::vector<Window> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  std::vector<Window> out;
  for (const Window& w : windows) {  // validate() made every window non-empty
    if (!out.empty() && w.start <= out.back().end)
      out.back().end = std::max(out.back().end, w.end);
    else
      out.push_back(w);
  }
  return out;
}

bool FaultInjector::covers(std::span<const Window> windows, std::size_t slot) noexcept {
  // The last window starting at or before `slot` is the only one that can hold it.
  const auto after =
      std::upper_bound(windows.begin(), windows.end(), slot,
                       [](std::size_t s, const Window& w) { return s < w.start; });
  return after != windows.begin() && slot < std::prev(after)->end;
}

std::span<const FaultInjector::Window> FaultInjector::down_windows(
    PartyId party) const noexcept {
  if (down_begin_.empty() || party >= parties_) return {};
  return {down_.data() + down_begin_[party], down_.data() + down_begin_[party + 1]};
}

bool FaultInjector::window_active(std::size_t slot) const noexcept {
  return covers(active_, slot);
}

bool FaultInjector::is_down(PartyId party, std::size_t slot) const noexcept {
  return covers(down_windows(party), slot);
}

bool FaultInjector::any_down(std::size_t lo, std::size_t hi) const noexcept {
  // The first merged window ending after `lo` is the only candidate.
  const auto first =
      std::upper_bound(down_any_.begin(), down_any_.end(), lo,
                       [](std::size_t s, const Window& w) { return s < w.end; });
  return first != down_any_.end() && first->start <= hi;
}

bool FaultInjector::down_in_window(PartyId party, std::size_t lo, std::size_t hi) const noexcept {
  for (const Window& w : down_windows(party))
    if (w.start <= hi && lo < w.end) return true;
  return false;
}

std::size_t FaultInjector::down_slots_in(PartyId party, std::size_t lo,
                                         std::size_t hi) const noexcept {
  std::size_t down = 0;
  for (const Window& w : down_windows(party)) {
    if (w.end <= lo || w.start > hi) continue;
    const std::size_t from = w.start > lo ? w.start : lo;
    const std::size_t to = w.end - 1 < hi ? w.end - 1 : hi;
    down += to - from + 1;
  }
  return down;
}

bool FaultInjector::severed(PartyId sender, PartyId recipient, std::size_t slot) const noexcept {
  if (sender == kAdversary || sender == recipient) return false;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.start <= slot && slot < p.heal) return p.group[sender] != p.group[recipient];
  return false;
}

LinkVerdict FaultInjector::link_verdict(PartyId sender, PartyId recipient,
                                        std::size_t slot) const noexcept {
  LinkVerdict verdict;
  if (sender == kAdversary || sender == recipient) return verdict;
  for (const LinkFaultSpec& l : plan_.links) {
    if (slot < l.start || slot >= l.end) continue;
    // One counter-based stream per (slot, sender, recipient): draws do not
    // depend on how many links faulted before this one, so any evaluation
    // order reproduces the same execution.
    Rng rng = link_streams_.stream((slot * parties_ + sender) * parties_ + recipient);
    if (rng.bernoulli(l.drop)) {
      verdict.drop = true;
      return verdict;  // a lost ship has no duplicate and no delay
    }
    if (rng.bernoulli(l.dup)) verdict.duplicate = true;
    if (l.extra_prob > 0.0 && rng.bernoulli(l.extra_prob))
      verdict.extra_delay = 1 + rng.below(l.extra_max);
    return verdict;  // windows do not overlap meaningfully: first match wins
  }
  return verdict;
}

void FaultInjector::crashes_at(std::size_t slot, std::vector<PartyId>* out) const {
  out->clear();
  for (const CrashSpec& c : plan_.churn)
    if (c.crash == slot) out->push_back(c.party);
}

void FaultInjector::restarts_at(std::size_t slot, std::vector<PartyId>* out) const {
  out->clear();
  for (const CrashSpec& c : plan_.churn)
    if (c.restart == slot) out->push_back(c.party);
}

std::size_t FaultInjector::heals_at(std::size_t slot) const noexcept {
  std::size_t n = 0;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.heal == slot) ++n;
  return n;
}

std::size_t FaultInjector::partitions_active(std::size_t slot) const noexcept {
  std::size_t n = 0;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.start <= slot && slot < p.heal) ++n;
  return n;
}

LeaderSchedule FaultInjector::effective_schedule(const ScheduleSource& schedule) const {
  std::vector<SlotLeaders> slots;
  slots.reserve(schedule.horizon());
  for (std::size_t t = 1; t <= schedule.horizon(); ++t) {
    SlotLeaders effective = schedule.leaders(t);
    std::erase_if(effective.honest, [&](PartyId p) { return is_down(p, t); });
    slots.push_back(std::move(effective));
  }
  return LeaderSchedule(std::move(slots), schedule.honest_parties());
}

}  // namespace mh::faults
