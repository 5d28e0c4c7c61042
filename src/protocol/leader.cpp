#include "protocol/leader.hpp"

#include <cmath>
#include <cstdio>

#include "protocol/consensus/leader_select.hpp"
#include "support/check.hpp"

namespace mh {

const SlotLeaders& genesis_slot_leaders() noexcept {
  static const SlotLeaders kGenesis{};
  return kGenesis;
}

LeaderSchedule::LeaderSchedule(std::vector<SlotLeaders> slots, std::size_t honest_parties)
    : slots_(std::move(slots)), honest_parties_(honest_parties) {
  MH_REQUIRE(honest_parties_ >= 1);
}

namespace {

PartyId random_party(std::size_t honest_parties, Rng& rng) {
  return static_cast<PartyId>(rng.below(honest_parties));
}

std::string law_text(double ph, double pH, double pA) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "law (ph=%g, pH=%g, pA=%g)", ph, pH, pA);
  return buf;
}

/// Entry-point check shared by both generators: a law that can draw H slots
/// needs two distinct honest parties to materialize them. Checked up front —
/// naming the law and the party count — instead of aborting mid-generation
/// when the first H happens to be sampled.
void require_parties_for(double ph, double pH, double pA, std::size_t honest_parties) {
  MH_REQUIRE_MSG(honest_parties >= 1,
                 law_text(ph, pH, pA) + " needs at least one honest party, got 0");
  if (pH > 0.0)
    MH_REQUIRE_MSG(honest_parties >= 2,
                   law_text(ph, pH, pA) +
                       " draws multiply-honest (H) slots, which need two distinct honest "
                       "parties; got honest_parties = " +
                       std::to_string(honest_parties));
}

SlotLeaders materialize(TetraSymbol symbol, std::size_t honest_parties, Rng& rng) {
  SlotLeaders leaders;
  switch (symbol) {
    case TetraSymbol::Bot: break;
    case TetraSymbol::A: leaders.adversarial = true; break;
    case TetraSymbol::h: leaders.honest.push_back(random_party(honest_parties, rng)); break;
    case TetraSymbol::H: {
      MH_REQUIRE_MSG(honest_parties >= 2, "an H slot needs two distinct honest parties");
      const PartyId first = random_party(honest_parties, rng);
      PartyId second = first;
      while (second == first) second = random_party(honest_parties, rng);
      leaders.honest.push_back(first);
      leaders.honest.push_back(second);
      break;
    }
  }
  return leaders;
}

}  // namespace

LeaderSchedule LeaderSchedule::from_symbol_law(const SymbolLaw& law, std::size_t horizon,
                                               std::size_t honest_parties, Rng& rng) {
  law.validate();
  require_parties_for(law.ph, law.pH, law.pA, honest_parties);
  std::vector<SlotLeaders> slots;
  slots.reserve(horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    const Symbol s = law.sample(rng);
    const TetraSymbol tetra = s == Symbol::h   ? TetraSymbol::h
                              : s == Symbol::H ? TetraSymbol::H
                                               : TetraSymbol::A;
    slots.push_back(materialize(tetra, honest_parties, rng));
  }
  return LeaderSchedule(std::move(slots), honest_parties);
}

LeaderSchedule LeaderSchedule::from_tetra_law(const TetraLaw& law, std::size_t horizon,
                                              std::size_t honest_parties, Rng& rng) {
  law.validate();
  require_parties_for(law.ph, law.pH, law.pA, honest_parties);
  std::vector<SlotLeaders> slots;
  slots.reserve(horizon);
  for (std::size_t t = 0; t < horizon; ++t)
    slots.push_back(materialize(law.sample(rng), honest_parties, rng));
  return LeaderSchedule(std::move(slots), honest_parties);
}

TetraLaw LeaderSchedule::praos_induced_law(double f, double adversarial_stake,
                                           std::size_t honest_parties) {
  MH_REQUIRE(f > 0.0 && f < 1.0);
  MH_REQUIRE(adversarial_stake >= 0.0 && adversarial_stake < 1.0);
  MH_REQUIRE(honest_parties >= 1);
  const double honest_share = (1.0 - adversarial_stake) / static_cast<double>(honest_parties);
  const double n = static_cast<double>(honest_parties);
  // Work in log space: log(1 - p_honest) = share * log1p(-f) exactly, so the
  // no-winner and one-winner masses never pass through the cancellation-prone
  // p_honest representation.
  const double log_q = honest_share * std::log1p(-f);
  const double p_honest = -std::expm1(log_q);
  const double p_adv = consensus::phi(f, adversarial_stake);

  const double no_honest = std::exp(n * log_q);
  const double one_honest = n * p_honest * std::exp((n - 1.0) * log_q);

  TetraLaw law;
  law.pA = p_adv;  // at least one adversarial leader, regardless of honest ones
  law.pBot = (1.0 - p_adv) * no_honest;
  law.ph = (1.0 - p_adv) * one_honest;
  law.pH = (1.0 - p_adv) * (1.0 - no_honest - one_honest);
  law.validate();
  return law;
}

const SlotLeaders& LeaderSchedule::leaders(std::size_t slot) const {
  if (slot == 0) return genesis_slot_leaders();  // genesis is not issued
  MH_REQUIRE_MSG(slot <= slots_.size(), "slot " + std::to_string(slot) +
                                            " is past the horizon " +
                                            std::to_string(slots_.size()));
  return slots_[slot - 1];
}

bool LeaderSchedule::eligible(PartyId party, std::size_t slot) const {
  if (slot == 0) return false;  // genesis is not issued
  if (slot > slots_.size()) return false;
  const SlotLeaders& l = slots_[slot - 1];
  if (party == kAdversary) return l.adversarial;
  for (PartyId p : l.honest)
    if (p == party) return true;
  return false;
}

TetraString LeaderSchedule::characteristic() const {
  TetraString out;
  for (const SlotLeaders& l : slots_) {
    if (l.adversarial)
      out.push_back(TetraSymbol::A);
    else if (l.honest.empty())
      out.push_back(TetraSymbol::Bot);
    else if (l.honest.size() == 1)
      out.push_back(TetraSymbol::h);
    else
      out.push_back(TetraSymbol::H);
  }
  return out;
}

CharString LeaderSchedule::characteristic_sync() const {
  CharString out;
  for (const SlotLeaders& l : slots_) {
    if (l.adversarial) {
      out.push_back(Symbol::A);
    } else {
      MH_REQUIRE_MSG(!l.honest.empty(), "synchronous view requires no empty slots");
      out.push_back(l.honest.size() == 1 ? Symbol::h : Symbol::H);
    }
  }
  return out;
}

}  // namespace mh
