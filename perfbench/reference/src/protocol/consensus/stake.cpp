#include "protocol/consensus/stake.hpp"

#include <cmath>
#include <string>

#include "support/check.hpp"

namespace mh::consensus {

namespace {

void require_weight(double stake, PartyId party) {
  MH_REQUIRE_MSG(std::isfinite(stake) && stake >= 0.0,
                 "stake weight for party " +
                     (party == kAdversary ? std::string("<adversary>") : std::to_string(party)) +
                     " must be finite and >= 0, got " + std::to_string(stake));
}

}  // namespace

StakeRegistry::StakeRegistry(std::vector<double> honest_stakes, double adversarial_stake)
    : honest_(std::move(honest_stakes)), adversarial_(adversarial_stake) {
  MH_REQUIRE_MSG(!honest_.empty(), "a stake registry needs at least one honest party");
  MH_REQUIRE_MSG(honest_.size() < kAdversary,
                 "honest party ids must stay below the adversary sentinel");
  for (std::size_t p = 0; p < honest_.size(); ++p)
    require_weight(honest_[p], static_cast<PartyId>(p));
  require_weight(adversarial_, kAdversary);
  recompute_total();
}

StakeRegistry StakeRegistry::uniform(std::size_t honest_parties, double adversarial_stake) {
  MH_REQUIRE_MSG(honest_parties >= 1, "uniform registry needs at least one honest party");
  MH_REQUIRE_MSG(adversarial_stake >= 0.0 && adversarial_stake < 1.0,
                 "uniform registry takes the coalition's RELATIVE stake in [0, 1), got " +
                     std::to_string(adversarial_stake));
  std::vector<double> honest(honest_parties,
                             (1.0 - adversarial_stake) / static_cast<double>(honest_parties));
  return StakeRegistry(std::move(honest), adversarial_stake);
}

void StakeRegistry::add_shift(const StakeShiftSpec& spec) {
  MH_REQUIRE_MSG(spec.party == kAdversary || spec.party < honest_.size(),
                 "stake shift at epoch " + std::to_string(spec.epoch) +
                     " names party " + std::to_string(spec.party) + ", registry holds " +
                     std::to_string(honest_.size()) + " honest parties");
  require_weight(spec.stake, spec.party);
  MH_REQUIRE_MSG(!started_ || spec.epoch > epoch_,
                 "stake shift at epoch " + std::to_string(spec.epoch) +
                     " registered after the registry already advanced to epoch " +
                     std::to_string(epoch_));
  shifts_.push_back(spec);
}

void StakeRegistry::advance_to_epoch(std::size_t epoch) {
  MH_REQUIRE_MSG(!started_ || epoch >= epoch_,
                 "epochs never rewind: at " + std::to_string(epoch_) + ", asked for " +
                     std::to_string(epoch));
  const std::size_t from = started_ ? epoch_ + 1 : 0;
  for (std::size_t e = from; e <= epoch; ++e) {
    for (const StakeShiftSpec& spec : shifts_) {
      if (spec.epoch != e) continue;
      if (spec.party == kAdversary)
        adversarial_ = spec.stake;
      else
        honest_[spec.party] = spec.stake;
    }
  }
  epoch_ = epoch;
  started_ = true;
  recompute_total();
}

double StakeRegistry::stake(PartyId party) const {
  if (party == kAdversary) return adversarial_;
  MH_REQUIRE_MSG(party < honest_.size(), "no party " + std::to_string(party) +
                                             " in a registry of " +
                                             std::to_string(honest_.size()) + " honest parties");
  return honest_[party];
}

double StakeRegistry::share(PartyId party) const { return stake(party) / total_; }

double StakeRegistry::adversarial_share() const noexcept { return adversarial_ / total_; }

std::vector<double> StakeRegistry::honest_shares() const {
  std::vector<double> shares(honest_.size());
  for (std::size_t p = 0; p < honest_.size(); ++p) shares[p] = honest_[p] / total_;
  return shares;
}

void StakeRegistry::recompute_total() {
  double honest_total = 0.0;
  for (const double w : honest_) honest_total += w;
  MH_REQUIRE_MSG(honest_total > 0.0,
                 "the honest parties' total stake must stay positive (epoch " +
                     std::to_string(epoch_) + " left it at " + std::to_string(honest_total) +
                     ")");
  total_ = honest_total + adversarial_;
}

}  // namespace mh::consensus
