#include "analysis/thresholds.hpp"

namespace mh {

RegimeReport classify_regime(const SymbolLaw& law) {
  law.validate();
  RegimeReport report;
  report.this_work_advantage = law.ph + law.pH - law.pA;
  report.praos_advantage = law.ph - law.pH - law.pA;
  report.snow_white_advantage = law.ph - law.pA;
  report.this_work_applies = report.this_work_advantage > 0.0;
  report.praos_applies = report.praos_advantage > 0.0;
  report.snow_white_applies = report.snow_white_advantage > 0.0;
  return report;
}

bool applies(Analysis analysis, const SymbolLaw& law) {
  const RegimeReport report = classify_regime(law);
  switch (analysis) {
    case Analysis::ThisWork: return report.this_work_applies;
    case Analysis::Praos: return report.praos_applies;
    case Analysis::SnowWhite: return report.snow_white_applies;
  }
  return false;
}

std::string to_string(Analysis analysis) {
  switch (analysis) {
    case Analysis::ThisWork: return "this work (ph+pH>pA)";
    case Analysis::Praos: return "Praos/Genesis (ph-pH>pA)";
    case Analysis::SnowWhite: return "Sleepy/SnowWhite (ph>pA)";
  }
  return "?";
}

}  // namespace mh
