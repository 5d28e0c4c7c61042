// ASCII rendering of forks for examples and debugging output. Vertices appear
// as "[label]" with honest vertices double-bracketed "[[label]]" in the style
// of the paper's figures (honest vertices drawn with double borders).
#pragma once

#include <string>

#include "fork/fork.hpp"

namespace mh {

std::string render_ascii(const Fork& fork, const CharString& w);

}  // namespace mh
