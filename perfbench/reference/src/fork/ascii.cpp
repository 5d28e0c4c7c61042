#include "fork/ascii.hpp"

#include <sstream>

namespace mh {

namespace {

void render_subtree(const Fork& fork, const CharString& w, VertexId v, std::string prefix,
                    bool last, std::ostringstream& out) {
  const std::uint32_t l = fork.label(v);
  std::string tag;
  if (v == kRoot) {
    tag = "(genesis)";
  } else if (is_honest_vertex(fork, w, v)) {
    tag = "[[" + std::to_string(l) + "]]";
  } else {
    tag = "[" + std::to_string(l) + "]";
  }

  if (v == kRoot) {
    out << tag << '\n';
  } else {
    out << prefix << (last ? "`-- " : "|-- ") << tag << '\n';
    prefix += last ? "    " : "|   ";
  }

  const auto& kids = fork.children(v);
  for (std::size_t i = 0; i < kids.size(); ++i)
    render_subtree(fork, w, kids[i], prefix, i + 1 == kids.size(), out);
}

}  // namespace

std::string render_ascii(const Fork& fork, const CharString& w) {
  std::ostringstream out;
  out << "fork for w = " << w.to_string() << "  (height " << fork.height() << ", "
      << fork.vertex_count() << " vertices; [[n]] honest, [n] adversarial)\n";
  render_subtree(fork, w, kRoot, "", true, out);
  return out.str();
}

}  // namespace mh
