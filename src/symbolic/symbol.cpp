#include "symbolic/symbol.hpp"

#include <ostream>

namespace systolize {

Symbol size_symbol(std::string name) {
  return Symbol(std::move(name), SymbolKind::ProblemSize);
}

Symbol coord_symbol(std::string name) {
  return Symbol(std::move(name), SymbolKind::ProcessCoord);
}

Symbol canonical_coord(std::size_t i) {
  if (i == 0) return coord_symbol("col");
  if (i == 1) return coord_symbol("row");
  return coord_symbol(std::string("y").append(std::to_string(i)));
}

std::ostream& operator<<(std::ostream& os, const Symbol& s) {
  return os << s.name();
}

}  // namespace systolize
