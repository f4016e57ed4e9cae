#include "designs/catalog.hpp"

#include <string_view>

#include "frontend/parser.hpp"

namespace systolize {
namespace {

// designs/<name>.sa as sa_<name>, embedded at build time
// (src/CMakeLists.txt): the only definition of each design.
#include "catalog_sources.inc"

struct Entry {
  const char* name;
  std::string_view source;
  const char* description;
};

/// The catalog in all_designs() order.
constexpr Entry kEntries[] = {
    {"polyprod1", sa_polyprod1,
     "polynomial product, place.(i,j) = i (Appendix D.1)"},
    {"polyprod2", sa_polyprod2,
     "polynomial product, place.(i,j) = i+j (Appendix D.2)"},
    {"matmul1", sa_matmul1,
     "matrix product, place.(i,j,k) = (i,j) (Appendix E.1)"},
    {"matmul2", sa_matmul2,
     "matrix product, place.(i,j,k) = (i-k,j-k) — the Kung-Leiserson array "
     "(Appendix E.2)"},
    {"matmul3", sa_matmul3,
     "matrix product, place.(i,j,k) = (i,k) — a stationary"},
    {"matmul4", sa_matmul4,
     "matrix product, place.(i,j,k) = (k,j) — b stationary"},
    {"polyprod3", sa_polyprod3,
     "polynomial product, place.(i,j) = j — b stationary, c flows against "
     "a"},
    {"convolution", sa_convolution,
     "FIR convolution, place.(i,j) = i: x flows against w"},
    {"correlation", sa_correlation,
     "correlation c[i-j] += a[i]*b[j]: stream c has flow 1/3"},
    {"fir_bank", sa_fir_bank,
     "FIR filter bank, place.(i,f,j) = (i,f): y stationary, w and x "
     "counter-flow along the tap axis"},
    {"closure", sa_closure,
     "transitive-closure step c[i,j] += t[i,k]*u[k,j] with a descending k "
     "loop, place.(i,j,k) = (i,j)"},
};

Design parse_entry(const Entry& entry) {
  Design d = frontend::parse_design(std::string(entry.source));
  d.description = entry.description;
  return d;
}

}  // namespace

Design polyprod_design1() { return design_by_name("polyprod1"); }
Design polyprod_design2() { return design_by_name("polyprod2"); }
Design matmul_design1() { return design_by_name("matmul1"); }
Design matmul_design2() { return design_by_name("matmul2"); }
Design matmul_design3() { return design_by_name("matmul3"); }
Design matmul_design4() { return design_by_name("matmul4"); }
Design polyprod_design3() { return design_by_name("polyprod3"); }
Design convolution_design() { return design_by_name("convolution"); }
Design correlation_design() { return design_by_name("correlation"); }
Design fir_bank_design() { return design_by_name("fir_bank"); }
Design closure_design() { return design_by_name("closure"); }

std::vector<Design> all_designs() {
  std::vector<Design> designs;
  for (const Entry& e : kEntries) designs.push_back(parse_entry(e));
  return designs;
}

std::vector<std::string> catalog_names() {
  std::vector<std::string> names;
  for (const Entry& e : kEntries) names.emplace_back(e.name);
  return names;
}

Design design_by_name(const std::string& name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return parse_entry(e);
  }
  raise(ErrorKind::Validation, "unknown design '" + name + "'");
}

}  // namespace systolize
