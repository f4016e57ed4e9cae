// occam-like printer (one of the two hand-translation targets of Sect. 8:
// the transputer experiments). Indentation-structured SEQ/PAR with
// `chan ! value` / `chan ? var` communications and replicated PAR.
#include "ast/print.hpp"
#include "ast/printer_base.hpp"

namespace systolize::ast {
namespace {

class OccamPrinter final : public detail::PrinterBase {
 public:
  void visit(const Seq& n) override {
    line("SEQ");
    indent();
    for (const NodePtr& item : n.items) item->accept(*this);
    dedent();
  }

  void visit(const Par& n) override {
    line("PAR");
    indent();
    for (const NodePtr& item : n.items) item->accept(*this);
    dedent();
  }

  void visit(const ParFor& n) override {
    // occam counts loop steps rather than bounds (Sect. 7.2.2 remark):
    // PAR var = lo FOR (hi - lo + 1).
    AffineExpr steps = n.hi - n.lo + AffineExpr(1);
    line("PAR " + n.var.name() + " = " + n.lo.to_string() + " FOR " +
         steps.to_string());
    indent();
    n.body->accept(*this);
    dedent();
  }

  void visit(const ChanDecl& n) override {
    std::string dims;
    for (const auto& [lo, hi] : n.ranges) {
      dims.append("[")
          .append((hi - lo + AffineExpr(1)).to_string())
          .append("]");
    }
    line(dims + "CHAN OF INT " + n.name + " :");
  }

  void visit(const VarDecl& n) override {
    std::string s;
    for (std::size_t i = 0; i < n.names.size(); ++i) {
      if (i > 0) s += ", ";
      s += n.names[i];
    }
    line("INT " + s + " :");
  }

  void visit(const Comment& n) override { line("-- " + n.text); }

  void visit(const Communicate& n) override {
    if (n.is_send) {
      line(show_chan(n.chan) + " ! " + n.item);
    } else {
      line(show_chan(n.chan) + " ? " + n.item);
    }
  }

  void visit(const IoRepeat& n) override {
    auto emit = [&](const AffinePoint& first, const AffinePoint& last) {
      (void)last;
      line("SEQ k = 0 FOR count." + n.stream);
      indent();
      line("-- element " + first.to_string() + " + k * " +
           show_vec(n.increment));
      if (n.is_send) {
        line(show_chan(n.chan) + " ! " + n.stream + "[k]");
      } else {
        line(show_chan(n.chan) + " ? " + n.stream + "[k]");
      }
      dedent();
    };
    if (n.first.size() == 1 && n.first.pieces()[0].guard.is_trivially_true()) {
      emit(n.first.pieces()[0].value, n.last.pieces()[0].value);
      return;
    }
    line("IF");
    indent();
    for (std::size_t i = 0; i < n.first.size(); ++i) {
      line(n.first.pieces()[i].guard.to_string());
      indent();
      emit(n.first.pieces()[i].value,
           n.last.pieces()[std::min(i, n.last.size() - 1)].value);
      dedent();
    }
    line("TRUE");
    indent();
    line("SKIP  -- null process");
    dedent();
    dedent();
  }

  void pass_like(const std::string& verb, const std::string& stream,
                 const Piecewise<AffineExpr>& count) {
    guarded(
        count,
        [&](const AffineExpr& e) {
          line("SEQ k = 0 FOR " + show_expr(e) + "  -- " + verb + " " +
               stream);
          indent();
          line(stream + ".in ? tmp");
          line(stream + ".out ! tmp");
          dedent();
        },
        "IF", "", "-- end IF");
  }

  void visit(const Pass& n) override { pass_like("pass", n.stream, n.count); }

  void visit(const Load& n) override {
    line(n.stream + ".in ? " + n.stream + "  -- load own element");
    pass_like("load-pass", n.stream, n.count);
  }

  void visit(const Recover& n) override {
    pass_like("recover-pass", n.stream, n.count);
    line(n.stream + ".out ! " + n.stream + "  -- recover own element");
  }

  void visit(const CompRepeat& n) override {
    line("SEQ step = 0 FOR count  -- repeater {first last " +
         show_vec(n.increment) + "}");
    indent();
    n.body->accept(*this);
    dedent();
  }

  void visit(const BasicStatement& n) override {
    if (!n.receives.empty()) {
      line("PAR");
      indent();
      for (const Communicate& c : n.receives) visit(c);
      dedent();
    }
    line(n.compute);
    if (!n.sends.empty()) {
      line("PAR");
      indent();
      for (const Communicate& c : n.sends) visit(c);
      dedent();
    }
  }

  void visit(const Program& n) override {
    line("-- systolic program: " + n.name + " (occam rendering)");
    for (const NodePtr& d : n.channel_decls) d->accept(*this);
    n.body->accept(*this);
  }
};

}  // namespace

std::string to_occam(const Program& program) {
  OccamPrinter printer;
  program.accept(printer);
  return printer.str();
}

}  // namespace systolize::ast
