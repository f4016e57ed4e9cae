// C-with-communication-directives printer (the Symult s2010 target of
// Sect. 8): braces, for-loops, and send()/recv() primitives.
#include "ast/print.hpp"
#include "ast/printer_base.hpp"

namespace systolize::ast {
namespace {

class CPrinter final : public detail::PrinterBase {
 public:
  void visit(const Seq& n) override {
    for (const NodePtr& item : n.items) item->accept(*this);
  }

  void visit(const Par& n) override {
    line("par {");
    indent();
    for (const NodePtr& item : n.items) item->accept(*this);
    dedent();
    line("}");
  }

  void visit(const ParFor& n) override {
    line("parfor (int " + n.var.name() + " = " + n.lo.to_string() + "; " +
         n.var.name() + " <= " + n.hi.to_string() + "; ++" + n.var.name() +
         ") {");
    indent();
    n.body->accept(*this);
    dedent();
    line("}");
  }

  void visit(const ChanDecl& n) override {
    std::string dims;
    for (const auto& [lo, hi] : n.ranges) {
      dims.append("[")
          .append(lo.to_string())
          .append(" .. ")
          .append(hi.to_string())
          .append("]");
    }
    line("channel " + n.name + dims + ";");
  }

  void visit(const VarDecl& n) override {
    std::string s;
    for (std::size_t i = 0; i < n.names.size(); ++i) {
      if (i > 0) s += ", ";
      s += n.names[i];
    }
    line(n.type + " " + s + ";");
  }

  void visit(const Comment& n) override { line("/* " + n.text + " */"); }

  void visit(const Communicate& n) override {
    if (n.is_send) {
      line("send(" + show_chan(n.chan) + ", " + n.item + ");");
    } else {
      line("recv(" + show_chan(n.chan) + ", &" + n.item + ");");
    }
  }

  void visit(const IoRepeat& n) override {
    auto emit = [&](const AffinePoint& first, const AffinePoint& last) {
      line("/* elements " + first.to_string() + " .. " + last.to_string() +
           " by " + show_vec(n.increment) + " */");
      line("for (int k = 0; k < count_" + n.stream + "; ++k) {");
      indent();
      if (n.is_send) {
        line("send(" + show_chan(n.chan) + ", " + n.stream + "[k]);");
      } else {
        line("recv(" + show_chan(n.chan) + ", &" + n.stream + "[k]);");
      }
      dedent();
      line("}");
    };
    if (n.first.size() == 1 && n.first.pieces()[0].guard.is_trivially_true()) {
      emit(n.first.pieces()[0].value, n.last.pieces()[0].value);
      return;
    }
    for (std::size_t i = 0; i < n.first.size(); ++i) {
      line((i == 0 ? "if (" : "} else if (") +
           n.first.pieces()[i].guard.to_string() + ") {");
      indent();
      emit(n.first.pieces()[i].value,
           n.last.pieces()[std::min(i, n.last.size() - 1)].value);
      dedent();
    }
    line("} /* else: null process */");
  }

  void count_block(const std::string& head, const std::string& stream,
                   const Piecewise<AffineExpr>& count) {
    guarded(
        count,
        [&](const AffineExpr& e) {
          line("for (int k = 0; k < " + show_expr(e) + "; ++k) " + head +
               "(" + stream + ");");
        },
        "/* case split */", "/* or */", "/* end */");
  }

  void visit(const Pass& n) override { count_block("pass", n.stream, n.count); }

  void visit(const Load& n) override {
    line("recv_own(" + n.stream + ");");
    count_block("pass", n.stream, n.count);
  }

  void visit(const Recover& n) override {
    count_block("pass", n.stream, n.count);
    line("send_own(" + n.stream + ");");
  }

  void visit(const CompRepeat& n) override {
    line("/* repeater {first last " + show_vec(n.increment) + "} */");
    line("for (int step = 0; step < count; ++step) {");
    indent();
    n.body->accept(*this);
    dedent();
    line("}");
  }

  void visit(const BasicStatement& n) override {
    if (!n.receives.empty()) {
      line("par {");
      indent();
      for (const Communicate& c : n.receives) visit(c);
      dedent();
      line("}");
    }
    line(n.compute + ";");
    if (!n.sends.empty()) {
      line("par {");
      indent();
      for (const Communicate& c : n.sends) visit(c);
      dedent();
      line("}");
    }
  }

  void visit(const Program& n) override {
    line("/* systolic program: " + n.name + " (C rendering) */");
    for (const NodePtr& d : n.channel_decls) d->accept(*this);
    n.body->accept(*this);
  }
};

}  // namespace

std::string to_c(const Program& program) {
  CPrinter printer;
  program.accept(printer);
  return printer.str();
}

}  // namespace systolize::ast
